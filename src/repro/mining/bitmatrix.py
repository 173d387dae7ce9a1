"""Packed-bitset transaction engine behind the Eclat miner.

:class:`TransactionMatrix` compiles a transaction database once into a
vertical bit representation: every item gets one row of ``ceil(n/8)`` bytes
(``np.packbits`` over the item's transaction-membership column), so

* the support of an itemset is one ``bitwise_and.reduce`` over the member
  rows followed by a popcount (``np.bitwise_count``) -- no Python pass over
  the transactions;
* Eclat's tid-set intersections become byte-wise ANDs of packed rows.

Item names are encoded as integer ids in **sorted vocabulary order**, so id
order and lexicographic item order coincide -- Eclat relies on this to walk
its extensions in lexicographic item order.

The matrix is immutable and is memoized on
:meth:`repro.mining.itemsets.TransactionDatabase.matrix`.  The pipeline and
the serve layer never compile one from frozensets: they pack each region
from the corpus's integer-id CSR
(:meth:`repro.mining.shm.CorpusMatrix.region_matrix`), which builds the same
matrix byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MiningError

__all__ = ["TransactionMatrix", "popcount"]


def _replace_with(path: Path, array: np.ndarray) -> None:
    """Atomically replace *path* with *array* serialised as ``.npy``."""
    temp = path.with_name(path.name + ".tmp")
    with temp.open("wb") as handle:
        np.save(handle, array)
    temp.replace(path)

if hasattr(np, "bitwise_count"):
    #: Per-byte popcount: the native ufunc on numpy >= 2.0.
    popcount = np.bitwise_count
else:  # pragma: no cover - exercised only on numpy 1.x
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def popcount(packed: np.ndarray) -> np.ndarray:
        """Per-byte popcount via a 256-entry lookup (numpy < 2.0 fallback)."""
        return _POPCOUNT_TABLE[packed]


class TransactionMatrix:
    """Items × transactions boolean matrix packed to bits, with popcounts."""

    __slots__ = (
        "items",
        "item_index",
        "n_transactions",
        "n_words",
        "_rows",
        "_supports",
        "_transaction_ids",
    )

    def __init__(self, transactions: Sequence[frozenset[str]]) -> None:
        vocabulary: set[str] = set()
        for transaction in transactions:
            vocabulary |= transaction
        #: Sorted vocabulary; the position of an item is its integer id.
        self.items: tuple[str, ...] = tuple(sorted(vocabulary))
        self.item_index: dict[str, int] = {
            item: index for index, item in enumerate(self.items)
        }
        self.n_transactions: int = len(transactions)

        n_items = len(self.items)
        presence = np.zeros((n_items, max(1, self.n_transactions)), dtype=bool)
        transaction_ids: list[np.ndarray] = []
        for tid, transaction in enumerate(transactions):
            ids = np.fromiter(
                sorted(self.item_index[item] for item in transaction),
                dtype=np.int64,
                count=len(transaction),
            )
            transaction_ids.append(ids)
            presence[ids, tid] = True
        #: Packed vertical bitsets, one row of ``n_words`` bytes per item.
        self._rows: np.ndarray = np.packbits(presence, axis=1)
        self.n_words: int = self._rows.shape[1]
        self._supports: np.ndarray = popcount(self._rows).sum(
            axis=1, dtype=np.int64
        )
        #: Per-transaction sorted item-id arrays (rebuild the frozensets).
        self._transaction_ids: tuple[np.ndarray, ...] = tuple(transaction_ids)

    @classmethod
    def _from_arrays(
        cls,
        items: tuple[str, ...],
        n_transactions: int,
        rows: np.ndarray,
        supports: np.ndarray,
        transaction_ids: tuple[np.ndarray, ...],
    ) -> "TransactionMatrix":
        """Assemble a matrix from already-packed rows and their item supports."""
        matrix = object.__new__(cls)
        matrix.items = items
        matrix.item_index = dict(zip(items, range(len(items))))
        matrix.n_transactions = n_transactions
        matrix._rows = rows
        matrix.n_words = rows.shape[1]
        matrix._supports = supports
        matrix._transaction_ids = transaction_ids
        return matrix

    # -- vocabulary ------------------------------------------------------------------

    @property
    def n_items(self) -> int:
        return len(self.items)

    def ids_of(self, itemset: Iterable[str]) -> tuple[int, ...]:
        """Sorted integer ids of *itemset*; raises on unknown items."""
        try:
            return tuple(sorted(self.item_index[item] for item in itemset))
        except KeyError as exc:
            raise MiningError(f"unknown item: {exc.args[0]!r}") from exc

    def items_of(self, ids: Iterable[int]) -> frozenset[str]:
        """Item names of a set of integer ids."""
        return frozenset(self.items[i] for i in ids)

    # -- supports --------------------------------------------------------------------

    @property
    def item_supports(self) -> np.ndarray:
        """Absolute support of every item, indexed by item id (read-only view)."""
        view = self._supports.view()
        view.flags.writeable = False
        return view

    def frequent_item_ids(self, min_count: int) -> np.ndarray:
        """Ids of items with support >= *min_count*, ascending (= lexicographic)."""
        return np.flatnonzero(self._supports >= min_count)

    def tidset(self, item_id: int) -> np.ndarray:
        """The packed tid-bitset row of one item (read-only view)."""
        row = self._rows[item_id].view()
        row.flags.writeable = False
        return row

    @property
    def packed_rows(self) -> np.ndarray:
        """The whole ``(n_items, n_words)`` packed matrix (read-only view)."""
        view = self._rows.view()
        view.flags.writeable = False
        return view

    def support_of_ids(self, ids: Sequence[int]) -> int:
        """Absolute support of one itemset given by integer ids."""
        ids = tuple(ids)
        if not ids:
            return self.n_transactions
        if len(ids) == 1:
            return int(self._supports[ids[0]])
        combined = np.bitwise_and.reduce(self._rows[np.asarray(ids)], axis=0)
        return int(popcount(combined).sum())

    def support(self, itemset: Iterable[str]) -> int:
        """Absolute support of an itemset of item *names*; 0 on unknown items."""
        try:
            ids = self.ids_of(itemset)
        except MiningError:
            return 0
        return self.support_of_ids(ids)

    # -- transactions ----------------------------------------------------------------

    def transaction_id_arrays(self) -> tuple[np.ndarray, ...]:
        """Every transaction as a sorted array of item ids (shared, do not mutate)."""
        return self._transaction_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionMatrix(transactions={self.n_transactions}, "
            f"items={self.n_items}, words={self.n_words})"
        )
