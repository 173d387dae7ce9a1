"""Packed-bitset transaction engine behind the Eclat miner.

:class:`TransactionMatrix` is a region's transactions in a vertical bit
representation: every item gets one row of ``ceil(n/8)`` bytes (the
``np.packbits`` layout of the item's transaction-membership column), so

* the support of an itemset is one ``bitwise_and.reduce`` over the member
  rows followed by a popcount (``np.bitwise_count``) -- no Python pass over
  the transactions;
* Eclat's tid-set intersections become byte-wise ANDs of packed rows.

Item names are encoded as integer ids in **sorted vocabulary order**, so id
order and lexicographic item order coincide -- Eclat relies on this to walk
its extensions in lexicographic item order.

Every matrix is packed from the corpus's integer-id CSR by
:meth:`repro.mining.shm.CorpusMatrix.pack`, which keeps only the items that
can be frequent at the support count it is given; raw transactions reach it
through :meth:`repro.mining.shm.CorpusMatrix.from_transactions`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import MiningError

__all__ = ["TransactionMatrix", "popcount"]

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
    """Items × transactions boolean matrix packed to bits, with popcounts.

    A matrix holds only the items whose support reaches its ``floor`` (see
    :meth:`repro.mining.shm.CorpusMatrix.pack`) and no per-transaction id
    arrays.  It answers every question about its own items, and raises
    :class:`~repro.errors.MiningError` for the items at a support count
    below its floor, which it may not hold.
    """

    __slots__ = ("items", "n_transactions", "n_words", "floor", "_rows", "_supports")

    def __init__(
        self,
        items: tuple[str, ...],
        n_transactions: int,
        rows: np.ndarray,
        supports: np.ndarray,
        *,
        floor: int = 1,
    ) -> None:
        """Adopt already-packed rows and their item supports.

        *items* are the sorted items whose support reaches *floor*; row
        ``i`` of *rows* is item ``i``'s packed tid-bitset and
        ``supports[i]`` its popcount.
        """
        #: Sorted vocabulary; the position of an item is its integer id.
        self.items = items
        self.n_transactions = n_transactions
        #: Every item at or above this support is a row; 1 means every item.
        self.floor = floor
        #: Packed vertical bitsets, one row of ``n_words`` bytes per item.
        self._rows = rows
        self.n_words: int = rows.shape[1]
        self._supports = supports

    # -- vocabulary ------------------------------------------------------------------

    @property
    def n_items(self) -> int:
        return len(self.items)

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
        if min_count < self.floor:
            raise MiningError(
                f"support count {min_count} is below this matrix's floor {self.floor}: "
                "the items under the floor were not packed"
            )
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionMatrix(transactions={self.n_transactions}, "
            f"items={self.n_items}, words={self.n_words})"
        )
