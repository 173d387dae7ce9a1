"""Eclat frequent-itemset mining (Zaki 2000): the production miner.

Eclat represents every item by the set of transaction ids (tid-set)
containing it and grows itemsets depth-first by intersecting tid-sets.  Every
tid-set is a packed bit row of the database's compiled
:class:`~repro.mining.bitmatrix.TransactionMatrix`, so an intersection is one
byte-wise AND and a support check is one popcount, both numpy-level
operations.  A region packed from the corpus CSR
(:meth:`~repro.mining.shm.CorpusMatrix.region_matrix`) arrives with its
matrix, so mining it compiles nothing.

The paper mines with FP-Growth (Section V-A); any exact miner returns the
same frequent itemsets.  ``tests/mining/test_engine_parity.py`` checks that
this miner returns the same :class:`~repro.mining.itemsets.MiningResult` as
the FP-Growth oracle in ``tests/oracles/`` apart from the ``algorithm``
label.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import MiningError
from repro.mining.bitmatrix import popcount
from repro.mining.itemsets import MiningResult, Pattern, TransactionDatabase

__all__ = ["EclatMiner"]


class EclatMiner:
    """Depth-first Eclat miner over packed tid-bitsets.

    Parameters
    ----------
    min_support:
        Relative support threshold in ``(0, 1]``; the paper uses 0.20.
    max_length:
        Optional maximum pattern length (``None`` = unbounded).
    """

    def __init__(self, min_support: float = 0.2, max_length: int | None = 4) -> None:
        if not 0.0 < min_support <= 1.0:
            raise MiningError(f"min_support must be in (0, 1], got {min_support}")
        if max_length is not None and max_length < 1:
            raise MiningError("max_length must be at least 1 when provided")
        self.min_support = min_support
        self.max_length = max_length

    def mine(self, transactions: TransactionDatabase | Iterable[Iterable[str]]) -> MiningResult:
        """Mine all frequent itemsets from *transactions*."""
        database = (
            transactions
            if isinstance(transactions, TransactionDatabase)
            else TransactionDatabase(transactions)
        )
        n = len(database)
        if n == 0:
            return MiningResult(
                [], n_transactions=0, min_support=self.min_support, algorithm="eclat"
            )
        patterns = self._mine(database, n, database.minimum_count(self.min_support))
        return MiningResult(
            patterns, n_transactions=n, min_support=self.min_support, algorithm="eclat"
        )

    def _mine(
        self, database: TransactionDatabase, n: int, min_count: int
    ) -> list[Pattern]:
        """Depth-first growth over packed tid-bitsets (AND + popcount).

        All extensions of one search node are intersected in a single numpy
        pass (one broadcast AND over the stacked item rows, one batched
        popcount), so the per-candidate cost is a few bytes of vector work
        instead of a Python ``set`` intersection.
        """
        matrix = database.matrix()
        rows = matrix.packed_rows
        frequent_ids = [int(i) for i in matrix.frequent_item_ids(min_count)]
        supports = matrix.item_supports

        counts: dict[tuple[int, ...], int] = {}
        # Depth-first growth with ascending-id (= lexicographic) extension order.
        stack: list[tuple[tuple[int, ...], object, int, list[int]]] = []
        for index, item_id in enumerate(frequent_ids):
            stack.append(
                (
                    (item_id,),
                    matrix.tidset(item_id),
                    int(supports[item_id]),
                    frequent_ids[index + 1 :],
                )
            )

        while stack:
            prefix, prefix_tids, prefix_count, extensions = stack.pop()
            counts[prefix] = prefix_count
            if self.max_length is not None and len(prefix) >= self.max_length:
                continue
            if not extensions:
                continue
            candidate_tids = prefix_tids & rows[np.asarray(extensions)]
            candidate_counts = popcount(candidate_tids).sum(axis=1)
            for position in np.flatnonzero(candidate_counts >= min_count).tolist():
                stack.append(
                    (
                        prefix + (extensions[position],),
                        candidate_tids[position],
                        int(candidate_counts[position]),
                        extensions[position + 1 :],
                    )
                )
        return [
            Pattern(
                items=matrix.items_of(ids), support=count / n, absolute_support=count
            )
            for ids, count in counts.items()
        ]
