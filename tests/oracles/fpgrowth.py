"""FP-Growth frequent-itemset mining (the paper's miner, Section V-A).

The driver follows Han, Pei & Yin (2000):

1. one pass over the transactions to count single items and drop those below
   the minimum support count;
2. build the FP-tree with items ordered by descending global frequency;
3. recursively mine the tree: for every item (least frequent first) emit the
   pattern ``suffix ∪ {item}``, extract the item's conditional pattern base,
   build the conditional FP-tree and recurse; trees that collapse to a single
   path are enumerated combinatorially.

``max_length`` bounds the pattern length -- the paper's Table I only reports
short patterns, and bounding the length keeps the search tractable when
recipes share many generic items (salt, add, heat ...).

This is the equality oracle for the production miner,
:class:`repro.mining.eclat.EclatMiner`: a string-keyed pure-Python pass over
the transactions' frozensets that never reads the packed-bitset engine, so
the parity tests and the mining benchmark compare two independent
implementations.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import Iterable

from repro.errors import MiningError
from repro.mining.itemsets import MiningResult, Pattern, minimum_support_count

from tests.oracles.fptree import FPTree

__all__ = ["FPGrowthMiner"]


class FPGrowthMiner:
    """Configurable FP-Growth miner.

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

    # -- public API -------------------------------------------------------------

    def mine(self, transactions: Iterable[Iterable[str]]) -> MiningResult:
        """Mine all frequent itemsets from *transactions*.

        Each transaction is taken as the frozenset of its items as strings;
        empty transactions are dropped.
        """
        database = [
            items
            for items in (frozenset(map(str, transaction)) for transaction in transactions)
            if items
        ]
        n = len(database)
        if n == 0:
            return MiningResult(
                [], n_transactions=0, min_support=self.min_support, algorithm="fp-growth"
            )
        min_count = minimum_support_count(self.min_support, n)
        patterns = [
            Pattern(items=items, support=count / n, absolute_support=count)
            for items, count in self._mine(database, min_count).items()
        ]
        return MiningResult(
            patterns, n_transactions=n, min_support=self.min_support, algorithm="fp-growth"
        )

    def _mine(
        self, database: list[frozenset[str]], min_count: int
    ) -> dict[frozenset[str], int]:
        """The string-keyed FP-Growth pass."""
        item_counts = Counter(chain.from_iterable(database))
        frequent = {
            item: count for item, count in item_counts.items() if count >= min_count
        }
        if not frequent:
            return {}

        # Rank by descending frequency (ties broken lexicographically) so the
        # most frequent items sit closest to the root.
        ranking = {
            item: rank
            for rank, item in enumerate(
                sorted(frequent, key=lambda it: (-frequent[it], it))
            )
        }
        tree = FPTree.from_transactions(database, ranking, frequent_items=frequent)

        counts: dict[frozenset[str], int] = {}
        self._mine_tree(tree, frozenset(), min_count, counts)
        return counts

    # -- recursion ------------------------------------------------------------------

    def _mine_tree(
        self,
        tree: FPTree,
        suffix: frozenset,
        min_count: int,
        counts: dict,
    ) -> None:
        if tree.is_empty:
            return
        if tree.has_single_path():
            self._mine_single_path(tree, suffix, min_count, counts)
            return
        for item in tree.items():
            support_count = tree.item_count(item)
            if support_count < min_count:
                continue
            new_pattern = suffix | {item}
            if self.max_length is not None and len(new_pattern) > self.max_length:
                continue
            self._record(counts, new_pattern, support_count)
            if self.max_length is not None and len(new_pattern) == self.max_length:
                continue
            conditional_tree = self._conditional_tree(tree, item, min_count)
            self._mine_tree(conditional_tree, new_pattern, min_count, counts)

    def _mine_single_path(
        self,
        tree: FPTree,
        suffix: frozenset,
        min_count: int,
        counts: dict,
    ) -> None:
        """Enumerate all combinations along a single-path tree."""
        path = [(item, count) for item, count in tree.single_path() if count >= min_count]
        if not path:
            return
        remaining = (
            None if self.max_length is None else self.max_length - len(suffix)
        )
        if remaining is not None and remaining <= 0:
            return
        max_size = len(path) if remaining is None else min(len(path), remaining)
        for size in range(1, max_size + 1):
            for combo in combinations(path, size):
                support_count = min(count for _, count in combo)
                if support_count < min_count:
                    continue
                items = suffix | {item for item, _ in combo}
                self._record(counts, items, support_count)

    @staticmethod
    def _conditional_tree(tree: FPTree, item, min_count: int) -> FPTree:
        """Build the conditional FP-tree for *item*."""
        base = tree.conditional_pattern_base(item)
        # Count items within the conditional base.
        conditional_counts: dict = {}
        for path, count in base:
            for path_item in path:
                conditional_counts[path_item] = (
                    conditional_counts.get(path_item, 0) + count
                )
        frequent = {
            it: c for it, c in conditional_counts.items() if c >= min_count
        }
        ranking = {
            it: rank
            for rank, it in enumerate(sorted(frequent, key=lambda x: (-frequent[x], x)))
        }
        conditional = FPTree()
        for path, count in base:
            filtered = [p for p in path if p in frequent]
            if not filtered:
                continue
            filtered.sort(key=lambda p: (ranking[p], p))
            conditional.insert(filtered, count)
        return conditional

    @staticmethod
    def _record(counts: dict, items: frozenset, support_count: int) -> None:
        existing = counts.get(items)
        if existing is None or support_count > existing:
            counts[items] = support_count
