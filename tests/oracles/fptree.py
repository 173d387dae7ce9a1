"""FP-tree data structure (Han, Pei & Yin, SIGMOD 2000).

The FP-tree is a prefix-tree compression of a transaction database: items are
ordered by descending global frequency, each transaction is inserted as a path
and shared prefixes are merged, with per-node counts recording how many
transactions pass through.  A header table links all nodes of the same item so
conditional pattern bases can be extracted without rescanning the data.

:class:`FPTree` is deliberately independent of the FP-Growth driver in
:mod:`tests.oracles.fpgrowth`, so it can be unit-tested on its own.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import MiningError

__all__ = ["FPNode", "FPTree"]


class FPNode:
    """A single node of an FP-tree."""

    __slots__ = ("item", "count", "parent", "children", "node_link")

    def __init__(self, item: str | None, count: int = 0, parent: "FPNode | None" = None) -> None:
        self.item = item
        self.count = count
        self.parent = parent
        self.children: dict[str, FPNode] = {}
        self.node_link: FPNode | None = None

    @property
    def is_root(self) -> bool:
        return self.item is None

    def child(self, item: str) -> "FPNode | None":
        return self.children.get(item)

    def add_child(self, item: str, count: int = 0) -> "FPNode":
        node = FPNode(item, count=count, parent=self)
        self.children[item] = node
        return node

    def path_to_root(self) -> list[str]:
        """Items on the path from this node's parent up to (excluding) the root."""
        path: list[str] = []
        node = self.parent
        while node is not None and not node.is_root:
            path.append(node.item)  # type: ignore[arg-type]
            node = node.parent
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FPNode(item={self.item!r}, count={self.count})"


class FPTree:
    """An FP-tree with a header table of node-link chains."""

    def __init__(self) -> None:
        self.root = FPNode(None)
        self._header: dict[str, FPNode] = {}
        self._header_tail: dict[str, FPNode] = {}
        self._item_counts: dict[str, int] = {}
        self.n_transactions = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_transactions(
        cls,
        transactions: Iterable[Iterable[str]],
        item_order: Mapping[str, int],
        *,
        frequent_items: Iterable[str] | None = None,
    ) -> "FPTree":
        """Build a tree from transactions using a fixed item ordering.

        ``item_order`` maps item -> rank (lower rank = more frequent, inserted
        closer to the root).  Items missing from ``item_order`` (or from
        ``frequent_items`` when given) are dropped, which is how FP-Growth
        prunes infrequent items before tree construction.
        """
        tree = cls()
        allowed = set(frequent_items) if frequent_items is not None else None
        for transaction in transactions:
            items = [
                item
                for item in transaction
                if item in item_order and (allowed is None or item in allowed)
            ]
            if not items:
                tree.n_transactions += 1
                continue
            items.sort(key=lambda item: (item_order[item], item))
            tree.insert(items)
        return tree

    def insert(self, ordered_items: Iterable[str], count: int = 1) -> None:
        """Insert one (already ordered and filtered) transaction path."""
        if count <= 0:
            raise MiningError("insertion count must be positive")
        self.n_transactions += count
        node = self.root
        for item in ordered_items:
            child = node.child(item)
            if child is None:
                child = node.add_child(item, count=0)
                self._append_node_link(item, child)
            child.count += count
            self._item_counts[item] = self._item_counts.get(item, 0) + count
            node = child

    def _append_node_link(self, item: str, node: FPNode) -> None:
        if item not in self._header:
            self._header[item] = node
            self._header_tail[item] = node
            return
        tail = self._header_tail[item]
        tail.node_link = node
        self._header_tail[item] = node

    # -- inspection ----------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.root.children

    def items(self) -> list[str]:
        """Items present in the tree, ordered by ascending total count.

        FP-Growth processes items from the least frequent upwards, which keeps
        the conditional trees small.
        """
        return sorted(self._item_counts, key=lambda item: (self._item_counts[item], item))

    def item_count(self, item: str) -> int:
        """Total transaction count accumulated on nodes of *item*."""
        return self._item_counts.get(item, 0)

    def nodes_of(self, item: str) -> Iterator[FPNode]:
        """Iterate the node-link chain of *item*."""
        node = self._header.get(item)
        while node is not None:
            yield node
            node = node.node_link

    def has_single_path(self) -> bool:
        """True when the tree degenerates to a single chain (FP-Growth shortcut)."""
        node = self.root
        while node.children:
            if len(node.children) > 1:
                return False
            node = next(iter(node.children.values()))
        return True

    def single_path(self) -> list[tuple[str, int]]:
        """Return the single chain as ``(item, count)`` pairs; requires a single path."""
        if not self.has_single_path():
            raise MiningError("tree does not consist of a single path")
        path: list[tuple[str, int]] = []
        node = self.root
        while node.children:
            node = next(iter(node.children.values()))
            path.append((node.item, node.count))  # type: ignore[arg-type]
        return path

    def conditional_pattern_base(self, item: str) -> list[tuple[list[str], int]]:
        """Prefix paths (and their counts) leading to nodes of *item*."""
        base: list[tuple[list[str], int]] = []
        for node in self.nodes_of(item):
            path = node.path_to_root()
            if path:
                base.append((path, node.count))
        return base

    def node_count(self) -> int:
        """Total number of item nodes (excludes the root); a compression metric."""
        total = 0
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FPTree(items={len(self._item_counts)}, nodes={self.node_count()}, "
            f"transactions={self.n_transactions})"
        )
