"""Unit tests for the FP-tree data structure behind the FP-Growth oracle."""

from __future__ import annotations

import pytest

from repro.errors import MiningError
from tests.oracles.fptree import FPNode, FPTree


@pytest.fixture()
def simple_tree() -> FPTree:
    """Classic textbook example: five transactions over items a, b, c, d."""
    transactions = [
        ["a", "b"],
        ["b", "c", "d"],
        ["a", "c", "d"],
        ["a", "b", "c"],
        ["a", "b", "c", "d"],
    ]
    # Item frequencies: a=4, b=4, c=4, d=3 -> rank a<b<c<d (ties lexicographic).
    order = {"a": 0, "b": 1, "c": 2, "d": 3}
    return FPTree.from_transactions(transactions, order)


class TestFPNode:
    def test_path_to_root(self):
        root = FPNode(None)
        a = root.add_child("a", count=1)
        b = a.add_child("b", count=1)
        c = b.add_child("c", count=1)
        assert c.path_to_root() == ["a", "b"]
        assert a.path_to_root() == []
        assert root.is_root
        assert not c.is_root


class TestFPTree:
    def test_counts_accumulate(self, simple_tree):
        assert simple_tree.n_transactions == 5
        assert simple_tree.item_count("a") == 4
        assert simple_tree.item_count("d") == 3
        assert simple_tree.item_count("missing") == 0

    def test_items_sorted_by_ascending_count(self, simple_tree):
        items = simple_tree.items()
        counts = [simple_tree.item_count(item) for item in items]
        assert counts == sorted(counts)

    def test_node_links_cover_all_occurrences(self, simple_tree):
        total = sum(node.count for node in simple_tree.nodes_of("c"))
        assert total == simple_tree.item_count("c")

    def test_conditional_pattern_base(self, simple_tree):
        base = simple_tree.conditional_pattern_base("d")
        # Every prefix path must end before 'd' and carry positive counts.
        assert base
        for path, count in base:
            assert "d" not in path
            assert count > 0
        assert sum(count for _path, count in base) == simple_tree.item_count("d")

    def test_shared_prefixes_are_compressed(self, simple_tree):
        # 5 transactions x up to 4 items = 17 item instances; the tree must be
        # strictly smaller because of prefix sharing.
        assert simple_tree.node_count() < 17

    def test_single_path_detection(self):
        tree = FPTree()
        tree.insert(["a", "b", "c"], count=2)
        tree.insert(["a", "b"], count=1)
        assert tree.has_single_path()
        path = tree.single_path()
        assert path == [("a", 3), ("b", 3), ("c", 2)]

    def test_single_path_false_when_branching(self, simple_tree):
        assert not simple_tree.has_single_path()
        with pytest.raises(MiningError):
            simple_tree.single_path()

    def test_empty_tree(self):
        tree = FPTree()
        assert tree.is_empty
        assert tree.has_single_path()
        assert tree.single_path() == []
        assert tree.items() == []

    def test_insert_rejects_non_positive_count(self):
        tree = FPTree()
        with pytest.raises(MiningError):
            tree.insert(["a"], count=0)

    def test_from_transactions_drops_unranked_items(self):
        tree = FPTree.from_transactions([["a", "zzz"], ["a"]], {"a": 0})
        assert tree.item_count("a") == 2
        assert tree.item_count("zzz") == 0
        assert tree.n_transactions == 2

    def test_from_transactions_counts_fully_filtered_transactions(self):
        tree = FPTree.from_transactions([["zzz"], ["a"]], {"a": 0})
        assert tree.n_transactions == 2
        assert tree.item_count("a") == 1
