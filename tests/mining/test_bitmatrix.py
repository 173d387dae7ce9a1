"""Unit tests for the packed-bitset transaction engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MiningError
from repro.mining.bitmatrix import TransactionMatrix, popcount
from repro.mining.shm import CorpusMatrix

TRANSACTIONS = [
    ["soy sauce", "mirin", "rice"],
    ["soy sauce", "mirin"],
    ["rice", "nori"],
    ["soy sauce"],
    ["butter", "flour", "rice"],
]


def _packed(transactions, min_count: int = 1) -> TransactionMatrix:
    """The items of *transactions* reaching *min_count*, packed through the corpus CSR."""
    return CorpusMatrix.from_transactions({"": transactions}).pack("", min_count)


def _support(matrix: TransactionMatrix, itemset) -> int:
    """An itemset's support as Eclat counts it: AND of the rows, then popcount."""
    rows = [matrix.tidset(matrix.items.index(item)) for item in itemset]
    return int(popcount(np.bitwise_and.reduce(rows)).sum())


@pytest.fixture()
def matrix() -> TransactionMatrix:
    return _packed(TRANSACTIONS)


class TestConstruction:
    def test_vocabulary_sorted_and_indexed(self, matrix):
        assert matrix.items == tuple(sorted(matrix.items))
        assert matrix.n_items == 6
        assert matrix.n_transactions == 5

    def test_packing_width(self, matrix):
        # 5 transactions pack into one byte per item row.
        assert matrix.n_words == 1

    def test_wide_database_packs_multiple_words(self):
        transactions = [[f"item{i:03d}"] for i in range(20)]
        matrix = _packed(transactions)
        assert matrix.n_transactions == 20
        assert matrix.n_words == 3  # ceil(20 / 8)
        assert int(matrix.item_supports.sum()) == 20

    def test_padding_bits_are_clear(self, matrix):
        # 5 transactions use the high 5 bits of each row's byte; the low 3
        # must stay 0, or a popcount would count transactions that are not there.
        assert not np.any(matrix.packed_rows[:, -1] & 0b111)

    def test_items_of_maps_ids_to_names(self, matrix):
        assert matrix.items_of([]) == frozenset()
        assert matrix.items_of([0, matrix.n_items - 1]) == {matrix.items[0], matrix.items[-1]}
        assert matrix.items_of(range(matrix.n_items)) == frozenset().union(*TRANSACTIONS)


class TestSupports:
    def test_item_supports_match_item_counts(self, matrix):
        for item_id, item in enumerate(matrix.items):
            count = sum(1 for transaction in TRANSACTIONS if item in transaction)
            assert matrix.item_supports[item_id] == count

    def test_frequent_item_ids_ascending(self, matrix):
        ids = matrix.frequent_item_ids(2)
        assert list(ids) == sorted(ids)
        for item_id in ids:
            assert matrix.item_supports[item_id] >= 2

    def test_itemset_supports_match_a_frozenset_count(self, matrix):
        for itemset in (
            ["soy sauce", "mirin"],
            ["soy sauce", "rice"],
            ["rice"],
            ["butter", "flour"],
            ["soy sauce", "butter"],
        ):
            count = sum(1 for transaction in TRANSACTIONS if set(itemset) <= set(transaction))
            assert _support(matrix, itemset) == count

    def test_item_supports_read_only(self, matrix):
        with pytest.raises(ValueError):
            matrix.item_supports[0] = 99

    def test_counts_below_the_floor_are_refused(self):
        matrix = _packed(TRANSACTIONS, min_count=2)
        assert matrix.floor == 2
        # Only "mirin", "rice" and "soy sauce" reach 2 of 5 transactions.
        assert matrix.items == ("mirin", "rice", "soy sauce")
        assert matrix.frequent_item_ids(2).tolist() == [0, 1, 2]
        assert matrix.frequent_item_ids(3).tolist() == [1, 2]
        with pytest.raises(MiningError, match="floor"):
            matrix.frequent_item_ids(1)


class TestTidsets:
    def test_tidset_rows_read_only(self, matrix):
        row = matrix.tidset(0)
        with pytest.raises(ValueError):
            row[0] = 0

    def test_tidsets_unpack_to_the_transactions(self, matrix):
        bits = np.unpackbits(matrix.packed_rows, axis=1, count=matrix.n_transactions)
        rebuilt = [
            sorted(matrix.items_of(np.flatnonzero(bits[:, t]).tolist()))
            for t in range(matrix.n_transactions)
        ]
        assert rebuilt == [sorted(set(t)) for t in TRANSACTIONS]

    def test_packed_rows_stack_the_tidsets(self, matrix):
        rows = matrix.packed_rows
        assert rows.shape == (matrix.n_items, matrix.n_words)
        for item_id in range(matrix.n_items):
            assert np.array_equal(rows[item_id], matrix.tidset(item_id))
        with pytest.raises(ValueError):
            rows[0, 0] = 0


def test_popcount_counts_every_byte_value():
    values = np.arange(256, dtype=np.uint8)
    assert popcount(values).tolist() == [bin(value).count("1") for value in range(256)]


class TestRandomizedAgreement:
    def test_supports_agree_with_frozenset_scan(self):
        rng = np.random.default_rng(42)
        items = [f"i{k}" for k in range(25)]
        for _ in range(5):
            n = int(rng.integers(1, 40))
            transactions = [
                list(rng.choice(items, size=int(rng.integers(1, 8)), replace=False))
                for _ in range(n)
            ]
            matrix = _packed(transactions)
            scan = [frozenset(transaction) for transaction in transactions]
            for _ in range(20):
                size = min(int(rng.integers(1, 4)), matrix.n_items)
                itemset = list(rng.choice(matrix.items, size=size, replace=False))
                assert _support(matrix, itemset) == sum(1 for t in scan if t.issuperset(itemset))
