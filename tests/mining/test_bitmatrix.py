"""Unit tests for the packed-bitset transaction engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MiningError
from repro.mining.bitmatrix import TransactionMatrix
from repro.mining.itemsets import TransactionDatabase

TRANSACTIONS = [
    ["soy sauce", "mirin", "rice"],
    ["soy sauce", "mirin"],
    ["rice", "nori"],
    ["soy sauce"],
    ["butter", "flour", "rice"],
]


@pytest.fixture()
def database() -> TransactionDatabase:
    return TransactionDatabase(TRANSACTIONS)


@pytest.fixture()
def matrix(database) -> TransactionMatrix:
    return database.matrix()


class TestConstruction:
    def test_vocabulary_sorted_and_indexed(self, matrix):
        assert matrix.items == tuple(sorted(matrix.items))
        assert matrix.n_items == 6
        assert matrix.n_transactions == 5
        for index, item in enumerate(matrix.items):
            assert matrix.item_index[item] == index

    def test_memoized_on_database(self, database):
        assert database.matrix() is database.matrix()

    def test_packing_width(self, matrix):
        # 5 transactions pack into one byte per item row.
        assert matrix.n_words == 1

    def test_wide_database_packs_multiple_words(self):
        transactions = [[f"item{i:03d}"] for i in range(20)]
        matrix = TransactionDatabase(transactions).matrix()
        assert matrix.n_transactions == 20
        assert matrix.n_words == 3  # ceil(20 / 8)
        assert int(matrix.item_supports.sum()) == 20


class TestSupports:
    def test_item_supports_match_item_counts(self, database, matrix):
        counts = database.item_counts()
        for item, count in counts.items():
            assert matrix.support([item]) == count

    def test_itemset_supports_match_database(self, database, matrix):
        for itemset in (
            ["soy sauce", "mirin"],
            ["soy sauce", "rice"],
            ["rice"],
            ["butter", "flour"],
            ["soy sauce", "butter"],
        ):
            assert matrix.support(itemset) == database.absolute_support(itemset)

    def test_empty_itemset_supported_by_all(self, matrix):
        assert matrix.support([]) == 5

    def test_unknown_item_support_is_zero(self, matrix):
        assert matrix.support(["plutonium"]) == 0
        with pytest.raises(MiningError):
            matrix.ids_of(["plutonium"])

    def test_frequent_item_ids_ascending(self, matrix):
        ids = matrix.frequent_item_ids(2)
        assert list(ids) == sorted(ids)
        for item_id in ids:
            assert matrix.item_supports[item_id] >= 2


class TestTidsets:
    def test_tidset_rows_read_only(self, matrix):
        row = matrix.tidset(0)
        with pytest.raises(ValueError):
            row[0] = 0

    def test_transaction_id_arrays_roundtrip(self, matrix):
        rebuilt = [
            sorted(matrix.items[i] for i in ids.tolist())
            for ids in matrix.transaction_id_arrays()
        ]
        assert rebuilt == [sorted(set(t)) for t in TRANSACTIONS]


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
            database = TransactionDatabase(transactions)
            matrix = database.matrix()
            for _ in range(20):
                size = int(rng.integers(1, 4))
                itemset = list(rng.choice(items, size=size, replace=False))
                assert matrix.support(itemset) == database.absolute_support(itemset)
