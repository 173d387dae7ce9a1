"""Unit tests for the Eclat miner and the FP-Growth oracle.

A brute-force enumerator is a second reference, independent of both: each
miner must match it, and the two miners must match each other.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MiningError
from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import minimum_support_count
from repro.mining.shm import CorpusMatrix
from tests.oracles.fpgrowth import FPGrowthMiner


def fpgrowth(transactions, min_support, max_length=4):
    return FPGrowthMiner(min_support, max_length=max_length).mine(transactions)


def eclat(transactions, min_support, max_length=4):
    return EclatMiner(min_support, max_length=max_length).mine(transactions)


def brute_force_frequent(transactions, min_support, max_length=None):
    """Reference miner: enumerate every candidate subset (exponential)."""
    db = [frozenset(transaction) for transaction in transactions if transaction]
    n = len(db)
    if n == 0:
        return {}
    vocabulary = sorted(frozenset().union(*db))
    min_count = minimum_support_count(min_support, n)
    limit = max_length if max_length is not None else len(vocabulary)
    frequent = {}
    for size in range(1, min(limit, len(vocabulary)) + 1):
        for combo in combinations(vocabulary, size):
            count = sum(1 for transaction in db if transaction.issuperset(combo))
            if count >= min_count:
                frequent[frozenset(combo)] = count
    return frequent


SIMPLE_TRANSACTIONS = [
    {"soy sauce", "mirin", "heat"},
    {"soy sauce", "heat"},
    {"soy sauce", "mirin"},
    {"butter", "flour", "heat"},
    {"butter", "flour"},
    {"soy sauce", "mirin", "heat"},
]


class TestFPGrowth:
    def test_known_small_example(self):
        result = fpgrowth(SIMPLE_TRANSACTIONS, min_support=0.5, max_length=None)
        supports = {tuple(sorted(p.items)): p.absolute_support for p in result}
        assert supports[("soy sauce",)] == 4
        assert supports[("heat",)] == 4
        assert supports[("mirin", "soy sauce")] == 3
        assert ("butter",) not in supports  # 2/6 < 0.5
        assert result.algorithm == "fp-growth"

    def test_matches_brute_force(self):
        expected = brute_force_frequent(SIMPLE_TRANSACTIONS, 0.3)
        result = fpgrowth(SIMPLE_TRANSACTIONS, min_support=0.3, max_length=None)
        mined = {p.items: p.absolute_support for p in result}
        assert mined == expected

    def test_max_length_bounds_patterns(self):
        result = fpgrowth(SIMPLE_TRANSACTIONS, min_support=0.3, max_length=1)
        assert all(p.is_singleton for p in result)
        longer = fpgrowth(SIMPLE_TRANSACTIONS, min_support=0.3, max_length=2)
        assert any(p.length == 2 for p in longer)
        assert all(p.length <= 2 for p in longer)

    def test_empty_database(self):
        result = fpgrowth([], min_support=0.2)
        assert len(result) == 0
        assert result.n_transactions == 0

    def test_nothing_frequent(self):
        result = fpgrowth([{"a"}, {"b"}, {"c"}, {"d"}], min_support=0.9)
        assert len(result) == 0

    def test_all_identical_transactions(self):
        result = fpgrowth([{"a", "b"}] * 5, min_support=0.5, max_length=None)
        assert {tuple(sorted(p.items)) for p in result} == {("a",), ("b",), ("a", "b")}
        assert all(p.support == 1.0 for p in result)

    def test_invalid_parameters(self):
        with pytest.raises(MiningError):
            FPGrowthMiner(min_support=0.0)
        with pytest.raises(MiningError):
            FPGrowthMiner(min_support=1.5)
        with pytest.raises(MiningError):
            FPGrowthMiner(max_length=0)

    def test_supports_are_consistent(self):
        result = fpgrowth(SIMPLE_TRANSACTIONS, min_support=0.3, max_length=3)
        for pattern in result:
            assert pattern.support == pytest.approx(pattern.absolute_support / 6)
            assert pattern.support >= 0.3


class TestMinerParity:
    @pytest.mark.parametrize("min_support", [0.2, 0.34, 0.5, 0.75])
    def test_miners_agree_on_simple_data(self, min_support):
        fp = fpgrowth(SIMPLE_TRANSACTIONS, min_support, max_length=None)
        ec = eclat(SIMPLE_TRANSACTIONS, min_support, max_length=None)
        fp_map = {p.items: p.absolute_support for p in fp}
        ec_map = {p.items: p.absolute_support for p in ec}
        assert fp_map == ec_map

    def test_miners_agree_on_recipe_data(self, toy_db):
        transactions = toy_db.transactions_for_region("Japanese")
        for miner in (FPGrowthMiner(0.5, None), EclatMiner(0.5, None)):
            result = miner.mine(transactions)
            assert result.support_map()[frozenset({"soy sauce"})] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=5),
            min_size=1,
            max_size=14,
        ),
        st.sampled_from([0.2, 0.3, 0.5]),
    )
    def test_property_miners_match_brute_force(self, transactions, min_support):
        expected = brute_force_frequent(transactions, min_support, max_length=3)
        for mine in (fpgrowth, eclat):
            result = mine(transactions, min_support=min_support, max_length=3)
            assert {p.items: p.absolute_support for p in result} == expected


class TestEclatSpecifics:
    def test_eclat_invalid_parameters(self):
        with pytest.raises(MiningError):
            EclatMiner(min_support=-0.1)
        with pytest.raises(MiningError):
            EclatMiner(max_length=-1)

    def test_empty_inputs(self):
        assert len(eclat([], 0.5)) == 0

    def test_max_length_respected(self):
        result = eclat(SIMPLE_TRANSACTIONS, min_support=0.3, max_length=2)
        assert all(p.length <= 2 for p in result)


class TestRawTransactions:
    """Every raw input Eclat takes is packed through the corpus CSR first."""

    def test_empty_transactions_dropped(self):
        result = eclat([{"a"}, set(), {"a", "b"}, ()], min_support=0.5)
        assert result.n_transactions == 2
        assert result.support_map() == {
            frozenset({"a"}): 1.0,
            frozenset({"b"}): 0.5,
            frozenset({"a", "b"}): 0.5,
        }

    def test_repeated_items_counted_once(self):
        result = eclat([["a", "a", "b"], ["a"]], min_support=0.5, max_length=None)
        supports = {p.items: p.absolute_support for p in result}
        assert supports == {frozenset({"a"}): 2, frozenset({"b"}): 1, frozenset({"a", "b"}): 1}

    def test_items_taken_as_strings(self):
        result = eclat([[1, "1"], [2, 1]], min_support=0.5, max_length=None)
        assert {p.items: p.absolute_support for p in result} == {
            frozenset({"1"}): 2,
            frozenset({"2"}): 1,
            frozenset({"1", "2"}): 1,
        }

    def test_only_empty_transactions_give_an_empty_result(self):
        result = eclat([[], set(), ()], min_support=0.2)
        assert len(result) == 0
        assert result.n_transactions == 0

    def test_one_shot_iterators_are_read_once(self):
        rows = [["soy sauce", "mirin"], ["soy sauce"], ["rice"]]
        result = eclat((iter(row) for row in rows), min_support=0.3, max_length=None)
        assert result == eclat(rows, min_support=0.3, max_length=None)
        assert result.n_transactions == 3

    def test_supports_are_fractions_of_the_non_empty_transactions(self):
        rows = [
            {"soy sauce", "mirin", "heat"},
            {"soy sauce", "heat"},
            set(),
            {"soy sauce", "mirin"},
            {"butter", "flour"},
        ]
        supports = eclat(rows, min_support=0.25, max_length=None).support_map()
        assert supports[frozenset({"soy sauce"})] == pytest.approx(0.75)
        assert supports[frozenset({"soy sauce", "mirin"})] == pytest.approx(0.5)
        assert supports[frozenset({"butter", "flour"})] == pytest.approx(0.25)

    def test_a_packed_matrix_is_mined_as_packed(self):
        corpus = CorpusMatrix.from_transactions({"": SIMPLE_TRANSACTIONS})
        for min_support in (0.2, 0.5):
            count = minimum_support_count(min_support, len(SIMPLE_TRANSACTIONS))
            for floor in (1, count):
                packed = corpus.pack("", floor)
                assert eclat(packed, min_support) == eclat(SIMPLE_TRANSACTIONS, min_support)

    def test_a_matrix_packed_above_the_support_count_is_refused(self):
        packed = CorpusMatrix.from_transactions({"": SIMPLE_TRANSACTIONS}).pack("", 4)
        with pytest.raises(MiningError, match="floor"):
            eclat(packed, min_support=0.2)
