"""Oracle parity: the Eclat miner returns what the paper's FP-Growth returns.

Production mines with :class:`~repro.mining.eclat.EclatMiner` over packed
bitsets; the paper's FP-Growth lives on as a string-keyed pure-Python oracle
in ``tests/oracles/``.  Over randomized transaction databases and several
``min_support`` / ``max_length`` settings the two must agree on the whole
:class:`~repro.mining.itemsets.MiningResult` -- itemsets, absolute and
relative supports, order, ``n_transactions`` and ``min_support`` -- and
differ only in the ``algorithm`` label, however the transactions are ordered
into Eclat's packed tid-rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import MiningResult
from tests.oracles.fpgrowth import FPGrowthMiner

MINERS = (EclatMiner, FPGrowthMiner)

ITEMS = [f"item{k:02d}" for k in range(12)]

transactions_strategy = st.lists(
    st.lists(st.sampled_from(ITEMS), min_size=1, max_size=6),
    min_size=1,
    max_size=30,
)


def _unlabelled(result: MiningResult) -> dict[str, object]:
    """The lossless dict form (patterns in order) without the miner label."""
    payload = result.to_dict()
    del payload["algorithm"]
    return payload


@settings(max_examples=40, deadline=None)
@given(
    transactions=transactions_strategy,
    min_support=st.sampled_from([0.05, 0.15, 0.3, 0.6]),
    max_length=st.sampled_from([1, 2, 3, None]),
)
def test_all_miners_and_engines_agree(transactions, min_support, max_length):
    eclat = EclatMiner(min_support, max_length=max_length).mine(transactions)
    oracle = FPGrowthMiner(min_support, max_length=max_length).mine(transactions)
    assert (eclat.algorithm, oracle.algorithm) == ("eclat", "fp-growth")
    assert _unlabelled(eclat) == _unlabelled(oracle)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), min_support=st.sampled_from([0.1, 0.25]))
def test_bitset_results_sorted_identically(data, min_support):
    """Permuting the transactions moves every tid bit; the result must not move."""
    transactions = data.draw(transactions_strategy)
    shuffled = data.draw(st.permutations(transactions))
    eclat = EclatMiner(min_support, max_length=3).mine(shuffled)
    oracle = FPGrowthMiner(min_support, max_length=3).mine(transactions)
    assert _unlabelled(eclat) == _unlabelled(oracle)


#: Raw transactions in every form a miner takes: empty ones (dropped),
#: repeated items (counted once) and non-string items (taken as strings,
#: so 1 and "1" are one item).
raw_transactions_strategy = st.lists(
    st.lists(
        st.one_of(st.sampled_from(ITEMS[:5] + ["1", "2"]), st.integers(0, 3)),
        max_size=6,
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(
    transactions=raw_transactions_strategy,
    min_support=st.sampled_from([0.05, 0.2, 0.5]),
)
def test_raw_input_forms_mine_alike(transactions, min_support):
    non_empty = [frozenset(map(str, row)) for row in transactions if row]
    # One-shot iterators, outside and in: each is read exactly once.
    eclat = EclatMiner(min_support, max_length=3).mine(iter(row) for row in transactions)
    oracle = FPGrowthMiner(min_support, max_length=3).mine(transactions)
    assert eclat.n_transactions == len(non_empty)
    assert _unlabelled(eclat) == _unlabelled(oracle)


@pytest.mark.parametrize("miner_cls", MINERS)
def test_empty_database_yields_empty_result(miner_cls):
    result = miner_cls(0.2).mine([])
    assert len(result) == 0
    assert result.n_transactions == 0
