"""Mining the corpus CSR packs only the items that can be frequent.

``mine_corpus_with_report`` packs each region keeping just the items whose
region support reaches the miner's ``minimum_support_count`` -- an itemset
is at most as frequent as each of its items, so nothing else can be in a
pattern.  Over drawn multi-region corpora (an empty region, a
one-transaction region, items exactly on the support count and one below
it) its results must equal mining each region's database directly and the
FP-Growth oracle, pattern order included, on the built CSR and on the CSR
saved and memory-mapped back.  The pruned matrix it hands the miner must
never answer wrong: its rows and supports are the direct counts, and a
support count that would need a dropped item raises.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import MiningError
from repro.mining.bitmatrix import TransactionMatrix, popcount
from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import minimum_support_count
from repro.mining.regions import mine_corpus_with_report, mine_regions_with_report
from repro.mining.shm import CorpusMatrix

from tests.oracles.fpgrowth import FPGrowthMiner

ITEMS = [f"item{k}" for k in range(9)]
#: Each drawn region holds one item exactly on the region's support count
#: and one a single transaction below it.
ON_THE_COUNT, BELOW_THE_COUNT = "edge", "under"


class RecordingMiner:
    """An Eclat miner that keeps every matrix the mining loop hands it."""

    def __init__(self, miner: EclatMiner) -> None:
        self.miner = miner
        self.min_support = miner.min_support
        self.seen: list[TransactionMatrix] = []

    def mine(self, matrix: TransactionMatrix):
        self.seen.append(matrix)
        return self.miner.mine(matrix)


@st.composite
def corpora(draw):
    """``(regions, min_support, max_length)`` with the edge cases drawn in."""
    min_support = draw(
        st.one_of(
            st.sampled_from([0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 1.0]),
            st.floats(min_value=0.01, max_value=1.0),
        )
    )
    max_length = draw(st.one_of(st.none(), st.integers(1, 4)))
    transaction = st.lists(st.sampled_from(ITEMS), min_size=1, max_size=6)
    regions: dict[str, list[set[str]]] = {
        "Empty": [],
        "Single": [set(draw(transaction))],
    }
    for index in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 40))
        rows = [set(draw(transaction)) for _ in range(n)]
        count = minimum_support_count(min_support, n)
        for item, support in ((ON_THE_COUNT, count), (BELOW_THE_COUNT, count - 1)):
            for row in draw(st.permutations(range(n)))[:support]:
                rows[row].add(item)
        regions[f"Region{index}"] = rows
    return regions, min_support, max_length


def _same(left, right) -> None:
    """Equal results apart from the ``algorithm`` label, pattern order included."""
    assert list(left) == list(right)
    for region in left:
        assert left[region].patterns == right[region].patterns
        assert left[region].n_transactions == right[region].n_transactions
        assert left[region].min_support == right[region].min_support


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_frequent_packing_mines_what_the_direct_databases_mine(drawn):
    regions, min_support, max_length = drawn
    eclat = EclatMiner(min_support, max_length=max_length)
    direct, _report = mine_regions_with_report(regions, eclat)
    oracle = {
        region: FPGrowthMiner(min_support, max_length=max_length).mine(regions[region])
        for region in sorted(regions)
    }
    _same(direct, oracle)

    corpus = CorpusMatrix.from_transactions(regions)
    with tempfile.TemporaryDirectory() as directory:
        corpus.save(Path(directory) / "corpus")
        mapped = CorpusMatrix.load(Path(directory) / "corpus", mmap=True)
        for matrix in (corpus, mapped):
            results, _report = mine_corpus_with_report(matrix, eclat)
            assert results == direct
            _same(results, oracle)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora())
def test_the_pruned_database_never_answers_wrong(drawn):
    regions, min_support, max_length = drawn
    corpus = CorpusMatrix.from_transactions(regions)
    miner = RecordingMiner(EclatMiner(min_support, max_length=max_length))
    mine_corpus_with_report(corpus, miner)
    assert len(miner.seen) == len(regions)
    for region, matrix in zip(sorted(regions), miner.seen):
        direct = [frozenset(row) for row in regions[region] if row]
        item_counts = Counter(chain.from_iterable(direct))
        count = minimum_support_count(min_support, len(direct))
        assert matrix.n_transactions == len(direct)
        assert matrix.floor == count
        assert set(matrix.items) == {
            item for item, support in item_counts.items() if support >= count
        }
        for first_id, first in enumerate(matrix.items):
            assert matrix.item_supports[first_id] == item_counts[first]
            for second_id, second in enumerate(matrix.items):
                both = matrix.tidset(first_id) & matrix.tidset(second_id)
                assert int(popcount(both).sum()) == sum(
                    1 for row in direct if first in row and second in row
                )
        if count > 1:
            with pytest.raises(MiningError):
                matrix.frequent_item_ids(count - 1)


def test_the_boundary_items_are_kept_and_dropped():
    rows = [{"a", "edge"}, {"a", "edge", "under"}, {"b", "edge"}, {"a"}, {"b"}]
    corpus = CorpusMatrix.from_transactions({"Only": rows})
    miner = RecordingMiner(EclatMiner(0.6, max_length=None))
    (result,) = mine_corpus_with_report(corpus, miner)[0].values()
    matrix = miner.seen[0]
    # 0.6 of 5 transactions: a count of 3, which "a" and "edge" reach.
    assert matrix.floor == 3
    assert matrix.items == ("a", "edge")
    assert [pattern.sorted_items() for pattern in result] == [("a",), ("edge",)]
    assert result == EclatMiner(0.6, max_length=None).mine(rows)

