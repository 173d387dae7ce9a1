"""Serial per-region mining over transaction databases and the corpus CSR.

Both entry points of :mod:`repro.mining.regions` must return exactly what
mining each region's database directly returns -- byte for byte through the
serve codec, keyed in sorted region order -- and report how each region
was mined.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import TransactionDatabase
from repro.mining.regions import mine_corpus_with_report, mine_regions_with_report
from repro.mining.shm import CorpusMatrix
from repro.serve.codec import dumps, mining_to_dict

ITEMS = [f"item{k:02d}" for k in range(24)]


def _region_database(seed: int, n: int = 120) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    return TransactionDatabase(
        [
            [ITEMS[j] for j in rng.choice(len(ITEMS), size=int(rng.integers(3, 8)), replace=False)]
            for _ in range(n)
        ]
    )


@pytest.fixture(scope="module")
def regions() -> dict[str, TransactionDatabase]:
    # Inserted out of order: results must still come back sorted.
    return {f"Region{k}": _region_database(seed=k) for k in (3, 1, 4, 0, 2)}


def _byte_form(results) -> str:
    return dumps(mining_to_dict(results))


def _direct(regions, miner):
    return {region: miner.mine(regions[region]) for region in sorted(regions)}


class TestSerialMining:
    def test_matches_direct(self, regions):
        miner = EclatMiner(0.08, max_length=3)
        direct = _direct(regions, miner)
        assert any(len(result) for result in direct.values())
        from_databases, _report = mine_regions_with_report(regions, miner)
        from_arena, _report = mine_corpus_with_report(
            CorpusMatrix.from_transactions(regions), miner
        )
        for results in (from_databases, from_arena):
            assert list(results) == sorted(regions)
            assert _byte_form(results) == _byte_form(direct)

    def test_fresh_databases_compile_once(self):
        fresh = {f"R{k}": _region_database(seed=10 + k, n=40) for k in range(3)}
        miner = EclatMiner(0.1, max_length=2)
        _results, report = mine_regions_with_report(fresh, miner)
        assert report.compiles == len(fresh)
        _results, again = mine_regions_with_report(fresh, miner)
        assert again.compiles == 0  # each database memoized its matrix

    def test_corpus_pass_compiles_nothing(self, regions):
        miner = EclatMiner(0.08, max_length=3)
        results, report = mine_corpus_with_report(
            CorpusMatrix.from_transactions(regions), miner
        )
        assert _byte_form(results) == _byte_form(_direct(regions, miner))
        assert report.compiles == 0  # regions are sliced, never recompiled
        assert [outcome.region for outcome in report.outcomes] == sorted(regions)
        assert [outcome.n_patterns for outcome in report.outcomes] == [
            len(results[region]) for region in sorted(regions)
        ]
        assert report.to_dict() == {"regions": len(regions), "matrix_compiles": 0}
        assert report.dispatch is None

    def test_empty_mapping_mines_nothing(self):
        results, report = mine_regions_with_report({}, EclatMiner(0.2))
        assert results == {}
        assert report.outcomes == ()
