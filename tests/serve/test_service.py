"""Behavioural tests for the memoizing AnalysisService.

Cache semantics under test: hit on an identical config, miss on a changed
seed / support, mining-stage reuse for clustering-only changes, recovery from
corrupt cache files, and correctness of served (decoded) results.
"""

from __future__ import annotations

import pytest

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.serve import codec
from repro.serve.service import ANALYSIS_KIND, AnalysisService
from repro.serve.store import ArtifactStore

CONFIG = AnalysisConfig(seed=11, scale=0.02, elbow_k_max=6)


@pytest.fixture()
def service(tmp_path) -> AnalysisService:
    return AnalysisService(tmp_path / "cache")


@pytest.fixture()
def mining_calls(monkeypatch):
    """Count fresh mining passes without disturbing their behaviour."""
    calls = []
    original = AnalysisService._mine_fresh

    def counting(self, config, *args, **kwargs):
        calls.append(config)
        return original(self, config, *args, **kwargs)

    monkeypatch.setattr(AnalysisService, "_mine_fresh", counting)
    return calls


class TestCacheHits:
    def test_identical_config_hits_memory(self, service):
        first = service.get_or_run(CONFIG)
        second = service.get_or_run(CONFIG)
        assert first.source == "computed"
        assert second.source == "memory"
        assert second.results == first.results
        assert second.results is first.results  # served from the decoded cache

    def test_fresh_service_hits_disk(self, service, tmp_path):
        computed = service.get_or_run(CONFIG)
        reloaded = AnalysisService(tmp_path / "cache").get_or_run(CONFIG)
        assert reloaded.source == "disk"
        assert reloaded.results == computed.results

    def test_changed_seed_misses(self, service, mining_calls):
        service.get_or_run(CONFIG)
        changed = service.get_or_run(CONFIG.with_overrides(seed=12))
        assert changed.source == "computed"
        assert not changed.mining_reused
        assert len(mining_calls) == 2

    def test_lowered_support_remines(self, service, mining_calls):
        # Lowering the threshold needs patterns the cached run never mined,
        # so the incremental fast path cannot apply.
        service.get_or_run(CONFIG)
        changed = service.get_or_run(CONFIG.with_overrides(min_support=0.1))
        assert changed.source == "computed"
        assert not changed.mining_reused
        assert not changed.mining_incremental
        assert len(mining_calls) == 2

    def test_raised_support_filters_cached_superset(self, service, mining_calls):
        # Downward closure: raising min_support must *not* re-run the miner —
        # the cached 0.2 run is a superset of the 0.3 run.
        service.get_or_run(CONFIG)
        assert len(mining_calls) == 1
        changed = service.get_or_run(CONFIG.with_overrides(min_support=0.3))
        assert changed.source == "computed"
        assert changed.mining_reused
        assert changed.mining_incremental
        assert len(mining_calls) == 1  # zero additional miner invocations

    def test_incremental_mining_equals_fresh_mine(self, tmp_path):
        # The filtered superset must be indistinguishable from a fresh run.
        raised = CONFIG.with_overrides(min_support=0.3)
        warm = AnalysisService(tmp_path / "warm")
        warm.get_or_run(CONFIG)
        incremental = warm.get_or_run(raised)
        assert incremental.mining_incremental
        cold = AnalysisService(tmp_path / "cold").get_or_run(raised)
        assert not cold.mining_incremental
        assert incremental.results == cold.results

    def test_clustering_only_change_reuses_mining(self, service, mining_calls):
        service.get_or_run(CONFIG)
        changed = service.get_or_run(CONFIG.with_overrides(linkage_method="complete"))
        assert changed.source == "computed"  # full analysis is a miss ...
        assert changed.mining_reused  # ... but the miner is not re-run
        assert len(mining_calls) == 1
        assert changed.results.fihc.run.method == "complete"
        # Identical mining artifacts reached the new analysis.
        base = service.get_or_run(CONFIG)
        assert dict(changed.results.mining_results) == dict(base.results.mining_results)

    def test_warm_accepts_single_and_many(self, service):
        [only] = service.warm(CONFIG)
        assert only.source == "computed"
        served = service.warm([CONFIG, CONFIG.with_overrides(seed=12)])
        assert [s.source for s in served] == ["memory", "computed"]


class TestInvalidation:
    def test_invalidate_forces_recompute(self, service, mining_calls):
        service.get_or_run(CONFIG)
        assert service.invalidate(CONFIG)
        recomputed = service.get_or_run(CONFIG)
        assert recomputed.source == "computed"
        assert recomputed.mining_reused  # mining cache survives by default
        assert len(mining_calls) == 1

    def test_invalidate_with_mining_recomputes_everything(self, service, mining_calls):
        service.get_or_run(CONFIG)
        service.invalidate(CONFIG, mining=True)
        recomputed = service.get_or_run(CONFIG)
        assert recomputed.source == "computed"
        assert not recomputed.mining_reused
        assert len(mining_calls) == 2

    def test_invalidate_missing_returns_false(self, service):
        assert not service.invalidate(CONFIG)

    def test_invalidate_from_another_handle_is_honoured(self, service, tmp_path):
        service.get_or_run(CONFIG)
        other = AnalysisService(tmp_path / "cache")
        assert other.invalidate(CONFIG)
        # The original handle must not serve its stale decoded copy.
        recomputed = service.get_or_run(CONFIG)
        assert recomputed.source == "computed"


class TestCorruptRecovery:
    def test_corrupt_analysis_file_recomputes(self, service, tmp_path):
        computed = service.get_or_run(CONFIG)
        store = ArtifactStore(tmp_path / "cache")
        key = codec.analysis_key(CONFIG)
        store.path_for(ANALYSIS_KIND, key).write_text("{corrupt", encoding="utf-8")
        fresh = AnalysisService(tmp_path / "cache")
        recovered = fresh.get_or_run(CONFIG)
        assert recovered.source == "computed"
        assert recovered.results == computed.results

    def test_stale_schema_recomputes(self, service, tmp_path):
        service.get_or_run(CONFIG)
        key = codec.analysis_key(CONFIG)
        store = ArtifactStore(tmp_path / "cache")
        payload = store.get(ANALYSIS_KIND, key)
        payload = dict(payload)
        payload["schema_version"] = 999
        store.put(ANALYSIS_KIND, key, payload)
        fresh = AnalysisService(tmp_path / "cache")
        assert fresh.get_or_run(CONFIG).source == "computed"


class TestServedResults:
    def test_served_equals_direct_pipeline_run(self, service):
        served = service.get_or_run(CONFIG)
        direct = CuisineClusteringPipeline(CONFIG).run()
        assert served.results == direct

    def test_disk_loaded_results_fully_usable(self, service, tmp_path):
        service.get_or_run(CONFIG)
        reloaded = AnalysisService(tmp_path / "cache").get_or_run(CONFIG).results
        # Exercise the artifact behaviours, not just equality.
        assert reloaded.run_for("figure2").flat_clusters(3)
        assert reloaded.best_geography_match()[1].bakers_gamma == pytest.approx(
            reloaded.best_geography_match()[1].bakers_gamma
        )
        assert reloaded.summary()["n_regions"] == reloaded.corpus_stats.n_regions

    def test_explicit_database_bypasses_cache(self, service, full_corpus):
        served = service.get_or_run(CONFIG, database=full_corpus)
        assert served.source == "computed"
        assert service.cached_keys() == []

    def test_cached_keys_lists_persisted_analyses(self, service):
        assert service.cached_keys() == []
        service.get_or_run(CONFIG)
        service.get_or_run(CONFIG.with_overrides(seed=12))
        assert len(service.cached_keys()) == 2
        assert codec.analysis_key(CONFIG) in service.cached_keys()

    def test_zero_memory_capacity_always_serves_from_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache", max_memory_entries=0)
        service = AnalysisService(store)
        assert service.get_or_run(CONFIG).source == "computed"
        assert service.get_or_run(CONFIG).source == "disk"
        assert service.stats()["memory_hits"] == 0

    def test_stats_report_traffic(self, service):
        service.get_or_run(CONFIG)
        service.get_or_run(CONFIG)
        stats = service.stats()
        assert stats["writes"] == 3  # analysis + mining + mining-index artifacts
        assert stats["memory_hits"] >= 1
        assert "evictions" in stats


class TestCorpusCache:
    def test_corpus_persisted_and_reused(self, service, mining_calls, tmp_path):
        service.get_or_run(CONFIG)
        corpus_file = service.corpus_path(CONFIG)
        assert corpus_file.exists()
        # A clustering-only sweep entry shares the corpus key.
        assert service.corpus_path(
            CONFIG.with_overrides(min_support=0.3)
        ) == corpus_file

        # A fresh service over the same directory must load the corpus from
        # disk, not regenerate it: poison the generator to prove it.
        fresh = AnalysisService(tmp_path / "cache")
        boom = pytest.MonkeyPatch()
        try:
            boom.setattr(
                CuisineClusteringPipeline,
                "build_corpus",
                lambda self: (_ for _ in ()).throw(AssertionError("regenerated")),
            )
            served = fresh.get_or_run(CONFIG.with_overrides(min_support=0.3))
        finally:
            boom.undo()
        assert served.source == "computed"
        assert served.results.corpus_stats == service.get_or_run(CONFIG).results.corpus_stats

    def test_corrupt_corpus_file_regenerates(self, service, tmp_path):
        first = service.get_or_run(CONFIG)
        service.corpus_path(CONFIG).write_text("{broken", encoding="utf-8")
        fresh = AnalysisService(tmp_path / "cache")
        fresh.invalidate(CONFIG, mining=True)
        recovered = fresh.get_or_run(CONFIG)
        assert recovered.source == "computed"
        assert recovered.results == first.results

    def test_hand_edited_corpus_with_bad_shape_regenerates(self, service, tmp_path):
        # Valid JSON whose region entries have the wrong shape must read as
        # a serialization failure (and thus regenerate), not crash the read.
        first = service.get_or_run(CONFIG)
        service.corpus_path(CONFIG).write_text(
            '{"format_version": 1, "regions": ["oops"], "recipes": []}',
            encoding="utf-8",
        )
        fresh = AnalysisService(tmp_path / "cache")
        fresh.invalidate(CONFIG, mining=True)
        recovered = fresh.get_or_run(CONFIG)
        assert recovered.source == "computed"
        assert recovered.results == first.results

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"format_version": 1, "regions": [], "recipes": ['
            '{"recipe_id": "abc", "title": "t", "region": "Thai", "ingredients": ["salt"]}]}',
        ],
        ids=["top-level-list", "non-integer-recipe-id"],
    )
    def test_wrong_shape_corpus_file_regenerates(self, service, text):
        # Valid JSON that is not a corpus must regenerate, not fail the
        # cold compute with a 500.
        path = service.corpus_path(CONFIG)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        served = service.get_or_run(CONFIG)
        assert served.source == "computed"
        fresh = CuisineClusteringPipeline(CONFIG).run()
        assert codec.dumps(codec.results_to_dict(served.results)) == codec.dumps(
            codec.results_to_dict(fresh)
        )
        assert path.read_text(encoding="utf-8") != text  # rewritten with the real corpus

    def test_transaction_matrices_shared_across_sweep(self, service, monkeypatch):
        """A min_support sweep builds the corpus CSR once."""
        from repro.mining.shm import CorpusMatrix

        builds = []
        original = CorpusMatrix.from_transactions.__func__

        def counting(cls, transactions):
            builds.append(len(transactions))
            return original(cls, transactions)

        monkeypatch.setattr(CorpusMatrix, "from_transactions", classmethod(counting))
        service.get_or_run(CONFIG)
        assert len(builds) == 1
        # Lowered support cannot reuse cached mining, so the miner runs again
        # — but over the CSR already in memory.
        service.get_or_run(CONFIG.with_overrides(min_support=0.15))
        assert len(builds) == 1
