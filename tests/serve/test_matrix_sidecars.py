"""Service-level corpus-matrix sidecar lifecycle: persist, share, invalidate.

The acceptance contract: once a config has been computed, every later mining
pass over the same corpus -- in this process or any other -- slices its
regions out of the single memory-mapped ``corpus-<key>.matrix`` arena
instead of re-running ``np.packbits``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import AnalysisConfig
from repro.mining.bitmatrix import TransactionMatrix
from repro.serve.service import AnalysisService, MATRIX_FILE_SUFFIX

CONFIG = AnalysisConfig(seed=11, scale=0.02, elbow_k_max=6)


@pytest.fixture()
def service(tmp_path) -> AnalysisService:
    return AnalysisService(tmp_path / "cache")


@pytest.fixture()
def compile_counter(monkeypatch):
    """Count TransactionMatrix compiles (the packbits pass) in this process."""
    calls = []
    original = TransactionMatrix.__init__

    def counting(self, transactions):
        calls.append(len(transactions))
        return original(self, transactions)

    monkeypatch.setattr(TransactionMatrix, "__init__", counting)
    return calls


class TestSidecarLifecycle:
    def test_compute_persists_the_corpus_sidecar(self, service):
        service.get_or_run(CONFIG)
        prefix = service.matrix_path(CONFIG)
        assert prefix.name.endswith(MATRIX_FILE_SUFFIX)
        meta_path = prefix.with_name(prefix.name + ".meta.json")
        meta = json.loads(meta_path.read_text("utf-8"))
        assert meta["kind"] == "corpus"
        assert len(meta["regions"]) >= 2
        # One arena for the whole corpus: exactly one rows file, not per-region.
        rows_files = list(prefix.parent.glob("corpus-*.rows.npy"))
        assert len(rows_files) == 1

    def test_fresh_service_maps_instead_of_compiling(
        self, service, tmp_path, compile_counter
    ):
        service.get_or_run(CONFIG)
        compiles_after_first = len(compile_counter)
        assert compiles_after_first > 0  # the cold run compiled every region

        reloaded = AnalysisService(tmp_path / "cache")
        reloaded.invalidate(CONFIG, mining=True)  # force a real mining pass
        served = reloaded.get_or_run(CONFIG)
        assert served.source == "computed"
        assert len(compile_counter) == compiles_after_first  # zero new compiles

    def test_warm_mining_pass_reports_zero_compiles(self, service, tmp_path):
        service.get_or_run(CONFIG)
        warm = AnalysisService(tmp_path / "cache")
        warm.invalidate(CONFIG, mining=True)
        served = warm.get_or_run(CONFIG)
        assert served.source == "computed"
        assert warm.last_mining_report.compiles == 0
        assert served.results == service.get_or_run(CONFIG).results

    def test_corpus_change_invalidates_the_sidecar(
        self, service, tmp_path, compile_counter
    ):
        service.get_or_run(CONFIG)
        prefix = service.matrix_path(CONFIG)
        meta_path = prefix.with_name(prefix.name + ".meta.json")
        old_fingerprint = json.loads(meta_path.read_text("utf-8"))["fingerprint"]

        # Rewrite the corpus file with different bytes (semantically equal
        # JSON, so the pipeline still runs): the sidecar fingerprint is a
        # content digest, so it no longer matches.
        corpus_path = service.corpus_path(CONFIG)
        corpus_path.write_text(
            corpus_path.read_text(encoding="utf-8") + "\n \n", encoding="utf-8"
        )

        reloaded = AnalysisService(tmp_path / "cache")
        reloaded.invalidate(CONFIG, mining=True)
        compiles_before = len(compile_counter)
        reloaded.get_or_run(CONFIG)
        assert len(compile_counter) > compiles_before  # matrices recompiled
        new_fingerprint = json.loads(meta_path.read_text("utf-8"))["fingerprint"]
        assert new_fingerprint != old_fingerprint

    def test_corrupt_sidecar_rebuilt(self, service, tmp_path, compile_counter):
        service.get_or_run(CONFIG)
        prefix = service.matrix_path(CONFIG)
        victim = prefix.with_name(prefix.name + ".rows.npy")
        victim.write_bytes(b"garbage")

        reloaded = AnalysisService(tmp_path / "cache")
        reloaded.invalidate(CONFIG, mining=True)
        compiles_before = len(compile_counter)
        served = reloaded.get_or_run(CONFIG)
        assert served.source == "computed"
        assert len(compile_counter) > compiles_before
        # The rebuilt sidecar is loadable again.
        assert victim.stat().st_size > len(b"garbage")

    def test_last_mining_report_surfaces_in_stats(self, service):
        assert "mining" not in service.describe()  # nothing mined yet
        served = service.get_or_run(CONFIG)
        payload = service.describe()
        assert payload["mining"] == {
            "regions": len(served.results.mining_results),
            "matrix_compiles": 0,
        }
