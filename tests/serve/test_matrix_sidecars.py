"""Service-level corpus-matrix sidecar lifecycle: persist, share, invalidate.

The acceptance contract: once a config has been computed, every later mining
pass over the same corpus -- in this process or any other -- packs its
regions from the single memory-mapped ``corpus-<key>.matrix`` CSR instead of
building the CSR from the corpus again.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import AnalysisConfig
from repro.mining.bitmatrix import TransactionMatrix
from repro.mining.shm import CorpusMatrix
from repro.serve.service import AnalysisService, MATRIX_FILE_SUFFIX

CONFIG = AnalysisConfig(seed=11, scale=0.02, elbow_k_max=6)


@pytest.fixture()
def service(tmp_path) -> AnalysisService:
    return AnalysisService(tmp_path / "cache")


@pytest.fixture()
def compile_counter(monkeypatch):
    """Count corpus CSR builds (``CorpusMatrix.from_transactions``) in this process."""
    calls = []
    original = CorpusMatrix.from_transactions.__func__

    def counting(cls, transactions):
        calls.append(len(transactions))
        return original(cls, transactions)

    monkeypatch.setattr(CorpusMatrix, "from_transactions", classmethod(counting))
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
        # One CSR for the whole corpus, and no dense arena beside it.
        assert len(list(prefix.parent.glob("corpus-*.tids.npy"))) == 1
        assert list(prefix.parent.glob("corpus-*.rows.npy")) == []

    def test_cold_compute_compiles_no_frozenset_matrix(self, service, monkeypatch):
        """Regions are packed from the CSR, never compiled from frozensets."""
        compiles = []
        original = TransactionMatrix.__init__

        def counting(self, transactions):
            compiles.append(len(transactions))
            return original(self, transactions)

        monkeypatch.setattr(TransactionMatrix, "__init__", counting)
        served = service.get_or_run(CONFIG)
        assert served.source == "computed"
        assert compiles == []

    def test_fresh_service_maps_instead_of_compiling(
        self, service, tmp_path, compile_counter
    ):
        service.get_or_run(CONFIG)
        compiles_after_first = len(compile_counter)
        assert compiles_after_first == 1  # the cold run built the CSR once

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
        assert len(compile_counter) > compiles_before  # the CSR was rebuilt
        new_fingerprint = json.loads(meta_path.read_text("utf-8"))["fingerprint"]
        assert new_fingerprint != old_fingerprint

    def test_corrupt_sidecar_rebuilt(self, service, tmp_path, compile_counter):
        service.get_or_run(CONFIG)
        prefix = service.matrix_path(CONFIG)
        victim = prefix.with_name(prefix.name + ".tids.npy")
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
