"""The store's backend-fault handling: immediate retries, then degraded answers.

Every backend call :class:`~repro.serve.store.ArtifactStore` makes retries an
``OSError`` at once, up to ``BACKEND_ATTEMPTS`` tries, and then degrades
instead of raising.  The faults come from the scripted harness in
``tests/faults.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.config import AnalysisConfig
from repro.errors import ServeError
from repro.mining.shm import CorpusMatrix
from repro.serve.backends import DirectoryBackend, MemoryBackend
from repro.serve.backends.base import Lease
from repro.serve.classify import CuisineClassifier
from repro.serve import service as service_module
from repro.serve.service import ANALYSIS_KIND, AnalysisService
from repro.serve.store import BACKEND_ATTEMPTS, ArtifactStore
from tests.faults import FaultInjectingBackend

KEY = "a" * 8
CONFIG = AnalysisConfig(seed=5, scale=0.02)
DEAD = "any:*:oserror"


def faulty_store(plan: str, inner=None) -> tuple[ArtifactStore, FaultInjectingBackend]:
    """A default store over a fault-injecting backend (memory unless given)."""
    backend = FaultInjectingBackend(inner if inner is not None else MemoryBackend(), plan)
    return ArtifactStore(backend=backend, clock=lambda: 1000.0), backend


class TestStoreRetries:
    def test_read_fault_absorbed_by_retry(self):
        store, _backend = faulty_store("read:1:oserror")
        store.put("analysis", KEY, {"value": 1})
        assert store.get("analysis", KEY) == {"value": 1}
        assert store.stats.backend_retries == 1
        assert store.stats.backend_exhausted == 0
        assert store.stats.disk_hits == 1
        assert store.health() == "ok"

    def test_exhausted_read_degrades_to_miss(self):
        store, backend = faulty_store("read:*:oserror")
        store.put("analysis", KEY, {"value": 1})
        assert store.get("analysis", KEY) is None
        assert backend.calls("read") == BACKEND_ATTEMPTS == 3
        assert store.stats.backend_retries == 2
        assert store.stats.backend_exhausted == 1
        assert store.stats.misses == 1
        assert store.health() == "degraded"
        # The next call that reaches the backend clears the degraded state.
        assert store.exists("analysis", KEY)
        assert store.health() == "ok"

    def test_a_dropped_write_keeps_health_degraded_until_a_write_lands(self):
        store, _backend = faulty_store("write:1-3:oserror")
        assert store.put("analysis", KEY, {"value": 1}) is None
        assert store.health() == "degraded"
        # A read that succeeds does not vouch for writes.
        assert store.exists("analysis", KEY) is False
        assert store.health() == "degraded"
        store.put("analysis", KEY, {"value": 1})
        assert store.health() == "ok"
        assert store.stats.dropped_writes == 1

    def test_non_oserror_propagates_immediately(self):
        class ExplodingBackend(MemoryBackend):
            def read(self, kind, key):
                raise ValueError("programming bug")

        store = ArtifactStore(backend=ExplodingBackend())
        with pytest.raises(ValueError):
            store.get("analysis", KEY)
        assert store.stats.backend_retries == 0
        assert store.stats.backend_exhausted == 0
        assert store.health() == "ok"

    def test_serve_error_propagates_even_with_an_oserror_cause(self):
        class WrappingBackend(MemoryBackend):
            def exists(self, kind, key):
                self.tries = getattr(self, "tries", 0) + 1
                raise ServeError("backend failed") from OSError("disk")

        backend = WrappingBackend()
        store = ArtifactStore(backend=backend)
        with pytest.raises(ServeError):
            store.exists("analysis", KEY)
        assert backend.tries == 1
        # Validation errors are never retried either.
        with pytest.raises(ServeError):
            store.claim("analysis", KEY, "", 5.0)
        assert store.stats.backend_retries == 0

    def test_store_serves_through_faults(self):
        store, _backend = faulty_store("read:2:oserror;write:2:oserror")
        store.put("analysis", KEY, {"value": 1})
        assert store.get("analysis", KEY) == {"value": 1}
        store.put("analysis", "b" * 8, {"value": 2})  # faulted once, retried
        assert store.get("analysis", "b" * 8) == {"value": 2}  # faulted once
        assert store.stats.backend_retries == 2
        assert store.stats.writes == 2
        assert store.stats.dropped_writes == 0

    def test_counters_safe_under_concurrent_faults(self):
        store, backend = faulty_store("read:%2:oserror")
        store.put("analysis", KEY, {"value": 1})
        results: list[dict | None] = []

        def reader() -> None:
            for _ in range(25):
                results.append(store.get("analysis", KEY))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' counter updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every injected fault is either retried or ends an exhausted call,
        # and only exhausted reads come back empty: the books must balance.
        stats = store.stats
        assert len(backend.injected) == stats.backend_retries + stats.backend_exhausted
        assert results.count(None) == stats.backend_exhausted == stats.misses
        assert stats.disk_hits == 100 - stats.misses


class TestDegradedStore:
    """Every store call over a backend that fails every try (``any:*:oserror``)."""

    def test_get_is_a_counted_miss(self):
        store, _backend = faulty_store(DEAD)
        assert store.get("analysis", KEY) is None
        assert store.stats.misses == 1
        assert store.health() == "degraded"

    def test_put_is_dropped_and_counted(self):
        store, _backend = faulty_store(DEAD)
        assert store.put("analysis", KEY, {"value": 1}) is None
        assert store.stats.dropped_writes == 1
        assert store.stats.writes == 0
        assert store.stats.bytes_written == 0

    def test_exists_is_false(self):
        store, _backend = faulty_store(DEAD)
        assert store.exists("analysis", KEY) is False

    def test_claim_grants_a_counted_local_lease(self):
        store, _backend = faulty_store(DEAD)
        lease = store.claim("analysis", KEY, "owner-a", 30.0)
        assert lease == Lease("analysis", KEY, "owner-a", 1030.0)
        assert store.stats.lease_fallbacks == 1

    def test_every_call_degrades(self):
        store, backend = faulty_store(DEAD)
        assert store.keys("analysis") == []
        assert store.entries() == []
        assert store.delete("analysis", KEY) is False
        assert store.release("analysis", KEY, "owner-a") is False
        assert store.lease("analysis", KEY) is None
        assert store.renew("analysis", KEY, "owner-a", 30.0, now=5.0) == Lease(
            "analysis", KEY, "owner-a", 35.0
        )
        assert store.total_bytes() == 0
        assert store.stats.lease_fallbacks == 1
        assert store.stats.deletes == 0
        assert store.stats.backend_exhausted == 6
        # Every call tried exactly BACKEND_ATTEMPTS times.
        assert {op: backend.calls(op) for op in ("keys", "delete", "lease")} == {
            "keys": 3,
            "delete": 3,
            "lease": 3,
        }


class TestServiceOverAFailingBackend:
    def test_get_or_run_computes_on_a_dead_backend(self, tmp_path, monkeypatch):
        store, _backend = faulty_store(DEAD, MemoryBackend(root=tmp_path / "cache"))
        service = AnalysisService(store)

        def no_sleep(seconds: float) -> None:
            raise AssertionError(f"slept {seconds}s over a dead backend")

        monkeypatch.setattr(time, "sleep", no_sleep)
        for _ in range(2):
            served = service.get_or_run(CONFIG)
            assert served.source == "computed"
        assert store.stats.lease_fallbacks == 2
        assert store.stats.lease_claims == 2
        assert store.stats.dropped_writes >= 2
        assert store.health() == "degraded"

    def test_a_cache_dir_that_is_a_file_computes(self, tmp_path, monkeypatch):
        # Nothing can be written under a regular file: the corpus snapshot
        # and the CSR sidecar are dropped like every artifact write, and no
        # file is hashed.
        root = tmp_path / "cache"
        root.write_text("not a directory", encoding="utf-8")
        hashed = []
        monkeypatch.setattr(
            service_module, "corpus_fingerprint", lambda path: hashed.append(path)
        )
        service = AnalysisService(root)
        served = service.get_or_run(CONFIG)
        assert served.source == "computed"
        # The analysis, the mining run, its family index, the corpus and
        # the CSR sidecar.
        assert service.store.stats.dropped_writes == 5
        assert service.store.health() == "degraded"
        assert hashed == []
        assert service.get_or_run(CONFIG).results == served.results

    def test_a_failed_csr_sidecar_save_is_a_dropped_write(self, tmp_path, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError("no space left for the sidecar")

        monkeypatch.setattr(CorpusMatrix, "save", full_disk)
        service = AnalysisService(tmp_path / "cache")
        health_at_drop = []
        record = service.store.record_dropped_write

        def recording():
            record()
            health_at_drop.append(service.store.health())

        monkeypatch.setattr(service.store, "record_dropped_write", recording)
        served = service.get_or_run(CONFIG)
        assert served.source == "computed"
        assert service.store.stats.dropped_writes == 1
        assert health_at_drop == ["degraded"]
        # The mining run and the analysis land after the sidecar, but an
        # artifact write does not vouch for the files beside the backend: a
        # cache that takes JSON but not .npy files stays degraded.
        assert service.store.health() == "degraded"
        assert service.store.exists(ANALYSIS_KIND, served.key)
        assert AnalysisService(tmp_path / "cache").get_or_run(CONFIG).source == "disk"

    def test_a_landed_sidecar_save_clears_a_dropped_one(self, tmp_path, monkeypatch):
        save = CorpusMatrix.save

        def full_disk(*args, **kwargs):
            raise OSError("no space left for the sidecar")

        monkeypatch.setattr(CorpusMatrix, "save", full_disk)
        service = AnalysisService(tmp_path / "cache")
        served = service.get_or_run(CONFIG)
        assert service.store.health() == "degraded"
        # Room again: the classifier sidecar lands, and health recovers.
        monkeypatch.setattr(CorpusMatrix, "save", save)
        service.classifier_for(CONFIG, results=served.results)
        assert service.store.stats.dropped_writes == 1
        assert service.store.health() == "ok"

    def test_a_failed_classifier_sidecar_save_is_a_dropped_write(
        self, tmp_path, monkeypatch
    ):
        def full_disk(*args, **kwargs):
            raise OSError("no space left for the sidecar")

        monkeypatch.setattr(CuisineClassifier, "save", full_disk)
        service = AnalysisService(tmp_path / "cache")
        served = service.get_or_run(CONFIG)
        assert served.source == "computed"
        classifier = service.classifier_for(CONFIG)
        assert classifier.classify(["soy sauce", "mirin"]).best
        assert service.store.stats.classifier_compiles == 1
        assert service.store.stats.dropped_writes == 1
        assert service.store.health() == "degraded"
        assert service.store.exists(ANALYSIS_KIND, served.key)
        assert AnalysisService(tmp_path / "cache").get_or_run(CONFIG).source == "disk"

    def test_periodic_read_faults_are_served_from_disk(self, tmp_path):
        root = tmp_path / "cache"
        AnalysisService(root).get_or_run(CONFIG)  # warm through a clean store
        store, backend = faulty_store("read:%2:oserror", DirectoryBackend(root))
        service = AnalysisService(store, max_memory_entries=0)
        first = service.get_or_run(CONFIG)  # read 1
        second = service.get_or_run(CONFIG)  # read 2 faults, read 3 answers
        assert (first.source, second.source) == ("disk", "disk")
        assert second.results == first.results
        assert backend.calls("read") == 3
        assert store.stats.backend_retries == 1
        assert store.stats.backend_exhausted == 0
        assert store.health() == "ok"
        assert store.exists(ANALYSIS_KIND, first.key)
