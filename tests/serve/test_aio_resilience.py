"""Resilience acceptance tests for the async serving front door.

Proves the degraded-mode contract end to end: failed background refreshes
keep serving the prior artifact flagged ``stale``, a dead storage backend
serves ``/analyze`` by recompute while ``/healthz`` reports ``degraded``, a
compute failure streak reports ``failing``, compute deadlines turn hung
flights into 503s instead of wedged clients, and unexpected server errors
come back as JSON 500s with an error id.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core.config import AnalysisConfig
from repro.errors import DeadlineError
from repro.serve import codec
from repro.serve.aio import AnalysisServer, AsyncAnalysisService
from repro.serve.backends import MemoryBackend
from repro.serve.service import ANALYSIS_KIND, AnalysisService, ServedAnalysis
from repro.serve.store import ArtifactStore
from tests.faults import FaultInjectingBackend

CONFIG = AnalysisConfig(seed=5, scale=0.02)


def run(coro):
    return asyncio.run(coro)


async def request(host, port, method, path, payload=None):
    """One one-shot HTTP exchange; returns (status, decoded JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    return int(head_part.split()[1]), json.loads(body_part)


class FlakyService:
    """Duck-typed AnalysisService with scriptable compute/refresh failures."""

    def __init__(self, backend=None):
        self.store = ArtifactStore(
            backend=backend if backend is not None else MemoryBackend()
        )
        self.computes = 0
        self.refreshes = 0
        self.fail_computes = 0  # how many upcoming computes raise
        self.fail_refreshes = 0  # how many upcoming refreshes raise
        self.compute_gate: threading.Event | None = None
        self.version = "v1"
        self._lock = threading.Lock()

    def get_or_run(self, config=None, *, database=None) -> ServedAnalysis:
        with self._lock:
            self.computes += 1
            source = "computed" if self.computes == 1 else "memory"
            if self.fail_computes:
                self.fail_computes -= 1
                raise OSError("injected compute failure")
        if self.compute_gate is not None:
            assert self.compute_gate.wait(10), "compute gate never released"
        return self._serve(source)

    def from_memory(self, key):
        return None  # no memory layer: every read takes a flight

    def refresh(self, config=None) -> ServedAnalysis:
        with self._lock:
            self.refreshes += 1
            if self.fail_refreshes:
                self.fail_refreshes -= 1
                raise OSError("injected refresh failure")
            self.version = f"v{self.refreshes + 1}"
        self.seed_artifact(config)
        return self._serve("computed")

    def stats(self):
        return self.store.stats.to_dict()

    def describe(self):
        return {"counters": self.stats()}

    def _serve(self, source: str) -> ServedAnalysis:
        return ServedAnalysis(
            results=("results", self.version),
            source=source,
            key=codec.analysis_key(CONFIG),
            elapsed_seconds=0.0,
        )

    def seed_artifact(self, config=None) -> str:
        key = codec.analysis_key(config if config is not None else CONFIG)
        self.store.put(ANALYSIS_KIND, key, {"version": self.version})
        return key


def dead_backend(root=None) -> FaultInjectingBackend:
    """A backend whose every call raises ``OSError``."""
    return FaultInjectingBackend(MemoryBackend(root=root), "any:*:oserror")


class TestServeStaleOnRefreshFailure:
    def test_failed_refresh_keeps_old_artifact_and_flags_stale(self, tmp_path):
        service = FlakyService()

        async def scenario():
            async with AsyncAnalysisService(service, refresh_policy="ttl:1") as svc:
                first = await svc.get(CONFIG)
                assert first.source == "computed" and first.stale is False
                service.seed_artifact(CONFIG)

                service.fail_refreshes = 1
                refreshed = await svc.refresh_once(now=time.time() + 1000)
                assert refreshed == []
                assert svc.refresh_errors == 1

                # The prior artifact keeps serving, marked stale.
                second = await svc.get(CONFIG)
                assert second.source == "memory"
                assert second.stale is True
                assert second.results == ("results", "v1")
                assert svc.stale_served == 1
                assert svc.health()["status"] == "degraded"

                # A successful refresh clears the flag.
                recovered = await svc.refresh_once(now=time.time() + 1000)
                assert recovered
                third = await svc.get(CONFIG)
                assert third.stale is False
                assert svc.health()["status"] == "ok"

        run(scenario())

    def test_stale_flag_round_trips_to_dict(self, tmp_path):
        service = FlakyService()

        async def scenario():
            async with AsyncAnalysisService(service, refresh_policy="ttl:1") as svc:
                await svc.get(CONFIG)
                service.seed_artifact(CONFIG)
                service.fail_refreshes = 1
                await svc.refresh_once(now=time.time() + 1000)
                return await svc.get(CONFIG)

        served = run(scenario())
        assert served.to_dict()["stale"] is True


class TestHealth:
    def test_healthz_reports_degraded_when_the_backend_fails(self):
        service = FlakyService(backend=dead_backend())
        assert service.store.get(ANALYSIS_KIND, "a" * 8) is None  # every try failed

        async def scenario():
            async_service = AsyncAnalysisService(service)
            server = AnalysisServer(async_service)
            try:
                host, port = await server.start()
                return await request(host, port, "GET", "/healthz")
            finally:
                await server.aclose()

        status, payload = run(scenario())
        assert status == 200  # always answerable; the body carries the state
        assert payload["status"] == "degraded"
        assert payload["backend"] == "degraded"

    def test_compute_failure_streak_escalates_to_failing(self):
        service = FlakyService()

        async def scenario():
            async with AsyncAnalysisService(service, failing_threshold=3) as svc:
                service.fail_computes = 3
                for _ in range(3):
                    with pytest.raises(OSError):
                        await svc.get(CONFIG)
                    await asyncio.sleep(0)  # let the flight's landing run
                assert svc.health()["status"] == "failing"
                assert svc.health()["failure_streak"] == 3
                assert svc.compute_failures == 3

                # One success resets the streak and the status.
                served = await svc.get(CONFIG)
                await asyncio.sleep(0)
                assert served.results == ("results", "v1")
                assert svc.health()["status"] == "ok"
                assert svc.compute_failures == 3  # cumulative counter stays

        run(scenario())

    def test_describe_includes_health_payload(self):
        service = FlakyService()

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                return svc.describe()

        payload = run(scenario())
        assert payload["health"]["status"] == "ok"
        assert "deadline_timeouts" in payload["health"]

    def test_sync_describe_reports_resilience_and_faults(self, tmp_path):
        backend = FaultInjectingBackend(MemoryBackend(), "read:1:oserror")
        service = AnalysisService(ArtifactStore(backend=backend))
        assert service.store.get(ANALYSIS_KIND, "a" * 8) is None  # retried once
        payload = service.describe()
        assert payload["counters"]["backend_retries"] == 1
        assert payload["counters"]["backend_exhausted"] == 0
        # The store's own counters report the fault it absorbed; the wrapper
        # sections ("resilience", "fault_injection") are gone.
        assert "resilience" not in payload and "fault_injection" not in payload


class TestDeadBackend:
    def test_analyze_is_served_by_recompute_and_health_degrades(self, tmp_path):
        store = ArtifactStore(backend=dead_backend(tmp_path / "cache"))

        async def scenario():
            async_service = AsyncAnalysisService(AnalysisService(store))
            server = AnalysisServer(async_service)
            try:
                host, port = await server.start()
                analyze = await request(
                    host, port, "POST", "/analyze", {"config": {"seed": 5, "scale": 0.02}}
                )
                health = await request(host, port, "GET", "/healthz")
                return analyze, health
            finally:
                await server.aclose()

        (status, payload), (health_status, health) = run(scenario())
        assert status == 200
        assert payload["served"]["source"] == "computed"
        assert payload["summary"]["n_regions"] == 26
        assert health_status == 200
        assert health["backend"] == "degraded"
        assert health["status"] == "degraded"
        assert health["compute_failures"] == 0
        assert store.stats.dropped_writes >= 1
        assert store.stats.request_errors == 0


    def test_a_cache_dir_that_is_a_file_serves_by_recompute(self, tmp_path):
        root = tmp_path / "cache"
        root.write_text("not a directory", encoding="utf-8")
        service = AnalysisService(root)

        async def scenario():
            server = AnalysisServer(AsyncAnalysisService(service))
            try:
                host, port = await server.start()
                analyze = await request(
                    host, port, "POST", "/analyze", {"config": {"seed": 5, "scale": 0.02}}
                )
                health = await request(host, port, "GET", "/healthz")
                return analyze, health
            finally:
                await server.aclose()

        (status, payload), (health_status, health) = run(scenario())
        assert status == 200
        assert payload["served"]["source"] == "computed"
        assert health_status == 200
        assert health["backend"] == "degraded"
        # The analysis, the mining run, its family index, the corpus and
        # the CSR sidecar.
        assert service.store.stats.dropped_writes == 5
        assert service.store.stats.request_errors == 0


class TestComputeDeadline:
    def test_deadline_raises_instead_of_wedging(self):
        service = FlakyService()
        service.compute_gate = threading.Event()

        async def scenario():
            svc = AsyncAnalysisService(service, compute_deadline=0.05)
            try:
                with pytest.raises(DeadlineError):
                    await svc.get(CONFIG)
                assert svc.deadline_timeouts == 1
                # The flight is still running; releasing it lets the same
                # compute finish and serve the next caller.
                service.compute_gate.set()
                served = await svc.get(CONFIG)
                assert served.results == ("results", "v1")
            finally:
                service.compute_gate.set()
                await svc.aclose()

        run(scenario())
        assert service.computes == 1  # the deadlined flight was joined, not redone

    def test_deadline_maps_to_http_503(self):
        service = FlakyService()
        service.compute_gate = threading.Event()

        async def scenario():
            async_service = AsyncAnalysisService(service, compute_deadline=0.05)
            server = AnalysisServer(async_service)
            try:
                host, port = await server.start()
                return await request(
                    host, port, "POST", "/analyze", {"config": {"seed": 5, "scale": 0.02}}
                )
            finally:
                service.compute_gate.set()
                await server.aclose()

        status, payload = run(scenario())
        assert status == 503
        assert payload["retry"] is True
        assert "deadline" in payload["error"]


class TestInternalErrorSurface:
    def test_unexpected_error_is_json_500_with_error_id(self):
        service = FlakyService()

        def explode(config=None, *, database=None):
            raise RuntimeError("wires crossed")

        service.get_or_run = explode

        async def scenario():
            async_service = AsyncAnalysisService(service)
            server = AnalysisServer(async_service)
            try:
                host, port = await server.start()
                first = await request(
                    host, port, "POST", "/analyze", {"config": {"seed": 5}}
                )
                second = await request(
                    host, port, "POST", "/analyze", {"config": {"seed": 6}}
                )
                return first, second
            finally:
                await server.aclose()

        (status1, payload1), (status2, payload2) = run(scenario())
        assert status1 == status2 == 500
        assert "wires crossed" in payload1["error"]
        assert payload1["error_id"] == "e000001"
        assert payload2["error_id"] == "e000002"  # ids are distinct and ordered
        assert service.store.stats.request_errors == 2

    def test_request_errors_counter_in_stats_payload(self):
        assert "request_errors" in FlakyService().stats()
