"""Async front-end tests: coalescing, cancellation safety, background refresh.

The concurrency semantics (single flight per key, shielded flights, refresh
serves old until new is ready) run against a lightweight stub service so the
timing-sensitive interleavings are controlled by explicit gates; one
end-to-end test drives the real :class:`AnalysisService` to prove the
acceptance property: 16 simultaneous cold requests perform exactly one
compute and every awaiter receives equal results.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.config import AnalysisConfig, DEFAULT_CONFIG
from repro.errors import ServeError
from repro.serve import codec
from repro.serve.aio import AsyncAnalysisService, AsyncQueryEngine
from repro.serve.backends import MemoryBackend
from repro.serve.queries import QueryEngine
from repro.serve.service import ANALYSIS_KIND, AnalysisService, ServedAnalysis
from repro.serve.store import ArtifactStore

CONFIG = AnalysisConfig(seed=5, scale=0.02)
OTHER_CONFIG = AnalysisConfig(seed=6, scale=0.02)


def run(coro):
    """Drive one async test body (no pytest-asyncio dependency)."""
    return asyncio.run(coro)


class StubService:
    """Duck-typed AnalysisService: countable, gateable computes over a real store.

    ``get_or_run`` and ``refresh`` produce :class:`ServedAnalysis` objects
    whose ``results`` payload is ``(tag, version)`` -- enough to assert
    identity/equality without paying for a real pipeline run.
    """

    def __init__(self, tmp_path, *, delay: float = 0.0):
        self.store = ArtifactStore(backend=MemoryBackend(root=tmp_path / "cache"))
        self.delay = delay
        self.compute_gate: threading.Event | None = None
        self.refresh_gate: threading.Event | None = None
        self.computes = 0
        self.refreshes = 0
        self.version = "old"
        self._lock = threading.Lock()

    # -- AnalysisService surface used by the front-end --------------------------------

    def get_or_run(self, config=None, *, database=None) -> ServedAnalysis:
        with self._lock:
            self.computes += 1
        if self.compute_gate is not None:
            assert self.compute_gate.wait(10), "compute gate never released"
        if self.delay:
            time.sleep(self.delay)
        return self._serve("computed")

    def from_memory(self, key):
        return None  # no memory layer: every read takes a flight

    def refresh(self, config=None) -> ServedAnalysis:
        with self._lock:
            self.refreshes += 1
        if self.refresh_gate is not None:
            assert self.refresh_gate.wait(10), "refresh gate never released"
        self.version = "new"
        key = codec.analysis_key(config if config is not None else DEFAULT_CONFIG)
        self.store.put(ANALYSIS_KIND, key, {"version": self.version})
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

    def seed_artifact(self, config) -> str:
        """Persist a (stub) analysis artifact so the refresher sees a stamp."""
        key = codec.analysis_key(config)
        self.store.put(ANALYSIS_KIND, key, {"version": self.version})
        return key


class TestCoalescing:
    def test_sixteen_concurrent_cold_requests_one_compute(self, tmp_path):
        service = StubService(tmp_path, delay=0.05)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                return await asyncio.gather(*(svc.get(CONFIG) for _ in range(16)))

        served = run(scenario())
        assert service.computes == 1
        assert len(served) == 16
        # Everyone got the same flight's results.
        assert all(s.results is served[0].results for s in served)
        assert sum(s.coalesced for s in served) == 15
        assert service.store.stats.coalesced_hits == 15

    def test_distinct_configs_fly_separately(self, tmp_path):
        service = StubService(tmp_path, delay=0.02)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                return await asyncio.gather(svc.get(CONFIG), svc.get(OTHER_CONFIG))

        run(scenario())
        assert service.computes == 2
        assert service.store.stats.coalesced_hits == 0

    def test_sequential_requests_do_not_coalesce(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                first = await svc.get(CONFIG)
                second = await svc.get(CONFIG)
                return first, second

        first, second = run(scenario())
        assert service.computes == 2  # the stub has no cache; two flights ran
        assert not first.coalesced and not second.coalesced
        assert service.store.stats.coalesced_hits == 0

    def test_inflight_gauge_tracks_flights(self, tmp_path):
        service = StubService(tmp_path)
        service.compute_gate = threading.Event()

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                waiter = asyncio.ensure_future(svc.get(CONFIG))
                await asyncio.sleep(0.05)
                inflight_during = svc.inflight
                assert svc.stats()["inflight"] == 1
                service.compute_gate.set()
                await waiter
                return inflight_during, svc.inflight

        during, after = run(scenario())
        assert during == 1
        assert after == 0

    def test_closed_service_rejects_reads(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            svc = AsyncAnalysisService(service)
            await svc.aclose()
            with pytest.raises(ServeError):
                await svc.get(CONFIG)

        run(scenario())


class TestCancellation:
    def test_cancelled_waiter_does_not_cancel_shared_flight(self, tmp_path):
        service = StubService(tmp_path)
        service.compute_gate = threading.Event()

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                first = asyncio.ensure_future(svc.get(CONFIG))
                await asyncio.sleep(0.05)  # let the flight take off
                second = asyncio.ensure_future(svc.get(CONFIG))
                await asyncio.sleep(0.05)  # let the second waiter join it
                second.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await second
                service.compute_gate.set()
                return await first

        served = run(scenario())
        assert served.results == ("results", "old")
        assert service.computes == 1  # one flight, despite the cancelled joiner
        assert service.store.stats.coalesced_hits == 1

    def test_flight_survives_all_waiters_cancelled(self, tmp_path):
        service = StubService(tmp_path)
        service.compute_gate = threading.Event()

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                only = asyncio.ensure_future(svc.get(CONFIG))
                await asyncio.sleep(0.05)
                only.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await only
                assert svc.inflight == 1  # the compute itself is still running
                service.compute_gate.set()
                for _ in range(100):
                    if svc.inflight == 0:
                        break
                    await asyncio.sleep(0.02)
                return svc.inflight

        assert run(scenario()) == 0
        assert service.computes == 1


class TestBackgroundRefresh:
    def test_refresh_serves_old_until_new_is_ready(self, tmp_path):
        service = StubService(tmp_path)
        service.refresh_gate = threading.Event()

        async def scenario():
            async with AsyncAnalysisService(service, refresh_policy="ttl:0.0001") as svc:
                key = service.seed_artifact(CONFIG)
                await svc.get(CONFIG)  # make the config known to the refresher
                service.computes = 0
                await asyncio.sleep(0.01)  # let the seeded artifact age past the TTL
                sweep = asyncio.ensure_future(svc.refresh_once())
                await asyncio.sleep(0.05)  # refresh is now blocked on its gate
                assert svc.refreshing == 1
                old = await svc.get(CONFIG)
                assert old.results == ("results", "old")  # old keeps serving
                service.refresh_gate.set()
                refreshed = await sweep
                assert refreshed == [key]
                new = await svc.get(CONFIG)
                return new

        new = run(scenario())
        assert new.results == ("results", "new")
        assert service.refreshes == 1
        assert service.store.stats.background_refreshes == 1

    def test_fresh_artifact_is_not_refreshed(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            async with AsyncAnalysisService(service, refresh_policy="ttl:3600") as svc:
                service.seed_artifact(CONFIG)
                await svc.get(CONFIG)
                return await svc.refresh_once()

        assert run(scenario()) == []
        assert service.refreshes == 0
        assert service.store.stats.background_refreshes == 0

    def test_refresh_lead_rewarms_before_expiry(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            svc = AsyncAnalysisService(
                service, refresh_policy="ttl:3600", refresh_lead=7200
            )
            async with svc:
                service.seed_artifact(CONFIG)
                await svc.get(CONFIG)
                # The artifact is far from expiring, but the lead window
                # (policy evaluated at now + lead) re-warms it early.
                return await svc.refresh_once()

        assert len(run(scenario())) == 1
        assert service.store.stats.background_refreshes == 1

    def test_refresh_skips_keys_with_a_flight_inflight(self, tmp_path):
        service = StubService(tmp_path)
        service.compute_gate = threading.Event()

        async def scenario():
            async with AsyncAnalysisService(service, refresh_policy="ttl:0.0001") as svc:
                service.seed_artifact(CONFIG)
                svc._known[codec.analysis_key(CONFIG)] = CONFIG
                waiter = asyncio.ensure_future(svc.get(CONFIG))
                await asyncio.sleep(0.05)
                refreshed = await svc.refresh_once()
                service.compute_gate.set()
                await waiter
                return refreshed

        assert run(scenario()) == []
        assert service.refreshes == 0

    def test_refresher_task_sweeps_periodically(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            svc = AsyncAnalysisService(
                service, refresh_policy="ttl:0.0001", refresh_interval=0.02
            )
            async with svc:  # __aenter__ starts the refresher task
                service.seed_artifact(CONFIG)
                await svc.get(CONFIG)
                for _ in range(100):
                    if service.store.stats.background_refreshes:
                        break
                    await asyncio.sleep(0.02)
                return service.store.stats.background_refreshes

        assert run(scenario()) >= 1

    def test_no_policy_means_no_refresher(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                service.seed_artifact(CONFIG)
                await svc.get(CONFIG)
                assert await svc.refresh_once() == []
                return svc._refresher

        assert run(scenario()) is None
        assert service.refreshes == 0

    def test_refresh_failure_is_counted_not_raised(self, tmp_path):
        service = StubService(tmp_path)

        def failing_refresh(config=None):
            raise ServeError("backend went away")

        service.refresh = failing_refresh

        async def scenario():
            async with AsyncAnalysisService(service, refresh_policy="ttl:0.0001") as svc:
                service.seed_artifact(CONFIG)
                await svc.get(CONFIG)
                await asyncio.sleep(0.01)
                return await svc.refresh_once(), svc.refresh_errors

        refreshed, errors = run(scenario())
        assert refreshed == []
        assert errors == 1
        assert service.store.stats.background_refreshes == 0


class TestValidation:
    def test_bad_parameters_are_rejected(self, tmp_path):
        service = StubService(tmp_path)
        with pytest.raises(ServeError):
            AsyncAnalysisService(service, max_threads=0)
        with pytest.raises(ServeError):
            AsyncAnalysisService(service, refresh_interval=0)
        with pytest.raises(ServeError):
            AsyncAnalysisService(service, refresh_lead=-1)

    def test_refresh_policy_spec_string_round_trips(self, tmp_path):
        service = StubService(tmp_path)
        svc = AsyncAnalysisService(service, refresh_policy="ttl:600")
        assert svc.refresh_policy.describe() == "ttl:600"
        assert svc.describe()["refresh"] == "ttl:600"

    def test_describe_includes_gauges(self, tmp_path):
        service = StubService(tmp_path)
        svc = AsyncAnalysisService(service)
        payload = svc.describe()
        assert payload["refresh"] == "none"
        assert payload["inflight"] == 0
        assert payload["refreshing"] == 0


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A real cache warmed once for the end-to-end tests."""
    cache = tmp_path_factory.mktemp("aio") / "cache"
    AnalysisService(cache).get_or_run(CONFIG)
    return cache


class TestRealService:
    def test_sixteen_cold_requests_one_real_compute_equal_results(self, tmp_path):
        service = AnalysisService(tmp_path / "cache")
        computes = []
        original = AnalysisService._compute

        def counting_compute(self, config):
            computes.append(codec.analysis_key(config))
            return original(self, config)

        AnalysisService._compute = counting_compute
        try:

            async def scenario():
                async with AsyncAnalysisService(service) as svc:
                    return await asyncio.gather(
                        *(svc.get(CONFIG) for _ in range(16))
                    )

            served = run(scenario())
        finally:
            AnalysisService._compute = original
        assert len(computes) == 1
        assert all(s.results == served[0].results for s in served)
        assert sum(s.coalesced for s in served) == 15

    def test_warm_cache_serves_without_compute(self, warm_cache):
        service = AnalysisService(warm_cache)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                return await svc.get(CONFIG)

        served = run(scenario())
        assert served.source in ("memory", "disk")
        assert not served.coalesced

    def test_async_warm_coalesces_duplicate_configs(self, tmp_path):
        service = AnalysisService(tmp_path / "cache")

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                return await svc.warm([CONFIG, CONFIG, CONFIG])

        served = run(scenario())
        assert len(served) == 3
        assert sum(s.coalesced for s in served) == 2

    def test_async_query_engine_matches_sync_reads(self, warm_cache):
        service = AnalysisService(warm_cache)
        sync_engine = QueryEngine(service.get_or_run(CONFIG).results)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                engine = AsyncQueryEngine(svc, CONFIG)
                nearest = await engine.nearest_cuisines("Japanese", k=3)
                hits = await engine.top_patterns("Japanese", k=2)
                profile = await engine.cuisine_profile("Japanese", k=2)
                labels = await engine.classify([["soy sauce", "rice"]])
                return nearest, hits, profile, labels

        nearest, hits, profile, labels = run(scenario())
        assert nearest == sync_engine.nearest_cuisines("Japanese", k=3)
        assert [h.to_dict() for h in hits] == [
            h.to_dict() for h in sync_engine.top_patterns("Japanese", k=2)
        ]
        assert profile["cuisine"] == "Japanese"
        assert len(labels) == 1 and labels[0].best in sync_engine.regions()

    def test_query_engine_rebuilds_after_refresh_swap(self, warm_cache, tmp_path):
        service = AnalysisService(warm_cache)

        async def scenario():
            async with AsyncAnalysisService(service) as svc:
                engine = AsyncQueryEngine(svc, CONFIG)
                first = await engine.engine()
                await svc._run_blocking(service.refresh, CONFIG)
                second = await engine.engine()
                return first is not second

        assert run(scenario())


class TestReviewHardening:
    """Regression tests for the review findings on the async layer."""

    def test_known_configs_are_bounded_by_max_tracked(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            async with AsyncAnalysisService(service, max_tracked=3) as svc:
                for seed in range(8):
                    await svc.get(AnalysisConfig(seed=seed, scale=0.02))
                return dict(svc._known)

        known = run(scenario())
        assert len(known) == 3
        # Most recently served survive (seeds 5, 6, 7).
        kept = {config.seed for config in known.values()}
        assert kept == {5, 6, 7}

    def test_non_ttl_refresh_policy_is_rejected(self, tmp_path):
        service = StubService(tmp_path)
        for spec in ("lru:4", "maxbytes:1024", "ttl:600+lru:4"):
            with pytest.raises(ServeError):
                AsyncAnalysisService(service, refresh_policy=spec)

    def test_refresh_policy_none_spec_disables_refresh(self, tmp_path):
        service = StubService(tmp_path)
        svc = AsyncAnalysisService(service, refresh_policy="none")
        assert svc.refresh_policy is None

    def test_composite_ttl_refresh_policy_is_accepted(self, tmp_path):
        service = StubService(tmp_path)
        svc = AsyncAnalysisService(service, refresh_policy="ttl:600+ttl:60")
        assert svc.refresh_policy.describe() == "ttl:600+ttl:60"

    def test_refresher_survives_unexpected_sweep_failure(self, tmp_path):
        service = StubService(tmp_path)

        async def scenario():
            svc = AsyncAnalysisService(
                service, refresh_policy="ttl:0.0001", refresh_interval=0.02
            )
            boom = {"left": 2}

            original = svc.refresh_once

            async def flaky(**kwargs):
                if boom["left"]:
                    boom["left"] -= 1
                    raise RuntimeError("not a ReproError")
                return await original(**kwargs)

            svc.refresh_once = flaky
            async with svc:
                service.seed_artifact(CONFIG)
                await svc.get(CONFIG)
                for _ in range(150):
                    if service.store.stats.background_refreshes:
                        break
                    await asyncio.sleep(0.02)
                return svc.refresh_errors, service.store.stats.background_refreshes

        errors, refreshes = run(scenario())
        assert errors == 2  # both failures counted, loop survived
        assert refreshes >= 1  # and later sweeps still refreshed
