"""Unit tests for retries, the circuit breaker and degraded mode."""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.errors import ServeError
from repro.serve.backends import MemoryBackend
from repro.serve.faults import FaultInjectingBackend
from repro.serve.resilience import (
    CircuitBreaker,
    ResilientBackend,
    RetryPolicy,
    is_transient,
)
from repro.serve.store import ArtifactStore

KEY = "a" * 8


class FakeClock:
    """A manually-advanced clock so breaker timeouts need no real sleeping."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def resilient(
    plan: str,
    *,
    attempts: int = 3,
    threshold: int = 5,
    deadline: float | None = None,
    clock: FakeClock | None = None,
) -> tuple[ResilientBackend, list[float]]:
    """A ResilientBackend over a fault-injecting memory backend, sleeps recorded."""
    naps: list[float] = []
    clock = clock if clock is not None else FakeClock()
    backend = ResilientBackend(
        FaultInjectingBackend(MemoryBackend(), plan),
        retry=RetryPolicy(max_attempts=attempts, base_delay=0.05, deadline=deadline),
        breaker=CircuitBreaker(failure_threshold=threshold, reset_timeout=30.0, clock=clock),
        sleep=naps.append,
        clock=clock,
    )
    return backend, naps


class TestTransientClassification:
    def test_raw_transient_types(self):
        assert is_transient(OSError("disk"))
        assert is_transient(sqlite3.OperationalError("locked"))
        assert not is_transient(ValueError("nope"))

    def test_serve_error_with_transient_cause(self):
        wrapped = ServeError("backend failed")
        wrapped.__cause__ = OSError("disk")
        assert is_transient(wrapped)
        bare = ServeError("malformed key")
        assert not is_transient(bare)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=1.0)
        schedule = [policy.backoff(attempt) for attempt in range(1, 5)]
        assert schedule == [policy.backoff(attempt) for attempt in range(1, 5)]
        for attempt, delay in enumerate(schedule, start=1):
            raw = min(1.0, 0.05 * 2 ** (attempt - 1))
            assert raw * 0.5 <= delay < raw

    def test_validation(self):
        with pytest.raises(ServeError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServeError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ServeError):
            RetryPolicy(deadline=0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent callers wait for it
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2


class TestResilientBackend:
    def test_transient_read_fault_absorbed_by_retry(self):
        backend, naps = resilient("read:1:oserror")
        backend.write("analysis", KEY, "{}")
        assert backend.read("analysis", KEY) == "{}"
        assert backend.stats.retries == 1
        assert backend.stats.transient_errors == 1
        assert backend.stats.exhausted == 0
        assert len(naps) == 1
        assert backend.health() == "ok"

    def test_locked_database_fault_absorbed(self):
        backend, _naps = resilient("write:1:locked")
        backend.write("analysis", KEY, "{}")
        assert backend.read("analysis", KEY) == "{}"

    def test_exhausted_read_degrades_to_miss(self):
        backend, _naps = resilient("read:*:oserror", attempts=3)
        backend.write("analysis", KEY, "{}")
        assert backend.read("analysis", KEY) is None
        assert backend.stats.exhausted == 1
        assert backend.stats.fallthrough_reads == 1
        assert backend.stats.transient_errors == 3
        assert backend.health() == "degraded"

    def test_non_transient_errors_propagate_immediately(self):
        class ExplodingBackend(MemoryBackend):
            def read(self, kind, key):
                raise ValueError("programming bug")

        backend = ResilientBackend(ExplodingBackend(), sleep=lambda _s: None)
        with pytest.raises(ValueError):
            backend.read("analysis", KEY)
        assert backend.stats.retries == 0
        assert backend.breaker.consecutive_failures == 0

    def test_breaker_trips_after_failure_budget_and_sheds(self):
        backend, _naps = resilient("read:*:oserror", attempts=1, threshold=3)
        backend.write("analysis", KEY, "{}")
        for _ in range(3):
            assert backend.read("analysis", KEY) is None
        assert backend.breaker.state == "open"
        # The next read never reaches the inner backend: it is shed.
        inner = backend.inner
        before = inner.calls("read")
        assert backend.read("analysis", KEY) is None
        assert inner.calls("read") == before
        assert backend.stats.shed_ops == 1
        assert backend.health() == "degraded"

    def test_open_breaker_degraded_semantics(self):
        clock = FakeClock()
        backend, _naps = resilient("any:*:oserror", attempts=1, threshold=1, clock=clock)
        backend.read("analysis", KEY)  # trips the breaker
        assert backend.breaker.state == "open"
        backend.write("analysis", KEY, "{}")
        assert backend.stats.dropped_writes == 1
        assert backend.exists("analysis", KEY) is False
        assert backend.keys("analysis") == []
        assert list(backend.entries()) == []
        assert backend.delete("analysis", KEY) is False
        assert backend.total_bytes() == 0

    def test_breaker_recovers_through_half_open_probe(self):
        clock = FakeClock()
        backend, _naps = resilient("read:1-2:oserror", attempts=1, threshold=2, clock=clock)
        backend.write("analysis", KEY, "{}")
        backend.read("analysis", KEY)
        backend.read("analysis", KEY)
        assert backend.breaker.state == "open"
        clock.advance(30.0)
        # The half-open probe succeeds (the plan only faults reads 1-2) and
        # closes the breaker again.
        assert backend.read("analysis", KEY) == "{}"
        assert backend.breaker.state == "closed"
        assert backend.health() == "ok"

    def test_deadline_bounds_the_retry_schedule(self):
        clock = FakeClock()
        naps: list[float] = []

        def sleep(seconds: float) -> None:
            naps.append(seconds)
            clock.advance(seconds)

        backend = ResilientBackend(
            FaultInjectingBackend(MemoryBackend(), "read:*:oserror"),
            retry=RetryPolicy(
                max_attempts=10, base_delay=5.0, max_delay=5.0, deadline=6.0
            ),
            breaker=CircuitBreaker(clock=clock),
            sleep=sleep,
            clock=clock,
        )
        assert backend.read("analysis", KEY) is None
        assert backend.stats.deadline_exceeded == 1
        # the first backoff (~4s) fits the 6s deadline, the second would not
        assert len(naps) == 1

    def test_store_over_resilient_backend_serves_through_faults(self):
        backend, _naps = resilient("read:2:oserror;write:2:locked")
        store = ArtifactStore(backend=backend)
        store.put("analysis", KEY, {"value": 1})
        assert store.get("analysis", KEY) == {"value": 1}  # faulted then retried
        store.put("analysis", "b" * 8, {"value": 2})  # faulted write retried
        assert store.get("analysis", "b" * 8) == {"value": 2}
        assert backend.stats.retries == 2

    def test_describe_resilience_payload(self):
        backend, _naps = resilient("read:1:oserror")
        backend.write("analysis", KEY, "{}")
        backend.read("analysis", KEY)
        payload = backend.describe_resilience()
        assert payload["health"] == "ok"
        assert payload["breaker"] == "closed"
        assert payload["counters"]["retries"] == 1
        assert "retry x3" in payload["retry"]

    def test_identity_and_passthrough(self, any_backend):
        backend = ResilientBackend(any_backend)
        assert backend.name == any_backend.name
        assert backend.root == any_backend.root
        assert any_backend.describe() in backend.describe()

    def test_counters_safe_under_concurrent_faults(self):
        backend, _naps = resilient("read:%2:oserror", attempts=2, threshold=100)
        backend.write("analysis", KEY, "{}")
        results: list[str | None] = []

        def reader() -> None:
            for _ in range(25):
                results.append(backend.read("analysis", KEY))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every fault is either retried into a success or degraded to None;
        # the books must balance exactly.
        stats = backend.stats
        assert stats.transient_errors == stats.retries + stats.exhausted
        assert results.count(None) == stats.fallthrough_reads
