"""Retries, deadlines and circuit breaking for the storage layer.

The storage engine (:mod:`repro.serve.store`) assumes its backend either
answers or is absent; a real deployment also sees *transient* failures -- a
momentarily full disk, NFS hiccups -- and *sustained*
ones (a dead volume).  :class:`ResilientBackend` wraps any
:class:`~repro.serve.backends.base.StorageBackend` with the standard serving
discipline for both:

* **bounded retries with exponential backoff + deterministic jitter**
  (:class:`RetryPolicy`) absorb transient faults: a read that fails once and
  succeeds on retry is invisible to the store;
* **per-op deadlines**: the retry loop never schedules a backoff sleep that
  would push one operation past ``RetryPolicy.deadline`` seconds, so a
  flapping backend bounds each store call instead of stalling it;
* a **circuit breaker** (:class:`CircuitBreaker`) trips after a configurable
  budget of consecutive failures.  While open, the backend runs in
  **degraded mode**: reads report a miss (the service falls through to
  recompute), existence probes report absent, scans report empty, and writes
  are *dropped but counted* -- serving availability is preserved at the cost
  of cache effectiveness, which is the right trade for a cache.  After
  ``reset_timeout`` the breaker goes half-open and lets one probe through;
  success closes it, failure re-opens it.

Transient means :class:`OSError` (and subclasses), ``sqlite3.OperationalError``
(a locked database, which the fault harness's ``locked`` action injects) and
:class:`~repro.errors.ServeError` caused by either.  Anything else --
validation errors, programming bugs -- propagates immediately and is never
retried.

Everything is injectable (clock, sleep) and the jitter is a pure function of
the attempt number, so every retry schedule is reproducible in tests and
under the fault-injection harness (:mod:`repro.serve.faults`).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from repro.errors import ServeError
from repro.serve.backends.base import BackendEntry, Lease, StorageBackend

__all__ = [
    "TRANSIENT_ERRORS",
    "is_transient",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilienceStats",
    "ResilientBackend",
]

T = TypeVar("T")

#: Exception types retried as transient infrastructure faults.
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    OSError,
    sqlite3.OperationalError,
)


def is_transient(error: BaseException) -> bool:
    """Whether *error* looks like a transient infrastructure fault.

    Covers the raw transient types plus :class:`ServeError` wrappers whose
    cause is one (a backend that re-raises an I/O error as ``ServeError``
    with the original attached).
    """
    if isinstance(error, TRANSIENT_ERRORS):
        return True
    return isinstance(error, ServeError) and isinstance(
        error.__cause__, TRANSIENT_ERRORS
    )


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries: exponential backoff, deterministic jitter, a deadline.

    ``max_attempts`` counts *total* tries (1 = no retries).  The delay before
    retry *n* (1-based) is ``base_delay * 2**(n-1)`` capped at ``max_delay``,
    scaled by a deterministic jitter factor in ``[0.5, 1.0)`` derived from
    the attempt number alone -- reproducible, but still decorrelated enough
    that a herd of clients does not retry in lockstep forever.  ``deadline``
    bounds one logical operation: no backoff sleep is scheduled that would
    push the op past ``deadline`` seconds from its first attempt (``None``
    means unbounded).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServeError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ServeError("retry delays must be non-negative")
        if self.deadline is not None and self.deadline <= 0:
            raise ServeError("deadline must be positive (or None)")

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before retry *attempt* (1-based), jitter included."""
        raw = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        # Weyl-sequence jitter: pure in the attempt number, so schedules are
        # reproducible run to run (no PYTHONHASHSEED, no RNG state).
        fraction = (attempt * 0.6180339887498949) % 1.0
        return raw * (0.5 + 0.5 * fraction)

    def describe(self) -> str:
        deadline = f", deadline {self.deadline:g}s" if self.deadline else ""
        return (
            f"retry x{self.max_attempts} "
            f"(backoff {self.base_delay:g}s..{self.max_delay:g}s{deadline})"
        )


class CircuitBreaker:
    """Three-state breaker over consecutive failures (thread-safe).

    ``closed`` -- normal operation; ``failure_threshold`` *consecutive*
    failures trip it.  ``open`` -- calls are refused (:meth:`allow` is
    ``False``) until ``reset_timeout`` seconds pass.  ``half-open`` -- one
    probe call is allowed through; success closes the breaker, failure
    re-opens it for another full timeout.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if failure_threshold < 1:
            raise ServeError("failure_threshold must be at least 1")
        if reset_timeout <= 0:
            raise ServeError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"`` (open auto-advances)."""
        with self._lock:
            self._advance()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def _advance(self) -> None:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = "half-open"
            self._probing = False

    def allow(self) -> bool:
        """Whether the protected call may proceed right now.

        In the half-open state exactly one caller is admitted as the probe;
        concurrent callers are refused until that probe settles.
        """
        with self._lock:
            self._advance()
            if self._state == "closed":
                return True
            if self._state == "half-open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._advance()
            self._consecutive_failures += 1
            self._probing = False
            if self._state == "half-open":
                self._state = "open"
                self._opened_at = self._clock()
                self.trips += 1
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self.trips += 1

    def describe(self) -> str:
        return (
            f"breaker {self.state} "
            f"(budget {self.failure_threshold}, reset {self.reset_timeout:g}s)"
        )


@dataclass
class ResilienceStats:
    """Counters of everything the resilience layer absorbed or refused."""

    retries: int = 0  # backoff retries performed
    transient_errors: int = 0  # transient faults observed (incl. retried ones)
    exhausted: int = 0  # ops that used every attempt and still failed
    fallthrough_reads: int = 0  # reads degraded to a miss (recompute path)
    dropped_writes: int = 0  # writes dropped-but-counted (breaker open / exhausted)
    shed_ops: int = 0  # ops refused outright by the open breaker
    deadline_exceeded: int = 0  # ops whose retry budget hit the deadline
    lease_fallbacks: int = 0  # claims/renews granted locally (coordination down)

    def to_dict(self) -> dict[str, int]:
        return {
            "retries": self.retries,
            "transient_errors": self.transient_errors,
            "exhausted": self.exhausted,
            "fallthrough_reads": self.fallthrough_reads,
            "dropped_writes": self.dropped_writes,
            "shed_ops": self.shed_ops,
            "deadline_exceeded": self.deadline_exceeded,
            "lease_fallbacks": self.lease_fallbacks,
        }


class ResilientBackend(StorageBackend):
    """Retry + deadline + circuit-breaker wrapper around any storage backend.

    Degraded-mode semantics (breaker open, or retries exhausted):

    ========== =====================================================
    operation  degraded behaviour
    ========== =====================================================
    read       ``None`` (a miss -- the service recomputes)
    exists     ``False``
    keys       ``[]``
    entries    empty
    write      dropped, counted in ``stats.dropped_writes``
    delete     ``False``
    claim      granted *locally* (optimistic lease, counted in
               ``stats.lease_fallbacks``) -- with coordination down every
               process computes for itself, i.e. pre-lease behaviour;
               availability beats single-compute when the two conflict
    renew      extended locally (same fallback, same counter)
    release    ``False``
    lease      ``None``
    ========== =====================================================

    Non-transient errors (validation, programming bugs) always propagate
    unchanged.  The wrapper reports the inner backend's ``name``/``root`` so
    stores and services behave identically; ``health()`` summarises the
    breaker + error state as ``"ok"`` or ``"degraded"`` for ``/healthz``.
    """

    def __init__(
        self,
        inner: StorageBackend,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.inner = inner
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._sleep = sleep
        self._clock = clock
        self.stats = ResilienceStats()
        self._stats_lock = threading.Lock()

    # -- identity ---------------------------------------------------------------------

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def root(self) -> Path | None:  # type: ignore[override]
        return self.inner.root

    def describe(self) -> str:
        return (
            f"resilient[{self.retry.describe()}, {self.breaker.describe()}] "
            f"over {self.inner.describe()}"
        )

    def __getattr__(self, attribute: str):
        # Backend extras (path_for, quarantined, ...) pass straight through.
        return getattr(self.inner, attribute)

    def health(self) -> str:
        """``"ok"`` when the breaker is closed and no failure streak is live.

        ``"degraded"`` otherwise: the store still serves (reads fall through
        to recompute) but durability/caching is impaired.  Escalation to
        ``"failing"`` happens at the serving layer, which also knows whether
        recomputes themselves succeed.
        """
        if self.breaker.state != "closed" or self.breaker.consecutive_failures > 0:
            return "degraded"
        return "ok"

    def describe_resilience(self) -> dict[str, object]:
        """JSON-ready snapshot: health, breaker state, retry policy, counters."""
        return {
            "health": self.health(),
            "breaker": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "consecutive_failures": self.breaker.consecutive_failures,
            "retry": self.retry.describe(),
            "counters": self.stats.to_dict(),
        }

    # -- the retry core ---------------------------------------------------------------

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + amount)

    def _guarded(
        self,
        op: str,
        call: Callable[[], T],
        degraded: Callable[[], T],
        *,
        is_read: bool = False,
        is_write: bool = False,
    ) -> T:
        """Run *call* under the breaker + retry policy; degrade, never wedge.

        The deadline bounds the *retry schedule*: a backoff sleep that would
        land past ``retry.deadline`` seconds from the first attempt is not
        taken and the op degrades instead.  (A single in-flight backend call
        is synchronous I/O and cannot be preempted; the bound is on how long
        the layer keeps trying, which is what an unbounded await chain on the
        serving side actually hangs on.)
        """
        if not self.breaker.allow():
            self._count("shed_ops")
            if is_write:
                self._count("dropped_writes")
            if is_read:
                self._count("fallthrough_reads")
            return degraded()
        started = self._clock()
        error: BaseException | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                outcome = call()
            except BaseException as exc:  # noqa: BLE001 - classified below
                if not is_transient(exc):
                    # Not an infrastructure fault: the breaker stays out of
                    # it and the caller sees the original error.
                    raise
                error = exc
                self._count("transient_errors")
                if attempt == self.retry.max_attempts:
                    break
                delay = self.retry.backoff(attempt)
                if (
                    self.retry.deadline is not None
                    and (self._clock() - started) + delay > self.retry.deadline
                ):
                    self._count("deadline_exceeded")
                    break
                self._count("retries")
                self._sleep(delay)
            else:
                self.breaker.record_success()
                return outcome
        self.breaker.record_failure()
        self._count("exhausted")
        if is_write:
            self._count("dropped_writes")
        if is_read:
            self._count("fallthrough_reads")
        assert error is not None
        return degraded()

    # -- the backend surface ----------------------------------------------------------

    def read(self, kind: str, key: str) -> str | None:
        return self._guarded(
            "read",
            lambda: self.inner.read(kind, key),
            lambda: None,
            is_read=True,
        )

    def write(self, kind: str, key: str, text: str) -> None:
        self._guarded(
            "write",
            lambda: self.inner.write(kind, key, text),
            lambda: None,
            is_write=True,
        )

    def delete(self, kind: str, key: str) -> bool:
        return self._guarded(
            "delete", lambda: self.inner.delete(kind, key), lambda: False
        )

    def exists(self, kind: str, key: str) -> bool:
        return self._guarded(
            "exists", lambda: self.inner.exists(kind, key), lambda: False
        )

    def keys(self, kind: str) -> list[str]:
        return self._guarded("keys", lambda: self.inner.keys(kind), lambda: [])

    def entries(self) -> Iterator[BackendEntry]:
        # Materialized so a retry restarts the scan instead of resuming a
        # half-consumed iterator over a failing backend.
        listed = self._guarded(
            "entries", lambda: list(self.inner.entries()), lambda: []
        )
        return iter(listed)

    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        def degraded() -> Lease | None:
            # Coordination is down: grant an optimistic local lease so the
            # caller computes instead of waiting on an unreachable claim row.
            # Every process degrades the same way, so the fleet falls back to
            # pre-lease duplicate computes -- availability over coordination.
            self._count("lease_fallbacks")
            start = self._clock() if now is None else now
            return Lease(kind, key, owner, start + ttl)

        return self._guarded(
            "claim", lambda: self.inner.claim(kind, key, owner, ttl, now=now), degraded
        )

    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        def degraded() -> Lease | None:
            self._count("lease_fallbacks")
            start = self._clock() if now is None else now
            return Lease(kind, key, owner, start + ttl)

        return self._guarded(
            "renew", lambda: self.inner.renew(kind, key, owner, ttl, now=now), degraded
        )

    def release(self, kind: str, key: str, owner: str) -> bool:
        return self._guarded(
            "release", lambda: self.inner.release(kind, key, owner), lambda: False
        )

    def lease(
        self, kind: str, key: str, *, now: float | None = None
    ) -> Lease | None:
        return self._guarded(
            "lease", lambda: self.inner.lease(kind, key, now=now), lambda: None
        )

    def quarantine(self, kind: str, key: str) -> None:
        # Best-effort by contract; a quarantine that fails transiently is
        # simply skipped (the slot stays corrupt and the next read retries).
        try:
            self.inner.quarantine(kind, key)
        except BaseException as exc:  # noqa: BLE001 - classified below
            if not is_transient(exc):
                raise
            self._count("transient_errors")

    def total_bytes(self) -> int:
        return self._guarded(
            "total_bytes", lambda: self.inner.total_bytes(), lambda: 0
        )

    def close(self) -> None:
        self.inner.close()
