"""Asyncio serving front-end: coalesced, non-blocking reads over the service.

:class:`~repro.serve.service.AnalysisService` is synchronous: every caller
blocks for the full compute on a cold config, and N concurrent requests for
the same cold config perform N identical computes.  This module puts an
event-loop front door in front of it:

:class:`AsyncAnalysisService`
    ``await get(config)`` answers a memory hit on the event loop
    (:meth:`AnalysisService.from_memory`: a dict lookup and one store
    existence probe, no executor hop).  Everything else takes
    **single-flight request coalescing** -- the first request for a key
    memory does not hold starts a disk read or a compute on a thread-pool
    executor (the event loop never blocks on decoding or mining), and every
    concurrent request for the same key *joins* that flight instead of
    starting another.  All waiters receive the same results; joiners are
    marked ``coalesced`` and counted in ``StoreStats.coalesced_hits``.
    Waiter cancellation is safe: the shared flight is shielded, so one
    impatient client never cancels the compute out from under the others.

    A **background refresher** re-warms stale artifacts before they expire:
    staleness is expressed with the same policy specs the store's disk eviction
    uses (``"ttl:600"``, see :mod:`repro.serve.eviction`), and refreshes go
    through :meth:`AnalysisService.refresh` -- compute-then-swap, so the old
    artifact keeps serving reads until the new one is ready.

:class:`AsyncQueryEngine`
    The query/classify read path (:class:`~repro.serve.queries.QueryEngine`
    + :class:`~repro.serve.classify.CuisineClassifier`) behind ``await``,
    bound to one config and rebuilt automatically when a refresh swaps the
    underlying results.  Over a memory hit its ops run inline on the loop.

:class:`AnalysisServer`
    A minimal HTTP/1.1 JSON loop on :func:`asyncio.start_server` (stdlib
    only, no web framework): ``GET /healthz``, ``GET /stats``,
    ``POST /analyze``, ``POST /query``, ``POST /classify``.  The CLI's
    ``serve`` subcommand wires it to the standard store/eviction/lease
    flags; see ``docs/serving.md`` for the wire format.  A warm request
    never suspends, so each connection yields to the loop once per request.

What runs on the executor: computes, disk reads and their decodes,
:meth:`AnalysisService.classifier_for`, ``/stats`` and the refresher.

Quick start::

    async def main():
        async with AsyncAnalysisService("cache-dir", refresh_policy="ttl:600") as svc:
            served = await svc.get(AnalysisConfig(scale=0.02))
            engine = AsyncQueryEngine(svc, AnalysisConfig(scale=0.02))
            nearest = await engine.nearest_cuisines("Japanese", k=3)
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.core.config import AnalysisConfig, DEFAULT_CONFIG
from repro.errors import DeadlineError, ReproError, ServeError
from repro.serve import codec
from repro.serve.backends.base import BackendEntry
from repro.serve.classify import Classification, CuisineClassifier
from repro.serve.eviction import (
    TTL,
    CompositePolicy,
    EntryInfo,
    EvictionPolicy,
    parse_policy,
)
from repro.serve.queries import PatternHit, QueryEngine
from repro.serve.service import ANALYSIS_KIND, AnalysisService, ServedAnalysis

__all__ = [
    "AsyncAnalysisService",
    "AsyncQueryEngine",
    "AnalysisServer",
    "DEFAULT_REFRESH_INTERVAL",
]

DEFAULT_REFRESH_INTERVAL = 30.0
DEFAULT_MAX_TRACKED = 64

#: Consecutive failed computes before ``health()`` escalates to "failing".
DEFAULT_FAILING_THRESHOLD = 3


def _validate_refresh_policy(policy: EvictionPolicy | None) -> EvictionPolicy | None:
    """Only TTL terms make sense as a *staleness* policy; reject the rest.

    Count/byte bounds (``lru:N``, ``maxbytes:N``) always nominate victims
    once the tracked set exceeds the bound, and refreshing a victim renews
    its stamp without shrinking the set -- the refresher would recompute a
    rotating slice of the cache every sweep, forever, achieving nothing.
    (The ``none`` spec parses to no policy: never stale.)
    """
    if policy is None or isinstance(policy, TTL):
        return policy
    if isinstance(policy, CompositePolicy) and all(
        isinstance(member, TTL) for member in policy.policies
    ):
        return policy
    raise ServeError(
        f"refresh_policy must use only ttl terms (got {policy.describe()!r}): "
        "count/byte bounds cannot express staleness"
    )


class AsyncAnalysisService:
    """Single-flight async facade over one :class:`AnalysisService`.

    Parameters
    ----------
    service:
        The synchronous service to front (or a cache directory / ``None``,
        which constructs one exactly like ``AnalysisService(...)``).
    max_threads:
        Size of the thread-pool executor computes run on.  Distinct configs
        compute concurrently up to this bound; requests for the *same*
        config always coalesce into one flight regardless.
    refresh_policy:
        Staleness policy for the background refresher, as a policy object or
        a ``--disk-eviction``-style spec string (``"ttl:600"``).  An artifact the
        policy would evict is considered stale and re-warmed in place.
        ``None`` (default) disables background refresh.
    refresh_interval:
        Seconds between refresher sweeps once :meth:`start` has run.
    refresh_lead:
        Head start in seconds: the refresher evaluates the policy at
        ``now + refresh_lead``, so artifacts are re-warmed *before* a
        same-spec disk eviction policy would expire them.
    max_tracked:
        How many distinct configs the front-end remembers for the refresher
        (least recently served forgotten first).  Bounds both memory and the
        recurring refresh bill when clients probe many one-off configs.
    compute_deadline:
        Seconds a waiter is willing to block on one executor flight.  A
        flight that runs longer raises :class:`~repro.errors.DeadlineError`
        to its waiters (a hung backend or runaway compute never wedges the
        request surface); the executor thread itself keeps running and its
        artifact still lands in the cache.  ``None`` (default) = unbounded.
    failing_threshold:
        Consecutive *failed* computes after which :meth:`health` escalates
        from ``degraded`` to ``failing`` (one success resets the streak).
    """

    def __init__(
        self,
        service: AnalysisService | Path | str | None = None,
        *,
        max_threads: int = 4,
        refresh_policy: EvictionPolicy | str | None = None,
        refresh_interval: float = DEFAULT_REFRESH_INTERVAL,
        refresh_lead: float = 0.0,
        max_tracked: int = DEFAULT_MAX_TRACKED,
        compute_deadline: float | None = None,
        failing_threshold: int = DEFAULT_FAILING_THRESHOLD,
    ) -> None:
        if service is None or isinstance(service, (str, Path)):
            service = AnalysisService(service)
        self.service = service
        if max_threads < 1:
            raise ServeError("max_threads must be at least 1")
        if max_tracked < 1:
            raise ServeError("max_tracked must be at least 1")
        if isinstance(refresh_policy, str):
            refresh_policy = parse_policy(refresh_policy)
        self.refresh_policy = _validate_refresh_policy(refresh_policy)
        self.max_tracked = max_tracked
        if refresh_interval <= 0:
            raise ServeError("refresh_interval must be positive")
        if refresh_lead < 0:
            raise ServeError("refresh_lead must be non-negative")
        self.refresh_interval = float(refresh_interval)
        self.refresh_lead = float(refresh_lead)
        if compute_deadline is not None and compute_deadline <= 0:
            raise ServeError("compute_deadline must be positive (or None)")
        if failing_threshold < 1:
            raise ServeError("failing_threshold must be at least 1")
        self.compute_deadline = compute_deadline
        self.failing_threshold = failing_threshold
        self.refresh_errors = 0
        self.compute_failures = 0
        self.deadline_timeouts = 0
        self.stale_served = 0
        self._failure_streak = 0
        self._stale: set[str] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=max_threads, thread_name_prefix="repro-serve"
        )
        self._flights: dict[str, asyncio.Task[ServedAnalysis]] = {}
        self._refreshing: dict[str, asyncio.Task[ServedAnalysis]] = {}
        self._known: dict[str, AnalysisConfig] = {}
        self._refresher: asyncio.Task[None] | None = None
        self._closed = False

    # -- read path --------------------------------------------------------------------

    async def get(self, config: AnalysisConfig | None = None) -> ServedAnalysis:
        """Serve *config*: from memory inline, else through a coalesced flight.

        A memory hit is answered on the event loop.  Otherwise the first
        caller for a key starts the flight (``get_or_run`` on the executor:
        a disk read or a compute); concurrent callers for the same key await
        that flight and receive the same results with ``coalesced=True``.
        The flight is shielded from waiter cancellation -- cancelling one
        ``await`` leaves the compute running for everyone else, and its
        result still lands in the cache.

        With *compute_deadline* set, a waiter blocks at most that many
        seconds before :class:`~repro.errors.DeadlineError`; answers whose
        last background refresh failed come back flagged ``stale=True``
        (serve-stale-on-error -- see :meth:`refresh_once`).
        """
        if self._closed:
            raise ServeError("the async service is closed")
        config = config if config is not None else DEFAULT_CONFIG
        key = codec.analysis_key(config)
        self._remember_config(key, config)
        served = self.service.from_memory(key)
        if served is not None:
            return self._mark_stale(key, served)
        flight = self._flights.get(key)
        if flight is not None and not flight.done():
            # Join the in-flight compute or disk read: same results.  (A
            # *finished* flight whose done-callback has not run yet is not
            # joined -- its artifact is already cached, so a fresh flight is
            # a cheap warm read and the coalesced flag stays honest.)
            self.service.store.stats.coalesced_hits += 1
            served = await self._await_flight(key, flight)
            return self._mark_stale(key, replace(served, coalesced=True))
        loop = asyncio.get_running_loop()
        flight = loop.create_task(
            self._run_blocking(self.service.get_or_run, config)
        )
        self._flights[key] = flight
        flight.add_done_callback(lambda task, key=key: self._land(key, task))
        return self._mark_stale(key, await self._await_flight(key, flight))

    async def _await_flight(
        self, key: str, flight: asyncio.Task[ServedAnalysis]
    ) -> ServedAnalysis:
        """Await one shielded flight, bounded by the compute deadline."""
        shielded = asyncio.shield(flight)
        if self.compute_deadline is None:
            return await shielded
        try:
            return await asyncio.wait_for(shielded, self.compute_deadline)
        except asyncio.TimeoutError:
            self.deadline_timeouts += 1
            raise DeadlineError(
                f"compute exceeded the {self.compute_deadline:g}s deadline for "
                f"analysis {key[:12]} (the flight keeps running; its artifact "
                "will land in the cache)"
            ) from None

    def _mark_stale(self, key: str, served: ServedAnalysis) -> ServedAnalysis:
        """Flag cache-served answers whose last refresh failed; clear on compute."""
        if served.source == "computed":
            self._stale.discard(key)
            return served
        if key in self._stale:
            self.stale_served += 1
            return replace(served, stale=True)
        return served

    async def warm(
        self, configs: Iterable[AnalysisConfig] | AnalysisConfig
    ) -> list[ServedAnalysis]:
        """Precompute (or touch) many configs concurrently, coalesced per key."""
        if isinstance(configs, AnalysisConfig):
            configs = [configs]
        return list(await asyncio.gather(*(self.get(config) for config in configs)))

    async def _run_blocking(self, fn, *args: Any) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _remember_config(self, key: str, config: AnalysisConfig) -> None:
        """Track *config* for the refresher, bounded by ``max_tracked`` (LRU)."""
        self._known.pop(key, None)
        self._known[key] = config  # re-insertion keeps dict order = recency
        while len(self._known) > self.max_tracked:
            self._known.pop(next(iter(self._known)))

    def _land(self, key: str, task: asyncio.Task[ServedAnalysis]) -> None:
        if self._flights.get(key) is task:
            del self._flights[key]
        if not task.cancelled():
            # Consume the exception even when every waiter was cancelled, so
            # an orphaned failed flight never logs "exception never retrieved".
            if task.exception() is not None:
                self.compute_failures += 1
                self._failure_streak += 1
            else:
                self._failure_streak = 0

    @property
    def inflight(self) -> int:
        """How many coalesced computes are running right now (a gauge)."""
        return len(self._flights)

    @property
    def refreshing(self) -> int:
        """How many background refreshes are running right now (a gauge)."""
        return len(self._refreshing)

    def stats(self) -> dict[str, int]:
        """Store traffic counters plus the live ``inflight``/``refreshing`` gauges."""
        payload = self.service.stats()
        payload["inflight"] = self.inflight
        payload["refreshing"] = self.refreshing
        return payload

    def describe(self) -> dict[str, object]:
        """The ``serve-stats`` payload extended with the async front-end state."""
        payload = self.service.describe()
        payload["refresh"] = (
            self.refresh_policy.describe() if self.refresh_policy else "none"
        )
        payload["refresh_interval"] = self.refresh_interval
        payload["refresh_errors"] = self.refresh_errors
        payload["inflight"] = self.inflight
        payload["refreshing"] = self.refreshing
        payload["health"] = self.health()
        return payload

    def health(self) -> dict[str, object]:
        """Aggregate health: ``ok`` | ``degraded`` | ``failing``.

        ``failing`` means ``failing_threshold`` consecutive computes have
        failed -- new work is not succeeding.  ``degraded`` means the
        service still answers but below full fidelity: the store's last
        backend call failed every try (reads fall through to recompute,
        writes are dropped), some artifacts are serving stale after failed
        refreshes, or a compute failure streak is building.  One successful
        compute resets the streak to ``ok``.
        """
        backend_health = self.service.store.health()
        if self._failure_streak >= self.failing_threshold:
            status = "failing"
        elif backend_health != "ok" or self._stale or self._failure_streak:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "backend": backend_health,
            "stale_keys": len(self._stale),
            "stale_served": self.stale_served,
            "compute_failures": self.compute_failures,
            "failure_streak": self._failure_streak,
            "deadline_timeouts": self.deadline_timeouts,
            "refresh_errors": self.refresh_errors,
        }

    # -- background refresh -----------------------------------------------------------

    def start(self) -> None:
        """Start the periodic refresher task (no-op without a refresh policy)."""
        if self.refresh_policy is None or self._refresher is not None or self._closed:
            return
        loop = asyncio.get_running_loop()
        self._refresher = loop.create_task(self._refresh_loop())

    async def _refresh_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self.refresh_interval)
            try:
                await self.refresh_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - a sweep failure (backend
                # outage, policy edge case) must never silently kill the
                # refresher; it is counted and the next sweep retries.
                self.refresh_errors += 1

    async def refresh_once(self, *, now: float | None = None) -> list[str]:
        """One refresher sweep; returns the keys re-warmed.

        Every config this front-end has served is checked against the
        refresh policy using its *persisted artifact's* write stamp (the
        same signal TTL disk eviction uses).  Stale artifacts are recomputed
        concurrently on the executor via :meth:`AnalysisService.refresh` --
        readers keep getting the old artifact until each new one is swapped
        in.  Keys with a compute or refresh already in flight are skipped.
        """
        policy = self.refresh_policy
        if policy is None or not self._known or self._closed:
            return []
        now = time.time() if now is None else now
        # The backend scan stats every artifact; run it on the executor so a
        # large or slow store never stalls the event loop.
        stamps = await self._run_blocking(self._analysis_stamps)
        view = [
            (key, EntryInfo(stamps[key].size_bytes, stamps[key].stored_at))
            for key in self._known
            if key in stamps
        ]
        victims = [
            key
            for key in policy.victims(view, now + self.refresh_lead)
            if key not in self._flights and key not in self._refreshing
        ]
        if not victims:
            return []
        loop = asyncio.get_running_loop()
        tasks = []
        for key in victims:
            task = loop.create_task(self._refresh_flight(key, self._known[key]))
            self._refreshing[key] = task
            tasks.append(task)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        refreshed = []
        for key, outcome in zip(victims, outcomes):
            if isinstance(outcome, BaseException):
                self.refresh_errors += 1
                # Serve-stale-on-error: the old artifact keeps serving, but
                # answers carry stale=True until a refresh or compute lands.
                self._stale.add(key)
            else:
                self._stale.discard(key)
                refreshed.append(key)
        return refreshed

    def _analysis_stamps(self) -> dict[str, BackendEntry]:
        """Write stamps of every persisted analysis artifact (executor-side)."""
        return {
            entry.key: entry
            for entry in self.service.store.entries()
            if entry.kind == ANALYSIS_KIND
        }

    async def _refresh_flight(self, key: str, config: AnalysisConfig) -> ServedAnalysis:
        try:
            served = await self._run_blocking(self.service.refresh, config)
            self.service.store.stats.background_refreshes += 1
            return served
        finally:
            self._refreshing.pop(key, None)

    # -- lifecycle --------------------------------------------------------------------

    async def aclose(self) -> None:
        """Stop the refresher, drain in-flight work, and shut the executor down.

        In-flight computes are awaited (their threads cannot be interrupted
        anyway, and their results still land in the cache); new :meth:`get`
        calls fail immediately.
        """
        if self._closed:
            return
        self._closed = True
        if self._refresher is not None:
            self._refresher.cancel()
            try:
                await self._refresher
            except asyncio.CancelledError:
                pass
            self._refresher = None
        pending = list(self._flights.values()) + list(self._refreshing.values())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncAnalysisService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


class AsyncQueryEngine:
    """Async query/classify read path bound to one config.

    Every call first awaits the analysis for the bound config (a memory hit
    inline, else a coalesced flight), then runs the synchronous
    :class:`QueryEngine` / ``CuisineClassifier`` operation inline on the
    event loop: a lookup costs less than the executor hop it would take.
    Only the classifier itself is fetched on the executor, once per
    results object.  The engine and the classifier are cached per results
    object and rebuilt transparently when a background refresh swaps new
    results in.
    """

    def __init__(
        self, service: AsyncAnalysisService, config: AnalysisConfig | None = None
    ) -> None:
        self.service = service
        self.config = config if config is not None else DEFAULT_CONFIG
        self._results: object | None = None
        self._engine: QueryEngine | None = None
        self._classifier: CuisineClassifier | None = None

    async def engine(self) -> QueryEngine:
        """The sync query engine over the current (cached) results."""
        served = await self.service.get(self.config)
        if self._engine is None or served.results is not self._results:
            self._results = served.results
            self._engine = QueryEngine(served.results)
            self._classifier = None
        return self._engine

    async def nearest_cuisines(
        self, cuisine: str, *, k: int = 5, figure: str = "figure2"
    ) -> list[tuple[str, float]]:
        """The *k* nearest cuisines under one clustering view's metric."""
        engine = await self.engine()
        return engine.nearest_cuisines(cuisine, k=k, figure=figure)

    async def pattern_search(
        self,
        items: Iterable[str] | str,
        *,
        region: str | None = None,
        min_support: float = 0.0,
        limit: int | None = None,
    ) -> list[PatternHit]:
        """Patterns containing every requested item, best-supported first."""
        engine = await self.engine()
        return engine.pattern_search(
            items, region=region, min_support=min_support, limit=limit
        )

    async def top_patterns(self, region: str, *, k: int = 5) -> list[PatternHit]:
        """One cuisine's *k* strongest patterns."""
        engine = await self.engine()
        return engine.top_patterns(region, k=k)

    async def authenticity_profile(self, item: str) -> dict[str, float]:
        """One ingredient's signed authenticity across every cuisine."""
        engine = await self.engine()
        return engine.authenticity_profile(item)

    async def cuisine_profile(self, cuisine: str, *, k: int = 5) -> dict[str, object]:
        """The one-stop JSON summary card for a cuisine."""
        engine = await self.engine()
        return engine.cuisine_profile(cuisine, k=k)

    async def classify(
        self, recipes: Sequence[Sequence[str]], *, top_k: int | None = None
    ) -> list[Classification]:
        """Classify a batch of ingredient lists against the cached cuisines.

        ``top_k`` keeps only the k best cuisines per recipe (deterministic
        lexical tie-break); ``None`` returns the full per-cuisine scores.
        """
        engine = await self.engine()
        if self._classifier is None:
            # Through the sync service's classifier cache, on the executor: a
            # warm sidecar is memory-mapped (zero matrix builds); only a true
            # miss compiles, from the already-served results.
            self._classifier = await self.service._run_blocking(
                lambda: self.service.service.classifier_for(
                    self.config, results=engine.results
                )
            )
        return self._classifier.classify_batch(recipes, top_k=top_k)


# -- the HTTP/JSON front door ---------------------------------------------------------

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINES = 100
_MAX_BODY_BYTES = 4 * 1024 * 1024


class _HttpError(Exception):
    """An HTTP-level failure with the status code to report."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF/LF-terminated line; 400 when it is longer than we accept.

    ``StreamReader.readline`` raises ``ValueError`` once a line overruns the
    stream's own 64 KiB buffer limit, so that overrun is the same client
    error as a line over :data:`_MAX_REQUEST_LINE`.
    """
    try:
        line = await reader.readline()
    except ValueError:
        raise _HttpError(400, f"{what} too long") from None
    if len(line) > _MAX_REQUEST_LINE:
        raise _HttpError(400, f"{what} too long")
    return line


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class AnalysisServer:
    """Minimal asyncio HTTP/1.1 JSON server over one async service.

    Routes (all responses are JSON; errors are ``{"error": ...}``):

    * ``GET /healthz`` -- :meth:`AsyncAnalysisService.health` (``ok`` |
      ``degraded`` | ``failing``) plus the in-flight gauges, always 200 so
      probes can read the body;
    * ``GET /stats`` -- the full :meth:`AsyncAnalysisService.describe` payload;
    * ``POST /analyze`` -- ``{"config": {...}}`` serves (and caches) the
      analysis for the config, returning its provenance and summary;
    * ``POST /query`` -- ``{"config": {...}, "op": "nearest" | "patterns" |
      "top-patterns" | "authenticity" | "cuisine", ...}``;
    * ``POST /classify`` -- ``{"config": {...}, "recipes": [[...], ...]}``.

    ``config`` accepts any subset of :class:`AnalysisConfig` fields (missing
    fields take their defaults, unknown fields are a 400).  Connections are
    **persistent** (HTTP/1.1 keep-alive): Content-Length framing lets one
    socket carry a whole request sequence, ``Connection: close`` (or
    HTTP/1.0 without an opt-in) restores one-shot behaviour, and every error
    response closes the connection since framing may be lost.  The loop is
    stdlib-only by design -- the serving value lives in the coalescing layer
    underneath, not in HTTP plumbing.  *request_limit* stops the server
    after N requests (counted per request, not per connection), which is
    what the smoke tests and ``serve --max-requests`` use.
    """

    def __init__(
        self,
        service: AsyncAnalysisService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_limit: int | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.request_limit = request_limit
        self.requests_served = 0
        self._error_seq = 0
        self._server: asyncio.AbstractServer | None = None
        self._done = asyncio.Event()
        self._engines: dict[str, AsyncQueryEngine] = {}
        #: Each open connection's handler task and its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        if self._server is not None:
            raise ServeError("the server is already running")
        self.service.start()  # background refresher, if configured
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        if self.request_limit is not None and self.request_limit <= 0:
            self._done.set()
        return self.host, self.port

    async def serve_until_done(self) -> None:
        """Serve until the request limit is reached (or forever without one)."""
        if self._server is None:
            await self.start()
        await self._done.wait()

    async def aclose(self) -> None:
        """Stop accepting, close every connection, then close the async service.

        An idle keep-alive handler would wait for its next request forever
        (and ``wait_closed`` waits for it from Python 3.12 on), so each
        connection's transport is closed: its handler reads EOF and returns
        as at a client's close.  Cancelling the handlers instead would log
        their ``CancelledError``.  A request already being served runs to
        its end, and its answer is lost with the connection.
        """
        if self._server is not None:
            self._server.close()
            while self._connections:
                for writer in self._connections.values():
                    writer.close()
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self._done.set()
        await self.service.aclose()

    async def __aenter__(self) -> "AnalysisServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- connection handling ----------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection's request loop (HTTP/1.1 keep-alive).

        Content-Length framing lets many requests ride one socket; the loop
        runs until the client closes (EOF between requests), sends
        ``Connection: close``, speaks HTTP/1.0 without opting in, or the
        request limit lands.  Any error response closes the connection too:
        after a framing failure (oversized or malformed body) the byte stream
        is unsynchronized, and legacy one-shot clients read to EOF.
        """
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while self._server is not None and self._server.is_serving():
                status, payload = 200, {}
                keep_alive = False
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        break  # clean EOF between requests
                    method, path, body, keep_alive = request
                    payload = await self._dispatch(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                except DeadlineError as exc:
                    # The compute is still running and will land in the cache;
                    # the client should retry, so this is 503 rather than 400.
                    status, payload = 503, {"error": str(exc), "retry": True}
                except ReproError as exc:
                    status, payload = 400, {"error": str(exc)}
                except (asyncio.CancelledError, ConnectionError, asyncio.IncompleteReadError):
                    raise  # cancelled, or the client went away mid-request
                except Exception as exc:  # never let one request kill the loop
                    self._error_seq += 1
                    error_id = f"e{self._error_seq:06d}"
                    self.service.service.store.stats.request_errors += 1
                    status, payload = 500, {
                        "error": f"internal error: {exc}",
                        "error_id": error_id,
                    }
                self.requests_served += 1
                limit_hit = (
                    self.request_limit is not None
                    and self.requests_served >= self.request_limit
                )
                keep_alive = keep_alive and status < 400 and not limit_hit
                await self._write_response(writer, status, payload, keep_alive)
                if limit_hit:
                    self._done.set()
                if not keep_alive:
                    break
                # A warm request never suspends, so one pipelining client
                # would hold the loop; yield once per request.
                await asyncio.sleep(0)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            del self._connections[task]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, object], bool] | None:
        """One framed request: ``(method, path, body, keep_alive)``.

        ``None`` means the client closed the connection cleanly before
        sending another request -- the keep-alive loop's normal exit.  EOF
        later, inside the head or the body, raises
        :class:`asyncio.IncompleteReadError`: the client went away, and
        nothing is answered.

        Bodies are framed by ``Content-Length`` only.  Any
        ``Transfer-Encoding`` gets 501, since its body would otherwise be
        skipped and the request served as if it had none; two differing
        ``Content-Length`` values get 400 (RFC 9112 section 6.3); more than
        :data:`_MAX_HEADER_LINES` header lines get 431.
        """
        request_line = await _read_line(reader, "request line")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, version = parts
        # HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
        # Connection header overrides either way.
        keep_alive = version.upper() == "HTTP/1.1"
        content_length: int | None = None
        transfer_encoding = False
        header_lines = 0
        while True:
            line = await _read_line(reader, "header line")
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                # EOF inside the head: the client went away mid-request.
                raise asyncio.IncompleteReadError(b"", None)
            header_lines += 1
            if header_lines > _MAX_HEADER_LINES:
                raise _HttpError(431, "too many header lines")
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                # ASCII digits only: int() would also take "-1", "+5", "1_0"
                # and non-ASCII digits.
                digits = value.strip()
                if not (digits.isascii() and digits.isdigit()):
                    raise _HttpError(400, "bad Content-Length")
                # More significant digits than the cap has means too large
                # (and past 4300 digits int() itself would raise).
                if len(digits.lstrip("0")) > len(str(_MAX_BODY_BYTES)):
                    raise _HttpError(413, "request body too large")
                length = int(digits)
                if content_length not in (None, length):
                    raise _HttpError(400, "conflicting Content-Length headers")
                content_length = length
            elif name == "transfer-encoding":
                transfer_encoding = True
            elif name == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
        if transfer_encoding:
            raise _HttpError(
                501, "Transfer-Encoding is not supported; send Content-Length"
            )
        content_length = content_length or 0
        if content_length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body: dict[str, object] = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                parsed = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise _HttpError(400, f"request body is not valid JSON: {exc}") from exc
            if not isinstance(parsed, dict):
                raise _HttpError(400, "request body must be a JSON object")
            body = parsed
        return method.upper(), path.split("?", 1)[0], body, keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, object],
        keep_alive: bool = False,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: dict[str, object]
    ) -> dict[str, object]:
        if path == "/healthz":
            self._require(method, "GET", path)
            payload: dict[str, object] = dict(self.service.health())
            payload["inflight"] = self.service.inflight
            payload["refreshing"] = self.service.refreshing
            return payload
        if path == "/stats":
            self._require(method, "GET", path)
            # describe() lists every artifact kind and stats the store; keep
            # that I/O off the event loop.
            return await self.service._run_blocking(self.service.describe)
        if path == "/analyze":
            self._require(method, "POST", path)
            return await self._route_analyze(body)
        if path == "/query":
            self._require(method, "POST", path)
            return await self._route_query(body)
        if path == "/classify":
            self._require(method, "POST", path)
            return await self._route_classify(body)
        raise _HttpError(404, f"unknown route {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(405, f"{path} only accepts {expected}")

    def _config_from(self, body: Mapping[str, object]) -> AnalysisConfig:
        raw = body.get("config", {})
        if not isinstance(raw, Mapping):
            raise _HttpError(400, '"config" must be a JSON object')
        for field in ("distance_metrics", "validation_k_values"):
            if field in raw and not isinstance(raw[field], list):
                # from_dict would tuple()-explode a bare string into chars.
                raise _HttpError(400, f'"{field}" must be a JSON list')
        defaults = AnalysisConfig().to_dict()
        defaults.update(raw)
        try:
            return AnalysisConfig.from_dict(defaults)
        except ReproError:
            raise  # ConfigurationError et al. -> 400 via the outer handler
        except (TypeError, ValueError) as exc:
            # Wrong-typed values (e.g. {"scale": "0.1"}) fail inside the
            # config's validators with plain TypeErrors; that is client
            # input, not a server fault.
            raise _HttpError(400, f"invalid config value: {exc}") from exc

    def _engine_for(self, config: AnalysisConfig) -> AsyncQueryEngine:
        key = codec.analysis_key(config)
        engine = self._engines.get(key)
        if engine is None:
            engine = AsyncQueryEngine(self.service, config)
            self._engines[key] = engine
            while len(self._engines) > 8:
                self._engines.pop(next(iter(self._engines)))
        return engine

    async def _route_analyze(self, body: dict[str, object]) -> dict[str, object]:
        config = self._config_from(body)
        served = await self.service.get(config)
        return {"served": served.to_dict(), "summary": served.results.summary()}

    async def _route_query(self, body: dict[str, object]) -> dict[str, object]:
        config = self._config_from(body)
        engine = self._engine_for(config)
        op = body.get("op")
        if op == "nearest":
            cuisine = self._required_str(body, "cuisine")
            nearest = await engine.nearest_cuisines(
                cuisine,
                k=self._int(body, "k", 5),
                figure=str(body.get("figure", "figure2")),
            )
            return {
                "op": op,
                "nearest": [
                    {"cuisine": name, "distance": distance}
                    for name, distance in nearest
                ],
            }
        if op == "patterns":
            items = body.get("items")
            if not isinstance(items, list) or not items:
                raise _HttpError(400, '"items" must be a non-empty JSON list')
            hits = await engine.pattern_search(
                [str(item) for item in items], limit=self._int(body, "limit", 10)
            )
            return {"op": op, "patterns": [hit.to_dict() for hit in hits]}
        if op == "top-patterns":
            cuisine = self._required_str(body, "cuisine")
            hits = await engine.top_patterns(cuisine, k=self._int(body, "k", 5))
            return {"op": op, "patterns": [hit.to_dict() for hit in hits]}
        if op == "authenticity":
            item = self._required_str(body, "item")
            return {"op": op, "authenticity": await engine.authenticity_profile(item)}
        if op == "cuisine":
            cuisine = self._required_str(body, "cuisine")
            return {
                "op": op,
                "cuisine": await engine.cuisine_profile(
                    cuisine, k=self._int(body, "k", 5)
                ),
            }
        raise _HttpError(
            400,
            'unknown query op (expected "nearest", "patterns", "top-patterns", '
            '"authenticity" or "cuisine")',
        )

    async def _route_classify(self, body: dict[str, object]) -> dict[str, object]:
        config = self._config_from(body)
        engine = self._engine_for(config)
        raw = body.get("recipes")
        if not isinstance(raw, list) or not raw:
            raise _HttpError(400, '"recipes" must be a non-empty JSON list')
        recipes: list[list[str]] = []
        for entry in raw:
            if isinstance(entry, str):
                recipes.append([item.strip() for item in entry.split(",") if item.strip()])
            elif isinstance(entry, list):
                recipes.append([str(item) for item in entry])
            else:
                raise _HttpError(
                    400, "recipes must be ingredient lists or comma-separated strings"
                )
        top = self._int(body, "top", 3)
        # top-k is pushed into the classifier: only the k best cuisines are
        # ranked and materialised per recipe, which is the wire format too.
        classifications = await engine.classify(recipes, top_k=top)
        results = []
        for recipe, classification in zip(recipes, classifications):
            results.append(
                {
                    "recipe": recipe,
                    "best": classification.best,
                    "ranked": [
                        {"cuisine": name, "score": score}
                        for name, score in classification.ranked()
                    ],
                    "unknown_items": list(classification.unknown_items),
                }
            )
        return {"classifications": results}

    @staticmethod
    def _required_str(body: Mapping[str, object], field: str) -> str:
        value = body.get(field)
        if not isinstance(value, str) or not value:
            raise _HttpError(400, f'"{field}" must be a non-empty string')
        return value

    @staticmethod
    def _int(body: Mapping[str, object], field: str, default: int) -> int:
        """*field* as a JSON integer of at least 1, else a 400.

        Floats (``2.7``, and the ``inf`` that JSON's ``1e309`` parses to),
        booleans and numeric strings are rejected rather than coerced, as
        the config does for its own fields.
        """
        value = body.get(field, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise _HttpError(400, f'"{field}" must be an integer of at least 1')
        return value
