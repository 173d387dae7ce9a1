"""Memoizing analysis service: compute once, serve many cheap reads.

:class:`AnalysisService` wraps :class:`~repro.core.pipeline.CuisineClusteringPipeline`
with a three-level read path::

    get_or_run(config)
        1. decoded-analysis cache  (microseconds -- from_memory(key))
        2. disk artifact store     (milliseconds -- one JSON parse)
        3. recompute               (seconds -- the full eight-stage pipeline)

The decoded cache is the only memory layer for served analyses: it keeps at
most ``max_memory_entries`` decoded results (default 32), drops the oldest
insertion first, and counts its answers in ``memory_hits`` and its drops in
``evictions``.  The store itself keeps no payloads in memory.

Caching is stage-aware, and the compute path itself is staged:

* **corpus stage** -- the synthetic corpus depends only on ``(seed, scale)``;
  it is persisted through :mod:`repro.recipedb.io_json` next to the artifact
  store and kept in a small bounded memo with its file fingerprint, and its
  integer-id CSR (:class:`~repro.mining.shm.CorpusMatrix`) in another, so
  every ``min_support`` sweep entry reuses the same corpus *and* the same CSR;
* **mining stage** -- keyed by ``(seed, scale, min_support,
  max_pattern_length)``; a clustering-only config change reuses it outright.
  When only ``min_support`` *rises*, downward closure makes any cached run at
  a lower support a superset of the requested one, so the service filters
  that superset by the new support count instead of re-running the miner
  (the ``mining_incremental`` flag records this);
* **clustering + validation stages** -- always recomputed on an analysis
  miss (they are cheap relative to mining).

The mining stage mines the corpus CSR, the same one the pipeline mines: the
whole corpus's item ids live in ONE :class:`~repro.mining.shm.CorpusMatrix`,
persisted as a single memory-mappable ``corpus-<key>.matrix`` sidecar next to
the corpus snapshot and keyed by the corpus file's content fingerprint.  A
restarted service maps that sidecar and builds nothing; every pass packs
each region from the CSR and mines it, one region after another in sorted
order.

The corpus file and both sidecars share one load-or-build step
(:meth:`AnalysisService._load_or_build`); :mod:`repro.files` writes and
checks them.

The service records where every answer came from (``memory`` / ``disk`` /
``computed``) so callers, benchmarks and the CLI can report cache
effectiveness.
"""

from __future__ import annotations

import os
import secrets
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, TypeVar

from repro.core.config import AnalysisConfig, DEFAULT_CONFIG
from repro.core.pipeline import CuisineClusteringPipeline
from repro.core.results import AnalysisResults
from repro.errors import (
    DeadlineError,
    PipelineError,
    SerializationError,
    ServeError,
    SidecarError,
)
from repro.mining.itemsets import MiningResult, minimum_support_count
from repro.mining.regions import MiningReport, mine_corpus_with_report

# No caller here: the traced benchmark launcher (perfbench/launch.py) still
# patches this name, so it stays bound until the launcher's table drops it.
from repro.mining.regions import mine_regions_with_report  # noqa: F401
from repro.mining.shm import CorpusMatrix
from repro.obs import enabled as obs_enabled
from repro.obs import get_registry, recent_traces
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.io_json import corpus_fingerprint, load_json, save_json
from repro.serve import codec
from repro.serve.classify import CuisineClassifier
from repro.serve.store import ArtifactStore

__all__ = [
    "ServedAnalysis",
    "AnalysisService",
    "lease_owner_id",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_LEASE_WAIT",
    "DEFAULT_LEASE_POLL",
]

ANALYSIS_KIND = "analysis"
MINING_KIND = "mining"
MINING_INDEX_KIND = "miningindex"
CORPUS_FILE_PREFIX = "corpus-"
#: Path suffix of the single global corpus-matrix sidecar (one per corpus).
MATRIX_FILE_SUFFIX = ".matrix"
#: Path suffix of the compiled-classifier sidecar (one per analysis key).
CLASSIFIER_FILE_SUFFIX = ".classifier"

T = TypeVar("T")

_CORPUS_MEMORY_LIMIT = 4
#: Corpus locks, one per hash stripe of the corpus key.  No corpus lock is
#: taken inside another, so two keys that share one only wait.
_CORPUS_LOCK_STRIPES = 16

#: How long one compute lease lives without a renewal.  The lease keeper
#: renews every ttl/3, so a holder only expires when its process dies (or
#: stalls for two-thirds of the TTL) -- that expiry is what makes a crashed
#: winner's key stealable instead of wedged.
DEFAULT_LEASE_TTL = 30.0
#: How long a claim loser waits for the winner's artifact before giving up
#: with :class:`~repro.errors.DeadlineError` (surfaced as a retryable 503).
DEFAULT_LEASE_WAIT = 60.0
#: Poll interval while waiting on another process's compute.
DEFAULT_LEASE_POLL = 0.05


def lease_owner_id() -> str:
    """A fleet-unique lease owner token: ``host-pid-nonce``.

    The nonce distinguishes two services in one process (and a recycled pid
    on another host) -- a lease must never be releasable by anyone but the
    exact service instance that claimed it.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(4)}"


class _BoundedMemo:
    """At most *limit* entries (0 keeps none), dropping the oldest insertion first.

    A :meth:`get` whose *stamp* differs from the stored one misses.  Reads
    take no lock (one dict lookup is atomic); writes take the memo's lock,
    under which *on_evict* runs once per dropped entry.
    """

    def __init__(self, limit: int, on_evict: Callable[[], None] | None = None) -> None:
        self._limit = limit
        self._on_evict = on_evict
        self._entries: dict[Hashable, tuple[object, object]] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, stamp: object = None):
        entry = self._entries.get(key)
        return entry[1] if entry is not None and entry[0] == stamp else None

    def put(self, key: Hashable, value: object, stamp: object = None) -> None:
        if self._limit == 0:
            return
        with self._lock:
            self._entries[key] = (stamp, value)
            while len(self._entries) > self._limit:
                self._entries.pop(next(iter(self._entries)))
                if self._on_evict is not None:
                    self._on_evict()

    def pop(self, key: Hashable) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)


class _LeaseKeeper:
    """Background renewal of one held lease while its compute runs.

    Renews every ``ttl / 3`` so a *live* holder never expires mid-compute no
    matter how long the pipeline takes; a holder that dies stops renewing and
    lapses within one TTL, which is exactly the steal signal waiters poll
    for.  A renewal the backend fails is granted locally by the store, so
    the keeper keeps ticking: the lease is advisory, and a lost claim only
    costs a duplicate compute (never correctness).
    """

    def __init__(self, store: ArtifactStore, kind: str, key: str, owner: str, ttl: float) -> None:
        self._store = store
        self._kind = kind
        self._key = key
        self._owner = owner
        self._ttl = ttl
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-keeper-{key[:12]}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._ttl / 3.0):
            if self._store.renew(self._kind, self._key, self._owner, self._ttl) is None:
                return  # lost/expired: stop renewing, let a successor steal

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


@dataclass(frozen=True, slots=True)
class ServedAnalysis:
    """One served analysis plus its provenance.

    ``coalesced`` is set by the async front-end
    (:class:`~repro.serve.aio.AsyncAnalysisService`) on answers that joined
    another request's in-flight disk read or compute instead of starting
    their own (a memory hit joins nothing); the synchronous service always
    leaves it ``False``.

    ``stale`` is also an async front-end mark: ``True`` on answers served
    from an artifact whose last background refresh *failed* (the old value
    keeps serving -- serve-stale-on-error -- but callers can see its age
    guarantee is void until a refresh succeeds).
    """

    results: AnalysisResults
    source: str  # "memory" | "disk" | "computed"
    key: str
    elapsed_seconds: float
    mining_reused: bool = False
    mining_incremental: bool = False
    coalesced: bool = False
    stale: bool = False

    def to_dict(self) -> dict[str, object]:
        """The provenance fields as one JSON-ready dict (results excluded)."""
        return {
            "source": self.source,
            "key": self.key,
            "elapsed_seconds": self.elapsed_seconds,
            "mining_reused": self.mining_reused,
            "mining_incremental": self.mining_incremental,
            "coalesced": self.coalesced,
            "stale": self.stale,
        }


class AnalysisService:
    """Facade that memoizes full pipeline runs behind an artifact store.

    *max_memory_entries* bounds the decoded-analysis cache; 0 keeps nothing
    decoded, so every warm read goes through the store.

    *workers* is accepted and ignored: mining is one serial loop.  The
    benchmark oracle (``perfbench/oracle.py``) still passes ``workers=0``.
    """

    def __init__(
        self,
        store: ArtifactStore | Path | str | None = None,
        *,
        max_memory_entries: int = 32,
        workers: int | None = None,
        leases: bool = True,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        lease_wait: float = DEFAULT_LEASE_WAIT,
        lease_poll: float = DEFAULT_LEASE_POLL,
    ) -> None:
        if max_memory_entries < 0:
            raise ServeError("max_memory_entries must be non-negative")
        if store is None:
            store = ArtifactStore(Path(".repro-cache"))
        elif not isinstance(store, ArtifactStore):
            store = ArtifactStore(Path(store))
        self.store = store
        self.max_memory_entries = max_memory_entries
        if lease_ttl <= 0 or lease_wait <= 0 or lease_poll <= 0:
            raise ServeError("lease ttl, wait and poll must all be positive seconds")
        #: Fleet coordination: with leases on (the default), a cold compute
        #: first claims the key's lease through the store backend, so N
        #: processes sharing one backend perform exactly one compute per key.
        self.leases = leases
        self.lease_ttl = float(lease_ttl)
        self.lease_wait = float(lease_wait)
        self.lease_poll = float(lease_poll)
        self.owner = lease_owner_id()
        #: The :class:`~repro.mining.regions.MiningReport` of the most recent
        #: fresh mining pass (``None`` until one runs); surfaced in
        #: :meth:`describe` and thereby ``/stats``.
        self.last_mining_report: MiningReport | None = None
        # Decoded analyses by analysis key, drops counted in ``evictions``;
        # corpora by corpus key as (RecipeDatabase, corpus-file fingerprint);
        # CSRs by corpus key and classifiers by (analysis key, weights), both
        # stamped with that fingerprint; corpus-file SHA-256s by path,
        # stamped with (st_ino, st_size, st_mtime_ns), so a replaced or
        # rewritten file is hashed again.
        self._decoded = _BoundedMemo(max_memory_entries, self._count_eviction)
        self._corpora = _BoundedMemo(_CORPUS_MEMORY_LIMIT)
        self._corpus_matrices = _BoundedMemo(_CORPUS_MEMORY_LIMIT)
        self._classifiers = _BoundedMemo(_CORPUS_MEMORY_LIMIT)
        self._fingerprints = _BoundedMemo(_CORPUS_MEMORY_LIMIT)
        # The async front-end computes different configs concurrently on
        # executor threads.  _lock guards the mining-family index
        # read-modify-write; the corpus locks serialize corpus generation and
        # sidecar compilation per corpus key, so two configs sharing a
        # (seed, scale) never build the same corpus or write the same
        # sidecar files twice.
        self._lock = threading.RLock()
        self._corpus_locks = tuple(
            threading.Lock() for _ in range(_CORPUS_LOCK_STRIPES)
        )

    # -- read path --------------------------------------------------------------------

    def get_or_run(
        self,
        config: AnalysisConfig | None = None,
        *,
        database: RecipeDatabase | None = None,
    ) -> ServedAnalysis:
        """Serve the analysis for *config*, computing it only on a cache miss.

        Passing an explicit *database* bypasses the cache entirely (the cache
        key only covers the config, which cannot describe an arbitrary
        externally-supplied corpus).
        """
        config = config if config is not None else DEFAULT_CONFIG
        if database is not None:
            started = time.perf_counter()
            results = CuisineClusteringPipeline(config).run(database)
            return ServedAnalysis(
                results=results,
                source="computed",
                key=codec.analysis_key(config),
                elapsed_seconds=time.perf_counter() - started,
            )

        key = codec.analysis_key(config)
        started = time.perf_counter()
        served = self.from_memory(key)
        if served is None:
            served = self._from_backend(key, started, probe=False)
        if served is not None:
            return served
        return self._cold_compute(config, key, started)

    def from_memory(self, key: str) -> ServedAnalysis | None:
        """The decoded analysis for *key*, if memory holds it; never blocks.

        A dict lookup and, on a hit, one :meth:`ArtifactStore.exists` probe,
        which honours :meth:`invalidate` on another service handle over the
        same backend: a decoded entry whose artifact is gone is dropped.
        The async front door calls this on its event loop before it starts
        an executor flight; nothing here decodes or computes.
        """
        started = time.perf_counter()
        cached = self._decoded.get(key)
        if cached is None:
            return None
        if not self.store.exists(ANALYSIS_KIND, key):
            self._decoded.pop(key)
            return None
        self.store.stats.memory_hits += 1
        return ServedAnalysis(
            results=cached,
            source="memory",
            key=key,
            elapsed_seconds=time.perf_counter() - started,
        )

    # -- fleet-coordinated cold path ---------------------------------------------------

    def _compute_and_store(
        self, config: AnalysisConfig, key: str, started: float
    ) -> ServedAnalysis:
        """Run the pipeline and persist the artifact (the uncoordinated tail)."""
        results, mining_reused, mining_incremental = self._compute(config)
        self.store.put(ANALYSIS_KIND, key, codec.results_to_dict(results))
        self._decoded.put(key, results)
        return ServedAnalysis(
            results=results,
            source="computed",
            key=key,
            elapsed_seconds=time.perf_counter() - started,
            mining_reused=mining_reused,
            mining_incremental=mining_incremental,
        )

    def _cold_compute(
        self, config: AnalysisConfig, key: str, started: float
    ) -> ServedAnalysis:
        """One cold miss, coordinated fleet-wide through the store's leases.

        Claim the key's compute lease; the winner computes (with a keeper
        thread renewing the lease for the duration) and releases, every loser
        polls for the winner's artifact.  A holder that dies stops renewing,
        so its lease lapses within one TTL and a waiter steals the claim and
        computes instead -- a crashed winner delays the answer, it never
        wedges the key.  A loser still waiting at ``lease_wait`` raises
        :class:`~repro.errors.DeadlineError`, which the HTTP front door maps
        to a retryable 503.
        """
        if not self.leases:
            return self._compute_and_store(config, key, started)
        deadline = time.monotonic() + self.lease_wait
        waited = False
        while True:
            lease = self.store.claim(ANALYSIS_KIND, key, self.owner, self.lease_ttl)
            if lease is not None:
                # Double-check under the lease: the previous holder may have
                # published the artifact between our cold miss and this claim
                # -- computing anyway would break exactly-one-compute.
                served = self._from_backend(key, started)
                if served is not None:
                    self.store.release(ANALYSIS_KIND, key, self.owner)
                    return served
                self.store.stats.lease_claims += 1
                if waited:
                    # We only reach a successful claim after waiting when the
                    # previous holder lapsed or quit without an artifact.
                    self.store.stats.lease_steals += 1
                keeper = _LeaseKeeper(
                    self.store, ANALYSIS_KIND, key, self.owner, self.lease_ttl
                )
                try:
                    return self._compute_and_store(config, key, started)
                finally:
                    keeper.stop()
                    # A release the backend fails is dropped by the store:
                    # the unreleased lease just expires one TTL later.
                    self.store.release(ANALYSIS_KIND, key, self.owner)
            if not waited:
                waited = True
                self.store.stats.lease_waits += 1
            served = self._await_artifact(key, started, deadline)
            if served is not None:
                return served
            # No artifact and no live holder: the winner crashed or released
            # empty-handed.  Loop and contest the (now stealable) claim.
            if time.monotonic() >= deadline:
                raise DeadlineError(
                    f"gave up after {self.lease_wait:g}s contesting the "
                    f"compute lease for analysis {key}; retry"
                )

    def _from_backend(
        self, key: str, started: float, *, probe: bool = True
    ) -> ServedAnalysis | None:
        """Decode the persisted artifact for *key* if a readable one exists.

        With *probe*, asks :meth:`ArtifactStore.exists` first, so polling
        waiters never inflate the store's miss counters; a read miss goes
        straight to the one ``get``.  A stale or hand-edited artifact that
        does not decode is dropped (the caller recomputes it).
        """
        if probe and not self.store.exists(ANALYSIS_KIND, key):
            return None
        payload = self.store.get(ANALYSIS_KIND, key)
        if payload is None:
            return None
        try:
            results = codec.results_from_dict(payload)
        except ServeError:
            self.store.delete(ANALYSIS_KIND, key)
            return None
        self._decoded.put(key, results)
        return ServedAnalysis(
            results=results,
            source="disk",
            key=key,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _await_artifact(
        self, key: str, started: float, deadline: float
    ) -> ServedAnalysis | None:
        """Poll for another process's artifact until it lands or its holder dies.

        Returns the decoded analysis when the winner's artifact appears,
        ``None`` when the slot has no live lease left (caller re-claims), and
        raises :class:`~repro.errors.DeadlineError` at *deadline*.
        """
        while True:
            served = self._from_backend(key, started)
            if served is not None:
                return served
            if self.store.lease(ANALYSIS_KIND, key) is None:
                return None
            if time.monotonic() + self.lease_poll > deadline:
                raise DeadlineError(
                    f"gave up after {self.lease_wait:g}s waiting for another "
                    f"process to finish computing analysis {key}; retry"
                )
            time.sleep(self.lease_poll)

    def warm(self, configs: Iterable[AnalysisConfig] | AnalysisConfig) -> list[ServedAnalysis]:
        """Precompute (or touch) the cache for one or many configs."""
        if isinstance(configs, AnalysisConfig):
            configs = [configs]
        return [self.get_or_run(config) for config in configs]

    def refresh(self, config: AnalysisConfig | None = None) -> ServedAnalysis:
        """Recompute *config* unconditionally and swap the stored artifact.

        The compute-then-swap order is what makes background refresh safe:
        the old artifact keeps answering :meth:`get_or_run` reads for the
        whole duration of the recompute, and only the final :meth:`put`
        replaces it -- a refresh never exposes a cache miss to readers.  The
        rewrite also renews the artifact's stored-at stamp, so TTL-based
        disk eviction and the async refresher both see it as fresh again.

        Stage caches (corpus, mining) are still honoured -- the analysis is
        deterministic per config, so a refresh re-derives the same results;
        what changes is the artifact's age.  Use :meth:`invalidate` first to
        force the stages themselves to re-run.
        """
        config = config if config is not None else DEFAULT_CONFIG
        return self._compute_and_store(
            config, codec.analysis_key(config), time.perf_counter()
        )

    def invalidate(self, config: AnalysisConfig, *, mining: bool = False) -> bool:
        """Drop the cached analysis for *config* (and optionally its mining)."""
        key = codec.analysis_key(config)
        self._decoded.pop(key)
        removed = self.store.delete(ANALYSIS_KIND, key)
        if mining:
            mining_key = codec.mining_key(config)
            removed = self.store.delete(MINING_KIND, mining_key) or removed
            # Keep the family index in sync so the incremental fast path
            # never walks a dangling entry.
            group_key = codec.mining_group_key(config)
            with self._lock:
                index = self._mining_index(group_key)
                if mining_key in index:
                    index.pop(mining_key)
                    self.store.put(MINING_INDEX_KIND, group_key, {"entries": index})
        return removed

    def cached_keys(self) -> list[str]:
        """Keys of every analysis currently persisted on disk."""
        return self.store.keys(ANALYSIS_KIND)

    def stats(self) -> dict[str, int]:
        """Store traffic counters (memory/disk hits, misses, writes, evictions)."""
        return self.store.stats.to_dict()

    def describe(self) -> dict[str, object]:
        """One JSON-ready snapshot of the cache's configuration and traffic.

        The payload behind ``serve-stats`` and the async server's
        ``/stats`` endpoint: where the cache lives, which backend and disk
        eviction policy it runs (as the spec string ``--disk-eviction``
        accepts), the decoded cache's bound, how many artifacts of each
        kind are persisted, and the live traffic counters.
        """
        store = self.store
        artifacts = {
            "analyses": len(store.keys(ANALYSIS_KIND)),
            "mining_runs": len(store.keys(MINING_KIND)),
            "mining_indexes": len(store.keys(MINING_INDEX_KIND)),
            "corpora": len(self.corpus_files()),
        }
        payload: dict[str, object] = {
            "cache_dir": str(store.root),
            "backend": store.backend.describe(),
            "max_memory_entries": self.max_memory_entries,
            "disk_eviction": store.disk_policy.describe() if store.disk_policy else "none",
            "store_bytes": store.total_bytes(),
            "artifacts": artifacts,
            "counters": self.stats(),
            "classifier": {
                "cached": len(self._classifiers),
                "compiles": store.stats.classifier_compiles,
                "sidecar_loads": store.stats.classifier_sidecar_loads,
            },
            "leases": {
                "enabled": self.leases,
                "owner": self.owner,
                "ttl_seconds": self.lease_ttl,
                "wait_seconds": self.lease_wait,
                "poll_seconds": self.lease_poll,
                "claims": store.stats.lease_claims,
                "waits": store.stats.lease_waits,
                "steals": store.stats.lease_steals,
            },
        }
        if self.last_mining_report is not None:
            payload["mining"] = self.last_mining_report.to_dict()
        if obs_enabled():
            payload["observability"] = {
                "metrics": get_registry().snapshot(),
                "recent_traces": len(recent_traces()),
            }
        return payload

    def _count_eviction(self) -> None:
        self.store.stats.evictions += 1

    # -- corpus stage -----------------------------------------------------------------

    def _corpus_lock(self, config: AnalysisConfig) -> threading.Lock:
        """The lock serializing corpus and sidecar builds for *config*'s corpus."""
        key = codec.corpus_key(config)
        return self._corpus_locks[hash(key) % len(self._corpus_locks)]

    def corpus_path(self, config: AnalysisConfig) -> Path:
        """On-disk location of the persisted corpus for *config*'s seed/scale."""
        return self.store.aux_path(
            f"{CORPUS_FILE_PREFIX}{codec.corpus_key(config)}.json"
        )

    def corpus_files(self) -> list[Path]:
        """Every corpus file currently persisted next to the artifact store."""
        root = self.store.root
        if root is None or not root.is_dir():
            return []
        return sorted(root.glob(f"{CORPUS_FILE_PREFIX}*.json"))

    def _load_or_build(
        self,
        load: Callable[[], T | None],
        build: Callable[[], T],
        save: Callable[[T], object],
    ) -> tuple[T, str]:
        """One auxiliary file: load it, else build the value and save it.

        A file *load* cannot trust (``SerializationError``, ``SidecarError``)
        counts as missing.  A save that raises ``OSError`` or
        ``SerializationError`` is a dropped write and the value serves from
        memory; the store hears of every save, dropped or landed.  Returns
        the value and where it lives: ``"file"``, ``"saved"`` or ``"memory"``.
        """
        value = self._trusted(load)
        if value is not None:
            return value, "file"
        value = build()
        try:
            save(value)
        except (OSError, SerializationError):
            self.store.record_dropped_write()
            return value, "memory"
        self.store.record_landed_write()
        return value, "saved"

    @staticmethod
    def _trusted(load: Callable[[], T | None]) -> T | None:
        """*load*'s value, with a file it cannot trust read as missing."""
        try:
            return load()
        except (SerializationError, SidecarError):
            return None

    def _corpus(
        self, config: AnalysisConfig, pipeline: CuisineClusteringPipeline
    ) -> tuple[RecipeDatabase, str]:
        """The corpus for *config* and its fingerprint.

        Memory first, then the ``io_json`` file next to the artifact store,
        then regeneration (which persists the corpus for the next miss).  The
        returned fingerprint digests the corpus file's bytes; the CSR and
        classifier sidecars carry it so they go stale with the corpus.

        A snapshot that cannot be saved is not hashed: its fingerprint is
        ``""``, as for a missing corpus file, so a sidecar saved beside it
        goes stale once a corpus file is written (no SHA-256 is empty).
        """
        key = codec.corpus_key(config)
        cached = self._corpora.get(key)
        if cached is not None:
            return cached

        with self._corpus_lock(config):
            # Double-check under the corpus lock: a concurrent compute for a
            # sibling config (same seed/scale, different support) may have
            # built this corpus while we waited.
            cached = self._corpora.get(key)
            if cached is not None:
                return cached
            path = self.corpus_path(config)
            corpus, source = self._load_or_build(
                lambda: load_json(path) if path.exists() else None,
                pipeline.build_corpus,
                lambda corpus: save_json(corpus, path),
            )
            fingerprint = "" if source == "memory" else self._corpus_file_fingerprint(config)
            entry = (corpus, fingerprint)
            self._corpora.put(key, entry)
            return entry

    # -- the corpus-matrix sidecar ----------------------------------------------------

    def matrix_path(self, config: AnalysisConfig) -> Path:
        """Path prefix of the persisted global corpus matrix for *config*."""
        return self.store.aux_path(
            f"{CORPUS_FILE_PREFIX}{codec.corpus_key(config)}{MATRIX_FILE_SUFFIX}"
        )

    # -- the classifier sidecar -------------------------------------------------------

    def classifier_path(self, config: AnalysisConfig) -> Path:
        """Path prefix of the persisted classifier sidecar for *config*.

        Keyed by the full analysis key (not just the corpus key): the
        compiled matrices depend on mining parameters, so two configs over
        the same corpus get distinct sidecars.
        """
        return self.store.aux_path(
            f"{CORPUS_FILE_PREFIX}{codec.analysis_key(config)}{CLASSIFIER_FILE_SUFFIX}"
        )

    def _corpus_file_fingerprint(self, config: AnalysisConfig) -> str:
        """SHA-256 of the persisted corpus file, or ``""`` without one.

        The corpus stage keeps the fingerprint of every corpus it holds;
        past it, each file is hashed once until its stat stamp changes.
        """
        cached = self._corpora.get(codec.corpus_key(config))
        if cached is not None:
            return cached[1]
        try:
            path = self.corpus_path(config)
            stat = path.stat()
        except (ServeError, OSError):
            return ""
        stamp = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        fingerprint = self._fingerprints.get(path, stamp)
        if fingerprint is None:
            fingerprint = corpus_fingerprint(path)
            self._fingerprints.put(path, fingerprint, stamp)
        return fingerprint

    def classifier_for(
        self,
        config: AnalysisConfig | None = None,
        *,
        results: AnalysisResults | None = None,
        pattern_weight: float = 1.0,
        authenticity_weight: float = 1.0,
    ) -> CuisineClassifier:
        """The classifier for *config*: memory, sidecar, or a fresh compile.

        A warm hit memory-maps the ``corpus-<key>.classifier`` sidecar
        (fingerprint-checked against the corpus file) and builds **zero**
        dense matrices -- counted in ``stats()['classifier_sidecar_loads']``.
        A miss compiles from *results*, counts a ``classifier_compiles``, and
        persists the sidecar best-effort for the next worker (see
        :meth:`_load_or_build`).  A store without a root directory compiles
        in memory and saves nothing.

        Without *results*, a memory miss tries the sidecar first, because
        loading it needs no results (serving them on a restarted service
        decodes the whole analysis artifact).  Only a sidecar miss serves
        the analysis through :meth:`get_or_run`, outside the corpus lock (a
        cold compute takes that lock itself), and then re-reads the corpus
        fingerprint, because that compute may have just written the corpus
        file.
        """
        config = config if config is not None else DEFAULT_CONFIG
        weights = dict(pattern_weight=pattern_weight, authenticity_weight=authenticity_weight)
        cache_key = (codec.analysis_key(config), float(pattern_weight), float(authenticity_weight))
        fingerprint = self._corpus_file_fingerprint(config)
        cached = self._classifiers.get(cache_key, fingerprint)
        if cached is not None:
            return cached
        try:
            prefix = self.classifier_path(config)
        except ServeError:  # a rootless backend has nowhere for sidecars
            prefix = None

        def load() -> CuisineClassifier | None:
            # Reads the fingerprint current at the call.
            if prefix is None:
                return None
            return CuisineClassifier.load(
                prefix, mmap=True, expected_fingerprint=fingerprint, **weights
            )

        if results is None:
            with self._corpus_lock(config):
                classifier = self._trusted(load)
            if classifier is not None:
                self.store.stats.classifier_sidecar_loads += 1
                self._classifiers.put(cache_key, classifier, fingerprint)
                return classifier
            results = self.get_or_run(config).results
            fingerprint = self._corpus_file_fingerprint(config)

        with self._corpus_lock(config):
            cached = self._classifiers.get(cache_key, fingerprint)
            if cached is not None:
                return cached
            if prefix is None:
                classifier = CuisineClassifier.from_results(results, **weights)
                source = "memory"
            else:
                classifier, source = self._load_or_build(
                    load,
                    lambda: CuisineClassifier.from_results(results, **weights),
                    lambda classifier: classifier.save(prefix, fingerprint=fingerprint),
                )
            if source == "file":
                self.store.stats.classifier_sidecar_loads += 1
            else:
                self.store.stats.classifier_compiles += 1
            self._classifiers.put(cache_key, classifier, fingerprint)
            return classifier

    # -- mining stage -----------------------------------------------------------------

    def _mining_index(self, group_key: str) -> dict[str, float]:
        """The ``mining key -> min_support`` index of one mining family."""
        payload = self.store.get(MINING_INDEX_KIND, group_key)
        if payload is None:
            return {}
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return {}
        index: dict[str, float] = {}
        for mining_key, min_support in entries.items():
            try:
                index[str(mining_key)] = float(min_support)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
        return index

    def _register_mining(self, config: AnalysisConfig, mining_key: str) -> None:
        """Record a persisted mining run in its family index."""
        group_key = codec.mining_group_key(config)
        with self._lock:
            index = self._mining_index(group_key)
            index[mining_key] = config.min_support
            self.store.put(MINING_INDEX_KIND, group_key, {"entries": index})

    def _incremental_mining(
        self, config: AnalysisConfig
    ) -> dict[str, MiningResult] | None:
        """Derive the mining results for *config* from a cached lower-support run.

        Downward closure: every itemset frequent at ``min_support`` is also
        frequent at any lower threshold, so a cached run of the same family
        (same seed/scale/max length) at ``min_support' <= min_support`` is a
        superset -- filtering it by the new absolute count is exactly what
        the miner would return.  Prefers the tightest (largest) cached
        support to minimise filtering work; returns ``None`` when no usable
        superset exists.
        """
        group_key = codec.mining_group_key(config)
        index = self._mining_index(group_key)
        candidates = sorted(
            (
                (min_support, mining_key)
                for mining_key, min_support in index.items()
                if min_support <= config.min_support
            ),
            key=lambda entry: -entry[0],
        )
        dangling: list[str] = []
        chosen: dict[str, MiningResult] | None = None
        for min_support, mining_key in candidates:
            payload = self.store.get(MINING_KIND, mining_key)
            if payload is None:
                dangling.append(mining_key)
                continue
            try:
                superset = codec.mining_from_dict(payload)
            except ServeError:
                self.store.delete(MINING_KIND, mining_key)
                dangling.append(mining_key)
                continue
            chosen = {
                region: self._filter_by_support(result, config.min_support)
                for region, result in superset.items()
            }
            break
        if dangling:
            # Prune entries whose artifacts are gone (deleted or corrupt) so
            # later lookups stop paying a store miss per stale key.  Re-read
            # the index under the lock so a concurrent register of a sibling
            # run is never overwritten by this stale snapshot.
            with self._lock:
                index = self._mining_index(group_key)
                for mining_key in dangling:
                    index.pop(mining_key, None)
                self.store.put(MINING_INDEX_KIND, group_key, {"entries": index})
        return chosen

    @staticmethod
    def _filter_by_support(result: MiningResult, min_support: float) -> MiningResult:
        """Re-threshold a mining result at a higher support (exact semantics).

        Keeps patterns whose absolute support meets the new per-region count
        (``max(1, ceil(min_support * n))`` -- the same rule every miner
        applies), producing a result equal to a fresh mine at *min_support*.
        """
        min_count = minimum_support_count(min_support, result.n_transactions)
        return MiningResult(
            (p for p in result.patterns if p.absolute_support >= min_count),
            n_transactions=result.n_transactions,
            min_support=min_support,
            algorithm=result.algorithm,
        )

    # -- compute path -----------------------------------------------------------------

    def _compute(self, config: AnalysisConfig) -> tuple[AnalysisResults, bool, bool]:
        """Run the pipeline, reusing every cached stage available.

        Mirrors :meth:`CuisineClusteringPipeline.run` stage by stage: the
        corpus comes from the corpus cache, the mining stage from the mining
        cache, the incremental filter, or a fresh mining pass -- in that
        order of preference.  A fresh pass mines the regions of the corpus
        CSR (see :meth:`_mine_fresh`).
        """
        pipeline = CuisineClusteringPipeline(config)
        corpus, fingerprint = self._corpus(config, pipeline)
        if len(corpus.region_names()) < 2:
            raise ServeError("the corpus must contain at least two cuisines")

        mining_cache_key = codec.mining_key(config)
        mining_reused = False
        mining_incremental = False
        mining_payload = self.store.get(MINING_KIND, mining_cache_key)
        mining_results = None
        if mining_payload is not None:
            try:
                mining_results = codec.mining_from_dict(mining_payload)
                mining_reused = True
            except ServeError:
                self.store.delete(MINING_KIND, mining_cache_key)
        if mining_results is None:
            mining_results = self._incremental_mining(config)
            if mining_results is not None:
                mining_reused = True
                mining_incremental = True
        if mining_results is None:
            mining_results = self._mine_fresh(config, pipeline, corpus, fingerprint)
        if not mining_reused or mining_incremental:
            self.store.put(
                MINING_KIND, mining_cache_key, codec.mining_to_dict(mining_results)
            )
            self._register_mining(config, mining_cache_key)

        # Stages 3-8 run through the pipeline's own tail, so a cached-stage
        # recompute can never drift from what a fresh `pipeline.run` builds.
        results = pipeline.finish_run(corpus, mining_results)
        return results, mining_reused, mining_incremental

    def _mine_fresh(
        self,
        config: AnalysisConfig,
        pipeline: CuisineClusteringPipeline,
        corpus: RecipeDatabase,
        fingerprint: str,
    ) -> dict[str, MiningResult]:
        """One full mining pass over the corpus CSR.

        The CSR comes from memory, from the memory-mapped
        ``corpus-<key>.matrix`` sidecar (fingerprint-checked, so it goes
        stale with the corpus file), or from a fresh build -- the only time
        this corpus's names are mapped to ids here -- saved best-effort
        (see :meth:`_load_or_build`).  Every region is then packed from it
        and mined.
        """
        key = codec.corpus_key(config)
        prefix = self.matrix_path(config)

        def load_matrix() -> CorpusMatrix | None:
            matrix = CorpusMatrix.load(prefix, mmap=True, expected_fingerprint=fingerprint)
            return matrix if set(matrix.regions) == set(corpus.region_names()) else None

        with self._corpus_lock(config):
            corpus_matrix = self._corpus_matrices.get(key, fingerprint)
            if corpus_matrix is None:
                corpus_matrix, _ = self._load_or_build(
                    load_matrix,
                    lambda: CuisineClusteringPipeline(config).build_transactions(corpus),
                    lambda matrix: matrix.save(prefix, fingerprint=fingerprint),
                )
                self._corpus_matrices.put(key, corpus_matrix, fingerprint)
        for span in corpus_matrix.spans:
            if span.n_transactions == 0:
                raise PipelineError(f"region {span.region!r} has no recipes to mine")
        results, report = mine_corpus_with_report(corpus_matrix, pipeline.build_miner())
        self.last_mining_report = report
        return results
