"""Memoizing analysis service: compute once, serve many cheap reads.

:class:`AnalysisService` wraps :class:`~repro.core.pipeline.CuisineClusteringPipeline`
with a three-level read path::

    get_or_run(config)
        1. in-memory LRU        (microseconds)
        2. disk artifact store  (milliseconds -- one JSON parse)
        3. recompute            (seconds -- the full eight-stage pipeline)

Caching is stage-aware, and the compute path itself is staged:

* **corpus stage** -- the synthetic corpus depends only on ``(seed, scale)``;
  it is persisted through :mod:`repro.recipedb.io_json` next to the artifact
  store and kept in a small in-memory LRU with its file fingerprint, and its
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
from typing import Iterable

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

_CORPUS_MEMORY_LIMIT = 4

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


class _LeaseKeeper:
    """Background renewal of one held lease while its compute runs.

    Renews every ``ttl / 3`` so a *live* holder never expires mid-compute no
    matter how long the pipeline takes; a holder that dies stops renewing and
    lapses within one TTL, which is exactly the steal signal waiters poll
    for.  Renewal failures are swallowed: the lease is advisory, and a lost
    claim only costs a duplicate compute (never correctness).
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
            try:
                if self._store.renew(self._kind, self._key, self._owner, self._ttl) is None:
                    return  # lost/expired: stop renewing, let a successor steal
            except Exception:  # noqa: BLE001 - renewal is best-effort
                continue  # transient backend fault: the next tick retries

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


@dataclass(frozen=True, slots=True)
class ServedAnalysis:
    """One served analysis plus its provenance.

    ``coalesced`` is set by the async front-end
    (:class:`~repro.serve.aio.AsyncAnalysisService`) on answers that joined
    another request's in-flight compute instead of starting their own; the
    synchronous service always leaves it ``False``.

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

    *workers* is accepted and ignored: mining is one serial loop.  The
    benchmark oracle (``perfbench/oracle.py``) still passes ``workers=0``.
    """

    def __init__(
        self,
        store: ArtifactStore | Path | str | None = None,
        *,
        max_memory_entries: int = 8,
        workers: int | None = None,
        leases: bool = True,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        lease_wait: float = DEFAULT_LEASE_WAIT,
        lease_poll: float = DEFAULT_LEASE_POLL,
    ) -> None:
        if store is None:
            store = ArtifactStore(
                Path(".repro-cache"), max_memory_entries=max_memory_entries
            )
        elif not isinstance(store, ArtifactStore):
            store = ArtifactStore(Path(store), max_memory_entries=max_memory_entries)
        self.store = store
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
        self._decoded: dict[str, AnalysisResults] = {}
        # Corpus-matrix cache: corpus key -> (fingerprint, CorpusMatrix);
        # the CSR every fresh mining pass packs its regions from.
        self._corpus_matrices: dict[str, tuple[str, CorpusMatrix]] = {}
        # Classifier cache: (analysis key, weights) -> (fingerprint,
        # CuisineClassifier); warm entries wrap the memmapped sidecar arrays.
        self._classifiers: dict[
            tuple[str, float, float], tuple[str, CuisineClassifier]
        ] = {}
        # Corpus stage cache: corpus key -> (RecipeDatabase, corpus-file
        # fingerprint).  The fingerprint ties the persisted matrix sidecar to
        # the exact corpus bytes.
        self._corpora: dict[str, tuple[RecipeDatabase, str]] = {}
        # The async front-end computes different configs concurrently on
        # executor threads.  _lock guards the service's own compound cache
        # mutations (decoded LRU, mining-family index read-modify-write);
        # _corpus_locks serializes corpus generation + sidecar compilation
        # per corpus key, so two configs sharing a (seed, scale) never build
        # the same corpus or write the same sidecar files twice.
        self._lock = threading.RLock()
        self._corpus_locks: dict[str, threading.Lock] = {}

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

        cached = self._decoded.get(key)
        if cached is not None and self.store.exists(ANALYSIS_KIND, key):
            # Probe the backend directly (not the store's memory front) so
            # that invalidate() on another service handle over the same
            # backend is honoured even for already-decoded entries.
            self.store.stats.memory_hits += 1
            return ServedAnalysis(
                results=cached,
                source="memory",
                key=key,
                elapsed_seconds=time.perf_counter() - started,
            )
        self._decoded.pop(key, None)

        payload = self.store.get(ANALYSIS_KIND, key)
        if payload is not None:
            try:
                results = codec.results_from_dict(payload)
            except ServeError:
                # Stale or hand-edited artifact: drop it and recompute.
                self.store.delete(ANALYSIS_KIND, key)
            else:
                self._remember_decoded(key, results)
                return ServedAnalysis(
                    results=results,
                    source="disk",
                    key=key,
                    elapsed_seconds=time.perf_counter() - started,
                )

        return self._cold_compute(config, key, started)

    # -- fleet-coordinated cold path ---------------------------------------------------

    def _compute_and_store(
        self, config: AnalysisConfig, key: str, started: float
    ) -> ServedAnalysis:
        """Run the pipeline and persist the artifact (the uncoordinated tail)."""
        results, mining_reused, mining_incremental = self._compute(config)
        self.store.put(ANALYSIS_KIND, key, codec.results_to_dict(results))
        self._remember_decoded(key, results)
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
                get_registry().counter(
                    "repro_serve_lease_claims_total",
                    "Cold computes won through a store compute lease.",
                ).inc()
                if waited:
                    # We only reach a successful claim after waiting when the
                    # previous holder lapsed or quit without an artifact.
                    self.store.stats.lease_steals += 1
                    get_registry().counter(
                        "repro_serve_lease_steals_total",
                        "Compute leases stolen from expired (crashed) holders.",
                    ).inc()
                keeper = _LeaseKeeper(
                    self.store, ANALYSIS_KIND, key, self.owner, self.lease_ttl
                )
                try:
                    return self._compute_and_store(config, key, started)
                finally:
                    keeper.stop()
                    try:
                        self.store.release(ANALYSIS_KIND, key, self.owner)
                    except Exception:  # noqa: BLE001 - release is best-effort
                        pass  # an unreleased lease just expires one TTL later
            if not waited:
                waited = True
                self.store.stats.lease_waits += 1
                get_registry().counter(
                    "repro_serve_lease_waits_total",
                    "Cold requests that waited on another process's compute.",
                ).inc()
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

    def _from_backend(self, key: str, started: float) -> ServedAnalysis | None:
        """Decode the persisted artifact for *key* if a readable one exists.

        Probes with :meth:`ArtifactStore.exists` first, so polling waiters
        never inflate the store's miss counters; an undecodable artifact is
        dropped (the caller recomputes it).
        """
        if not self.store.exists(ANALYSIS_KIND, key):
            return None
        payload = self.store.get(ANALYSIS_KIND, key)
        if payload is None:
            return None
        try:
            results = codec.results_from_dict(payload)
        except ServeError:
            self.store.delete(ANALYSIS_KIND, key)
            return None
        self._remember_decoded(key, results)
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
        key = codec.analysis_key(config)
        started = time.perf_counter()
        results, mining_reused, mining_incremental = self._compute(config)
        self.store.put(ANALYSIS_KIND, key, codec.results_to_dict(results))
        self._remember_decoded(key, results)
        return ServedAnalysis(
            results=results,
            source="computed",
            key=key,
            elapsed_seconds=time.perf_counter() - started,
            mining_reused=mining_reused,
            mining_incremental=mining_incremental,
        )

    def invalidate(self, config: AnalysisConfig, *, mining: bool = False) -> bool:
        """Drop the cached analysis for *config* (and optionally its mining)."""
        key = codec.analysis_key(config)
        self._decoded.pop(key, None)
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
        """One JSON-ready snapshot of the store's configuration and traffic.

        The payload behind ``serve-stats`` and the async server's
        ``/stats`` endpoint: where the cache lives, which backend and
        eviction policies it runs (as the spec strings ``--eviction``
        accepts), how many artifacts of each kind are persisted, and the
        live traffic counters.
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
            "max_memory_entries": store.max_memory_entries,
            "eviction": store.memory_policy.describe(),
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
        # The resilience / fault-injection wrappers (repro.serve.resilience,
        # repro.serve.faults) surface their state when present, so serve-stats
        # and /stats show breaker health and injected-fault telemetry.
        describe_resilience = getattr(store.backend, "describe_resilience", None)
        if callable(describe_resilience):
            payload["resilience"] = describe_resilience()
        injection_report = getattr(store.backend, "injection_report", None)
        if callable(injection_report):
            payload["fault_injection"] = injection_report()
        if self.last_mining_report is not None:
            payload["mining"] = self.last_mining_report.to_dict()
        if obs_enabled():
            payload["observability"] = {
                "metrics": get_registry().snapshot(),
                "recent_traces": len(recent_traces()),
            }
        return payload

    def _remember_decoded(self, key: str, results: AnalysisResults) -> None:
        """Keep decoded results hot, bounded by the store's LRU capacity.

        A store built with ``max_memory_entries=0`` has its memory layer
        explicitly disabled, so nothing is kept decoded either — every read
        then goes through disk.
        """
        limit = self.store.max_memory_entries
        if limit == 0:
            return
        with self._lock:
            self._decoded[key] = results
            while len(self._decoded) > limit:
                self._decoded.pop(next(iter(self._decoded)))

    # -- corpus stage -----------------------------------------------------------------

    def _corpus_lock(self, config: AnalysisConfig) -> threading.Lock:
        """The per-corpus-key lock serializing corpus and sidecar builds."""
        key = codec.corpus_key(config)
        with self._lock:
            return self._corpus_locks.setdefault(key, threading.Lock())

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

    def _corpus(
        self, config: AnalysisConfig, pipeline: CuisineClusteringPipeline
    ) -> tuple[RecipeDatabase, str]:
        """The corpus for *config* and its fingerprint.

        Memory first, then the ``io_json`` file next to the artifact store,
        then regeneration (which persists the corpus for the next miss).  The
        returned fingerprint digests the corpus file's bytes; matrix sidecars
        carry it so they go stale with the corpus.
        """
        key = codec.corpus_key(config)
        with self._lock:
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

            corpus: RecipeDatabase | None = None
            path = self.corpus_path(config)
            if path.exists():
                try:
                    corpus = load_json(path)
                except SerializationError:
                    corpus = None  # truncated / hand-edited file: regenerate
            if corpus is None:
                corpus = pipeline.build_corpus()
                path.parent.mkdir(parents=True, exist_ok=True)
                save_json(corpus, path)
            fingerprint = corpus_fingerprint(path)

            with self._lock:
                self._corpora[key] = (corpus, fingerprint)
                while len(self._corpora) > _CORPUS_MEMORY_LIMIT:
                    self._corpora.pop(next(iter(self._corpora)))
            return corpus, fingerprint

    # -- the corpus-matrix sidecar ----------------------------------------------------

    def matrix_path(self, config: AnalysisConfig) -> Path:
        """Path prefix of the persisted global corpus matrix for *config*."""
        return self.store.aux_path(
            f"{CORPUS_FILE_PREFIX}{codec.corpus_key(config)}{MATRIX_FILE_SUFFIX}"
        )

    def _ensure_corpus_matrix(
        self,
        config: AnalysisConfig,
        corpus: RecipeDatabase,
        fingerprint: str,
    ) -> CorpusMatrix:
        """The corpus CSR for *config*: memory, sidecar, or a fresh build.

        A warm hit memory-maps the single ``corpus-<key>.matrix`` sidecar
        (fingerprint-checked, so it goes stale with the corpus file) and
        builds nothing.  A miss builds the CSR from the corpus -- the only
        time this corpus's names are mapped to ids here -- and persists it
        best-effort.
        """
        key = codec.corpus_key(config)
        with self._lock:
            cached = self._corpus_matrices.get(key)
            if cached is not None and cached[0] == fingerprint:
                return cached[1]

        prefix = self.matrix_path(config)
        try:
            corpus_matrix: CorpusMatrix | None = CorpusMatrix.load(
                prefix, mmap=True, expected_fingerprint=fingerprint
            )
        except SidecarError:
            corpus_matrix = None
        if corpus_matrix is None or set(corpus_matrix.regions) != set(
            corpus.region_names()
        ):
            corpus_matrix = CuisineClusteringPipeline(config).build_transactions(corpus)
            try:
                corpus_matrix.save(prefix, fingerprint=fingerprint)
            except OSError:
                pass  # read-only store: keep serving from memory

        with self._lock:
            self._corpus_matrices[key] = (fingerprint, corpus_matrix)
            while len(self._corpus_matrices) > _CORPUS_MEMORY_LIMIT:
                self._corpus_matrices.pop(next(iter(self._corpus_matrices)))
        return corpus_matrix

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
        """Fingerprint of the persisted corpus file, or ``""`` without one."""
        try:
            path = self.corpus_path(config)
        except ServeError:
            return ""
        if not path.exists():
            return ""
        return corpus_fingerprint(path)

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
        A miss compiles from *results* (served via :meth:`get_or_run` when
        not supplied), counts a ``classifier_compiles``, and persists the
        sidecar best-effort for the next worker.
        """
        config = config if config is not None else DEFAULT_CONFIG
        key = codec.analysis_key(config)
        cache_key = (key, float(pattern_weight), float(authenticity_weight))
        fingerprint = self._corpus_file_fingerprint(config)

        with self._lock:
            cached = self._classifiers.get(cache_key)
            if cached is not None and cached[0] == fingerprint:
                return cached[1]

        with self._corpus_lock(config):
            with self._lock:
                cached = self._classifiers.get(cache_key)
                if cached is not None and cached[0] == fingerprint:
                    return cached[1]

            classifier: CuisineClassifier | None = None
            prefix: Path | None = None
            try:
                prefix = self.classifier_path(config)
                classifier = CuisineClassifier.load(
                    prefix,
                    mmap=True,
                    expected_fingerprint=fingerprint,
                    pattern_weight=pattern_weight,
                    authenticity_weight=authenticity_weight,
                )
            except (SidecarError, ServeError):
                classifier = None  # missing/stale sidecar or rootless backend
            if classifier is not None:
                self.store.stats.classifier_sidecar_loads += 1
            else:
                if results is None:
                    results = self.get_or_run(config).results
                classifier = CuisineClassifier.from_results(
                    results,
                    pattern_weight=pattern_weight,
                    authenticity_weight=authenticity_weight,
                )
                self.store.stats.classifier_compiles += 1
                if prefix is not None:
                    try:
                        classifier.save(prefix, fingerprint=fingerprint)
                    except OSError:
                        pass  # read-only store: keep serving from memory

            with self._lock:
                self._classifiers[cache_key] = (fingerprint, classifier)
                while len(self._classifiers) > _CORPUS_MEMORY_LIMIT:
                    self._classifiers.pop(next(iter(self._classifiers)))
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

        The CSR is memory-mapped (warm) or built once (cold, persisting the
        sidecar best-effort); every region is then packed from it and mined.
        """
        with self._corpus_lock(config):
            corpus_matrix = self._ensure_corpus_matrix(config, corpus, fingerprint)
        for span in corpus_matrix.spans:
            if span.n_transactions == 0:
                raise PipelineError(f"region {span.region!r} has no recipes to mine")
        results, report = mine_corpus_with_report(corpus_matrix, pipeline.build_miner())
        self.last_mining_report = report
        return results
