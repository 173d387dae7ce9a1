"""The artifact storage engine: validation, quarantine and fault handling over a backend.

Artifacts (serialised analyses, mining results, ...) are JSON documents keyed
by ``(kind, key)`` where *kind* namespaces the artifact type and *key* is a
deterministic config digest from :mod:`repro.serve.codec`.  The engine layers
three concerns:

* a **storage backend** (:mod:`repro.serve.backends`) owning durability --
  the sharded directory of JSON files, or ephemeral memory in tests;
* **packing**: :meth:`ArtifactStore.put` writes :func:`dumps`, the
  canonical JSON of ``pack(payload)``, so every large all-``float`` array
  is one base64 string of its float64 bytes
  (:func:`repro.serve.codec.pack`), and :meth:`ArtifactStore.get`
  parses with :func:`~repro.serve.codec.unpack` as the object hook, which
  turns each back into the same lists -- readers see exactly the payload
  that was put.  An artifact without packed arrays (written before
  packing) reads as it is;
* **validation + quarantine**: payloads are parsed and shape-checked on
  every read, and corrupt data (a crashed writer, a hand-edited file, a
  malformed packed array) is quarantined through the backend so the slot
  can be rewritten.  The store never raises on bad cached data; the worst
  case is a recompute;
* **backend faults**: every backend call retries an :class:`OSError` at
  once, up to :data:`BACKEND_ATTEMPTS` tries, and then degrades instead of
  raising (each call's degraded answer is tabled on :class:`ArtifactStore`),
  so a failing backend also costs at worst a recompute.  Every other
  exception (:class:`~repro.errors.ServeError` included) propagates.
  There is no backoff and no circuit breaker: the one durable backend is a
  local directory whose failures return at once, so a dead cache directory
  costs a few failing syscalls per call and no sleeping.

The store keeps no payloads in memory: every :meth:`ArtifactStore.get` reads
the backend.  The one memory layer for served analyses is the decoded cache
of :class:`~repro.serve.service.AnalysisService`.

``ArtifactStore(root)`` builds the
:class:`~repro.serve.backends.DirectoryBackend` under *root*.  An optional
*disk_policy* (an :class:`~repro.serve.eviction.EvictionPolicy`) bounds what
the backend keeps durable, by TTL or total bytes.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, TypeVar

from repro.errors import ServeError
from repro.serve.backends import DirectoryBackend, StorageBackend
from repro.serve.backends.base import BackendEntry, Lease
from repro.serve.codec import dumps as canonical_dumps
from repro.serve.codec import pack, unpack
from repro.serve.eviction import EntryInfo, EvictionPolicy

__all__ = ["BACKEND_ATTEMPTS", "StoreStats", "ArtifactStore", "dumps"]

T = TypeVar("T")

#: Tries per backend call: an ``OSError`` is retried at once until this
#: many tries have failed, and then the call degrades.
BACKEND_ATTEMPTS = 3


def dumps(payload: dict[str, object]) -> str:
    """The stored text of *payload*: the canonical JSON of its packed form.

    The store's one encode step, so a tracer that wraps this name times
    packing and JSON together.  Raises ``ValueError`` for a payload
    :func:`~repro.serve.codec.pack` or :func:`~repro.serve.codec.dumps`
    cannot encode (a non-finite float).
    """
    return canonical_dumps(pack(payload))


@dataclass
class StoreStats:
    """Running counters of store traffic (one instance per store).

    ``disk_hits`` and ``misses`` count :meth:`ArtifactStore.get` outcomes.
    ``memory_hits`` and ``evictions`` are written by the decoded-analysis
    cache of :class:`~repro.serve.service.AnalysisService`: a read answered
    from it, and an analysis it dropped at its ``max_memory_entries`` bound.

    ``coalesced_hits`` and ``background_refreshes`` are written by the async
    front-end (:mod:`repro.serve.aio`): the former counts requests that
    joined an already-in-flight disk read or compute instead of starting
    their own, the latter counts artifacts re-warmed by the background
    refresher before their TTL expired.  ``request_errors`` counts HTTP
    requests the async server answered with a 500 (each carries an
    ``error_id`` correlating the response with this counter).  All three
    stay 0 under purely synchronous serving.

    The ``lease_*`` counters are written by the service layer's fleet
    coordination (:mod:`repro.serve.service`): ``lease_claims`` counts cold
    computes this process won the lease for, ``lease_waits`` counts cold
    requests that lost the claim and waited for another process's artifact,
    and ``lease_steals`` counts claims won by replacing an expired lease (a
    crashed or stalled holder).

    The store itself counts backend faults: ``backend_retries`` counts
    tries repeated after an ``OSError``, ``backend_exhausted`` counts calls
    whose every try failed and so degraded, ``dropped_writes`` counts the
    writes among those plus the auxiliary writes the service reports
    through :meth:`ArtifactStore.record_dropped_write`, and
    ``lease_fallbacks`` counts claims and renewals granted locally because
    the backend could not be asked.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    deletes: int = 0
    corrupt_recovered: int = 0
    evictions: int = 0
    disk_evictions: int = 0
    bytes_written: int = 0
    coalesced_hits: int = 0
    background_refreshes: int = 0
    request_errors: int = 0
    classifier_compiles: int = 0
    classifier_sidecar_loads: int = 0
    lease_claims: int = 0
    lease_waits: int = 0
    lease_steals: int = 0
    backend_retries: int = 0
    backend_exhausted: int = 0
    dropped_writes: int = 0
    lease_fallbacks: int = 0

    def to_dict(self) -> dict[str, int]:
        """Every counter as one JSON-ready dict (the ``serve-stats`` payload)."""
        return asdict(self)


class ArtifactStore:
    """JSON artifact store: validated reads and counted writes over a backend.

    The store is safe to share across threads (the async front-end's
    executor drives it concurrently); a reentrant lock serializes each read
    with its quarantine, the traffic counters and the disk sweep.

    Every backend call retries an ``OSError`` at once, up to
    :data:`BACKEND_ATTEMPTS` tries.  Degraded, the store answers:

    ========================== ============================================
    call                       answer once every try failed
    ========================== ============================================
    ``get``                    ``None``, counted as a miss
    ``put``                    the write is dropped (``dropped_writes``)
    ``exists``                 ``False``
    ``keys`` / ``entries``     empty
    ``delete`` / ``release``   ``False``
    ``claim`` / ``renew``      a local lease (``lease_fallbacks``): every
                               process computes for itself, as without
                               leases
    ``lease``                  ``None``
    ``total_bytes``            ``0``
    ========================== ============================================

    :meth:`health` reads ``"degraded"`` while the last backend call was
    one of these, and ``"ok"`` again after the next call that succeeds --
    except that a failed write-class call (write, delete, quarantine,
    claim, renew, release) keeps it ``"degraded"`` until a later
    write-class call succeeds, and a dropped auxiliary write until a later
    auxiliary write lands, so a cache that reads but cannot write, or takes
    artifacts but not sidecars, never looks healthy.

    Parameters
    ----------
    root:
        Directory for the default sharded :class:`DirectoryBackend` (created
        on first write).  Ignored when *backend* is given.
    backend:
        Explicit storage backend; overrides *root*.
    disk_policy:
        Optional eviction policy applied to the backend after every write,
        bounding what stays durable.  Recency on disk is write time, so TTL
        and MaxBytes are the natural disk bounds.
    clock:
        Time source for disk-policy decisions and local leases (injectable
        for tests).
    """

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        backend: StorageBackend | None = None,
        disk_policy: EvictionPolicy | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if backend is None:
            if root is None:
                raise ServeError("ArtifactStore needs a root directory or a backend")
            backend = DirectoryBackend(Path(root))
        self._backend = backend
        self.disk_policy = disk_policy
        self._clock = clock
        self.stats = StoreStats()
        # The async front-end (repro.serve.aio) drives the store from a
        # thread pool.  The lock makes a corrupt slot's read + quarantine
        # atomic (two racing readers quarantine it once), keeps the counters
        # exact and serializes the disk sweep; put() re-enters it to sweep.
        self._lock = threading.RLock()
        # Fault counters are also bumped by the lock-free probes and lease
        # calls, so they take their own lock.
        self._fault_lock = threading.Lock()
        self._degraded = False
        self._write_degraded = False
        self._aux_degraded = False

    # -- backend ----------------------------------------------------------------------

    @property
    def backend(self) -> StorageBackend:
        """The durable backend behind this store."""
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def root(self) -> Path | None:
        """The backend's directory for auxiliary files (``None`` if it has none)."""
        return self._backend.root

    def aux_path(self, name: str) -> Path:
        """Location of one service-level auxiliary file or directory.

        Auxiliaries (corpus snapshots, compiled-matrix sidecar directories)
        live at the backend's root, outside the artifact shards, so backend
        scans and disk eviction never see them.  Raises for rootless
        backends, which have nowhere to put them.
        """
        root = self.root
        if root is None:
            raise ServeError(
                "this store's backend has no root directory for auxiliary "
                "files; construct the backend with a root "
                "(e.g. MemoryBackend(root=...))"
            )
        return root / name

    def path_for(self, kind: str, key: str) -> Path:
        """The on-disk path of one artifact (directory-backed stores only)."""
        path_for = getattr(self._backend, "path_for", None)
        if path_for is None:
            raise ServeError(
                f"the {self._backend.name!r} backend has no per-artifact paths"
            )
        return path_for(kind, key)

    def total_bytes(self) -> int:
        """Bytes currently stored in the backend."""
        return self._call(self._backend.total_bytes, lambda: 0)

    def close(self) -> None:
        """Release backend resources (connections, handles)."""
        self._backend.close()

    # -- backend faults ---------------------------------------------------------------

    def health(self) -> str:
        """``"degraded"`` while the last backend call or write, or auxiliary write, failed."""
        degraded = self._degraded or self._write_degraded or self._aux_degraded
        return "degraded" if degraded else "ok"

    def record_dropped_write(self) -> None:
        """Count a failed write of an auxiliary file as a dropped write.

        The service writes its corpus snapshot and its CSR and classifier
        sidecars beside the backend, not through it; when such a write fails
        it serves from memory and reports the drop here.  :meth:`health`
        then reads ``"degraded"`` until a later auxiliary write lands
        (:meth:`record_landed_write`); a landed :meth:`put` does not clear it.
        """
        self._count("dropped_writes")
        self._aux_degraded = True

    def record_landed_write(self) -> None:
        """Report an auxiliary write that landed (see :meth:`record_dropped_write`)."""
        self._aux_degraded = False

    def _count(self, counter: str) -> None:
        with self._fault_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _call(
        self, call: Callable[[], T], degraded: Callable[[], T], *, write: bool = False
    ) -> T:
        """Run one backend call: retry an ``OSError`` at once, then degrade.

        Returns *call*'s result, or ``degraded()`` once
        :data:`BACKEND_ATTEMPTS` tries have all raised ``OSError``.  Any
        other exception propagates from the first try.  *write* marks a
        write-class call, whose failure only a later write-class success
        clears from :meth:`health`.
        """
        for attempt in range(1, BACKEND_ATTEMPTS + 1):
            try:
                outcome = call()
            except OSError:
                if attempt < BACKEND_ATTEMPTS:
                    self._count("backend_retries")
                continue
            self._degraded = False
            if write:
                self._write_degraded = False
            return outcome
        self._degraded = True
        if write:
            self._write_degraded = True
        self._count("backend_exhausted")
        return degraded()

    # -- reads ------------------------------------------------------------------------

    def get(self, kind: str, key: str) -> dict[str, object] | None:
        """Read, validate and unpack an artifact payload from the backend, else ``None``.

        Corrupt data (unparseable or too deeply nested JSON, a non-object
        root, a malformed packed array) is quarantined through the backend
        and counted in ``corrupt_recovered``; the read then counts as a
        miss, as does a read the backend failed.
        """
        with self._lock:
            text = self._call(lambda: self._backend.read(kind, key), lambda: None)
            if text is None:
                self.stats.misses += 1
                return None
            try:
                payload = json.loads(text, object_hook=unpack)
                if not isinstance(payload, dict):
                    raise ValueError("artifact root must be a JSON object")
            except (ValueError, RecursionError):
                self._call(
                    lambda: self._backend.quarantine(kind, key), lambda: None, write=True
                )
                self.stats.corrupt_recovered += 1
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            return payload

    def exists(self, kind: str, key: str) -> bool:
        """Whether the backend holds ``(kind, key)`` (no payload read or validation).

        The cheap durability probe behind the service's decoded cache: a
        delete through another handle over the same backend invalidates it.
        """
        return self._call(lambda: self._backend.exists(kind, key), lambda: False)

    def keys(self, kind: str) -> list[str]:
        """Every key stored in the backend for one artifact kind (sorted)."""
        return self._call(lambda: self._backend.keys(kind), list)

    def entries(self) -> list[BackendEntry]:
        """Every stored artifact with its size and write stamp."""
        # Listed whole, so a retry restarts the scan instead of resuming it.
        return self._call(lambda: list(self._backend.entries()), list)

    # -- writes -----------------------------------------------------------------------

    def put(self, kind: str, key: str, payload: dict[str, object]) -> Path | None:
        """Persist an artifact payload, packed, then apply the disk policy.

        Returns the artifact's path for path-addressable backends, ``None``
        otherwise and when the write was dropped.  Raises ``ValueError`` for
        a payload :func:`dumps` cannot encode.
        """
        text = dumps(payload)

        def write() -> bool:
            self._backend.write(kind, key, text)
            return True

        def drop() -> bool:
            self._count("dropped_writes")
            return False

        with self._lock:
            if not self._call(write, drop, write=True):
                return None
            self.stats.writes += 1
            self.stats.bytes_written += len(text.encode("utf-8"))
            self.sweep_disk()
        path_for = getattr(self._backend, "path_for", None)
        return path_for(kind, key) if path_for is not None else None

    def delete(self, kind: str, key: str) -> bool:
        """Drop an artifact from the backend; True when it existed."""
        with self._lock:
            existed = self._call(
                lambda: self._backend.delete(kind, key), lambda: False, write=True
            )
            if existed:
                self.stats.deletes += 1
            return existed

    # -- compute leases ---------------------------------------------------------------
    #
    # Leases coordinate *who computes*, not what is stored, so they
    # deliberately bypass the store lock -- a claim poll must not serialize
    # behind another thread's backend I/O.

    def _local_lease(
        self, kind: str, key: str, owner: str, ttl: float, now: float | None
    ) -> Lease:
        """A lease granted without the backend: the caller computes for itself."""
        self._count("lease_fallbacks")
        start = self._clock() if now is None else now
        return Lease(kind, key, owner, start + ttl)

    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        """Claim the compute lease for ``(kind, key)`` (see backend contract)."""
        return self._call(
            lambda: self._backend.claim(kind, key, owner, ttl, now=now),
            lambda: self._local_lease(kind, key, owner, ttl, now),
            write=True,
        )

    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        """Extend a live lease held by *owner*."""
        return self._call(
            lambda: self._backend.renew(kind, key, owner, ttl, now=now),
            lambda: self._local_lease(kind, key, owner, ttl, now),
            write=True,
        )

    def release(self, kind: str, key: str, owner: str) -> bool:
        """Drop the slot's lease iff *owner* holds it."""
        return self._call(
            lambda: self._backend.release(kind, key, owner), lambda: False, write=True
        )

    def lease(self, kind: str, key: str, *, now: float | None = None) -> Lease | None:
        """The current live lease on ``(kind, key)``, or ``None``."""
        return self._call(lambda: self._backend.lease(kind, key, now=now), lambda: None)

    # -- disk policy ------------------------------------------------------------------

    def sweep_disk(self) -> int:
        """Apply the disk policy to the backend now; returns entries evicted.

        Runs automatically after every :meth:`put`, which keeps the bound
        strict but costs one full backend listing (a stat per file on the
        directory backend) per write -- O(n²) listing work across an
        n-artifact warm.  Batch writers that can tolerate transient
        overshoot should construct the store without *disk_policy* and call
        this explicitly once per batch.

        Policy ``now`` comes from the store's clock and is compared against
        backend write stamps (file mtime / ``time.time()``), so time-based
        disk policies need both on the same clock -- true by default; under
        an injected test clock, share it with ``MemoryBackend(clock=...)``.
        """
        if self.disk_policy is None:
            return 0
        with self._lock:
            evicted = 0
            now = self._clock()
            stored = sorted(self.entries(), key=lambda entry: entry.stored_at)
            view = [
                ((entry.kind, entry.key), EntryInfo(entry.size_bytes, entry.stored_at))
                for entry in stored
            ]
            for kind, key in self.disk_policy.victims(view, now):
                if self._call(
                    lambda: self._backend.delete(kind, key), lambda: False, write=True
                ):
                    self.stats.disk_evictions += 1
                    evicted += 1
            return evicted
