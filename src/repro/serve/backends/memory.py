"""In-process backend: artifacts live in a dict and die with the process.

The test double of the durable :class:`~repro.serve.backends.DirectoryBackend`:
the serve suite runs its storage contract against both, and this one touches
no disk and is invisible to other processes.

The text payloads go through the same serialize-then-parse read path as the
directory backend, so engine-level validation and quarantine behave
identically (a hand-corrupted entry is quarantined into a side dict, not
silently served).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Iterator

from repro.serve.backends.base import (
    BackendEntry,
    Lease,
    StorageBackend,
    validate_key,
    validate_kind,
    validate_owner,
    validate_ttl,
)

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """Ephemeral dict-backed artifact storage."""

    name = "memory"

    def __init__(
        self,
        *,
        root: Path | str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        # root only anchors auxiliary files (corpus snapshots) when the
        # backend serves an AnalysisService; pure artifact use needs none.
        # clock stamps writes -- share the store's injected clock when a
        # time-based disk policy must be deterministic under test.
        self.root = Path(root) if root is not None else None
        self._clock = clock
        self._data: dict[tuple[str, str], tuple[str, float]] = {}
        self._quarantined: dict[tuple[str, str], str] = {}
        # (kind, key) -> (owner, expires_at); mutated only under _lease_lock
        # so claim/renew/release are compare-and-swap atomic across threads.
        self._leases: dict[tuple[str, str], tuple[str, float]] = {}
        self._lease_lock = threading.Lock()

    def read(self, kind: str, key: str) -> str | None:
        stored = self._data.get((validate_kind(kind), validate_key(key)))
        return None if stored is None else stored[0]

    def exists(self, kind: str, key: str) -> bool:
        return (validate_kind(kind), validate_key(key)) in self._data

    def keys(self, kind: str) -> list[str]:
        validate_kind(kind)
        return sorted(key for stored_kind, key in self._data if stored_kind == kind)

    def entries(self) -> Iterator[BackendEntry]:
        stamped = sorted(self._data.items(), key=lambda item: item[1][1])
        for (kind, key), (text, stored_at) in stamped:
            yield BackendEntry(kind, key, len(text.encode("utf-8")), stored_at)

    def write(self, kind: str, key: str, text: str) -> None:
        self._data[(validate_kind(kind), validate_key(key))] = (text, self._clock())

    def delete(self, kind: str, key: str) -> bool:
        return self._data.pop((validate_kind(kind), validate_key(key)), None) is not None

    # -- compute leases ---------------------------------------------------------------

    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        slot = (validate_kind(kind), validate_key(key))
        owner, ttl = validate_owner(owner), validate_ttl(ttl)
        now = self._clock() if now is None else now
        with self._lease_lock:
            stored = self._leases.get(slot)
            if stored is not None and stored[1] > now and stored[0] != owner:
                return None
            # Cold slot, expired lease (steal), or idempotent re-claim by the
            # live holder: all converge on owning a fresh lease.
            expires_at = now + ttl
            self._leases[slot] = (owner, expires_at)
            return Lease(kind, key, owner, expires_at)

    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        slot = (validate_kind(kind), validate_key(key))
        owner, ttl = validate_owner(owner), validate_ttl(ttl)
        now = self._clock() if now is None else now
        with self._lease_lock:
            stored = self._leases.get(slot)
            if stored is None or stored[0] != owner or stored[1] <= now:
                return None
            expires_at = now + ttl
            self._leases[slot] = (owner, expires_at)
            return Lease(kind, key, owner, expires_at)

    def release(self, kind: str, key: str, owner: str) -> bool:
        slot = (validate_kind(kind), validate_key(key))
        owner = validate_owner(owner)
        with self._lease_lock:
            stored = self._leases.get(slot)
            if stored is None or stored[0] != owner:
                return False  # a successor's claim is never clobbered
            del self._leases[slot]
            return True

    def lease(
        self, kind: str, key: str, *, now: float | None = None
    ) -> Lease | None:
        slot = (validate_kind(kind), validate_key(key))
        now = self._clock() if now is None else now
        with self._lease_lock:
            stored = self._leases.get(slot)
        if stored is None or stored[1] <= now:
            return None
        return Lease(kind, key, stored[0], stored[1])

    def quarantine(self, kind: str, key: str) -> None:
        stored = self._data.pop((kind, key), None)
        if stored is not None:
            self._quarantined[(kind, key)] = stored[0]

    def quarantined(self) -> list[tuple[str, str]]:
        """Every quarantined ``(kind, key)`` pair (for tests)."""
        return sorted(self._quarantined)

    def describe(self) -> str:
        return "memory (ephemeral)"
