"""The storage backend protocol behind :class:`~repro.serve.store.ArtifactStore`.

A backend is a dumb, durable map ``(kind, key) -> serialized JSON text``.  It
knows nothing about caching, eviction policies or payload validity -- those
live in the store engine -- but it owns atomicity (a reader never observes a
half-written artifact) and quarantine (moving a payload the engine has judged
corrupt out of the addressable namespace so the slot can be rewritten).

Keys are hex digests and kinds are slugs; the validators live here so every
backend enforces the same namespace.

Backends also own **compute leases** -- the fleet-wide single-compute
primitive behind :meth:`StorageBackend.claim`.  A lease is an advisory,
TTL-bounded claim on one ``(kind, key)`` slot: any process (on any host
sharing the backend) either *wins* the claim and performs the compute, or
loses and awaits the winner's artifact.  Leases live in a side namespace
(dot-files, a side dict) so they are never confused with artifacts, never
scanned and never evicted.  An expired lease (a crashed holder) is
stealable: the next :meth:`~StorageBackend.claim` atomically replaces it.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import ServeError

__all__ = [
    "BackendEntry",
    "Lease",
    "StorageBackend",
    "validate_kind",
    "validate_key",
    "validate_owner",
    "validate_ttl",
    "KEY_CHARS",
]

KEY_CHARS = frozenset("0123456789abcdef")


def validate_kind(kind: str) -> str:
    """Require *kind* to be a non-empty slug; returns it for chaining."""
    if not kind or not kind.replace("-", "").replace("_", "").isalnum():
        raise ServeError(f"artifact kind must be a non-empty slug, got {kind!r}")
    return kind


def validate_key(key: str) -> str:
    """Require *key* to be a hex digest; returns it for chaining."""
    if not key or not set(key) <= KEY_CHARS:
        raise ServeError(f"artifact key must be a hex digest, got {key!r}")
    return key


def validate_owner(owner: str) -> str:
    """Require *owner* to be a non-empty single-line token; returns it."""
    if not owner or any(ch in owner for ch in "\r\n"):
        raise ServeError(f"lease owner must be a non-empty token, got {owner!r}")
    return owner


def validate_ttl(ttl: float) -> float:
    """Require *ttl* to be a positive number of seconds; returns it."""
    ttl = float(ttl)
    if not ttl > 0:
        raise ServeError(f"lease ttl must be positive seconds, got {ttl!r}")
    return ttl


@dataclass(frozen=True, slots=True)
class Lease:
    """One live compute claim on an artifact slot.

    ``owner`` identifies the claiming process (the service uses
    ``host-pid-nonce``); ``expires_at`` is the wall-clock instant the claim
    lapses and becomes stealable.  Leases are *advisory*: they coordinate
    who computes, they never block reads or writes of the artifact itself.
    """

    kind: str
    key: str
    owner: str
    expires_at: float

    def expired(self, now: float | None = None) -> bool:
        """Whether this lease has lapsed (and is therefore stealable)."""
        return (time.time() if now is None else now) >= self.expires_at


@dataclass(frozen=True, slots=True)
class BackendEntry:
    """One stored artifact as the backend sees it (for eviction and stats)."""

    kind: str
    key: str
    size_bytes: int
    stored_at: float  # wall-clock write time (mtime for files)


class StorageBackend(ABC):
    """Durable ``(kind, key) -> text`` map with atomic writes and quarantine.

    Attributes
    ----------
    name:
        Short backend slug (``"directory"``, ``"memory"``) used in stats
        output.
    root:
        Directory for auxiliary files stored *next to* the artifacts (corpus
        snapshots, ...).  ``None`` when the backend has no natural directory.
    """

    name: str = "abstract"
    root: Path | None = None

    @abstractmethod
    def read(self, kind: str, key: str) -> str | None:
        """The stored text for one artifact, or ``None`` when absent."""

    @abstractmethod
    def write(self, kind: str, key: str, text: str) -> None:
        """Durably store *text* under ``(kind, key)`` (atomic replace)."""

    @abstractmethod
    def delete(self, kind: str, key: str) -> bool:
        """Drop one artifact; ``True`` when it existed."""

    @abstractmethod
    def exists(self, kind: str, key: str) -> bool:
        """Whether ``(kind, key)`` is stored (no payload read)."""

    @abstractmethod
    def keys(self, kind: str) -> list[str]:
        """Every stored key of one kind, sorted."""

    @abstractmethod
    def quarantine(self, kind: str, key: str) -> None:
        """Move a corrupt payload out of the namespace (best effort)."""

    @abstractmethod
    def entries(self) -> Iterator[BackendEntry]:
        """Every stored artifact with its size and write time."""

    # -- compute leases ---------------------------------------------------------------
    #
    # Contract (every backend, atomically with respect to concurrent
    # claimants -- including claimants in other processes for the durable
    # backend):
    #
    # * ``claim`` wins iff no *live* lease exists for the slot, replacing any
    #   expired one (a steal).  A re-claim by the current live holder renews
    #   and returns the lease (idempotent).  Losing returns ``None``.
    # * ``renew`` extends a *live* lease held by ``owner``; an expired or
    #   foreign lease is never renewed (``None``) -- a successor's steal can
    #   therefore never be clobbered by a late renewal.
    # * ``release`` removes the slot's lease iff ``owner`` holds it (live or
    #   expired); a release after a successor stole the slot is a no-op.
    # * ``lease`` reports the current *live* lease, or ``None``.
    #
    # ``now`` is injectable everywhere so lifecycle tests run on a fake
    # clock; production callers leave it ``None`` (wall clock).

    @abstractmethod
    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        """Atomically claim the compute lease for ``(kind, key)``.

        Returns the won :class:`Lease` (expiring ``ttl`` seconds from now),
        or ``None`` when another owner holds a live lease.  An expired lease
        is stolen; a live lease held by *owner* itself is renewed.
        """

    @abstractmethod
    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        """Extend a live lease held by *owner*; ``None`` if not renewable."""

    @abstractmethod
    def release(self, kind: str, key: str, owner: str) -> bool:
        """Drop the lease iff *owner* holds it; ``True`` when one was dropped."""

    @abstractmethod
    def lease(
        self, kind: str, key: str, *, now: float | None = None
    ) -> Lease | None:
        """The current live lease on ``(kind, key)``, or ``None``."""

    def total_bytes(self) -> int:
        """Bytes currently stored across all artifacts."""
        return sum(entry.size_bytes for entry in self.entries())

    def close(self) -> None:  # pragma: no cover - default is a no-op
        """Release any held resources (connections, handles)."""

    def describe(self) -> str:
        """Human-readable one-liner for stats output."""
        return self.name
