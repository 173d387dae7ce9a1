"""Composable eviction policies for the artifact store's backend.

A policy never touches the store: it is a pure function from the current
entry metadata to the list of keys that must go, which the engine then
deletes from a bounded backend (``--disk-eviction``).  The async
front-end's background refresher reads the same specs as a staleness
policy (``--refresh``).  Three primitives cover the serving workloads:

``LRU(max_entries)``
    Keep at most N entries, drop the least recently used first (on a
    backend, recency is write time, so the oldest write goes first).
``TTL(seconds)``
    Drop entries older than a freshness horizon (age counts from the last
    *write*, so a rewrite refreshes the clock -- right for analysis blobs
    that go stale, wrong never).
``MaxBytes(limit)``
    Drop least-recently-used entries until the total payload size fits; the
    right bound for large, rarely-stale artifacts where entry *count* is
    meaningless.

Policies compose with ``&`` (or :class:`CompositePolicy`): victims are the
union, evaluated left to right.  :func:`parse_policy` turns the CLI's
``--disk-eviction`` / ``--refresh`` spec strings
(``"ttl:600+maxbytes:1048576"``, ``"none"``) into policy objects.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.errors import ServeError

__all__ = [
    "EntryInfo",
    "EvictionPolicy",
    "LRU",
    "TTL",
    "MaxBytes",
    "CompositePolicy",
    "parse_policy",
]


@dataclass(frozen=True, slots=True)
class EntryInfo:
    """What a policy may know about one stored entry."""

    size_bytes: int
    stored_at: float  # last write (policy clock origin for TTL)


class EvictionPolicy(ABC):
    """Pure victim selection over ``(key, EntryInfo)`` pairs.

    *entries* arrive oldest first (LRU and MaxBytes drop from the front);
    implementations must not mutate them.
    """

    @abstractmethod
    def victims(
        self, entries: Sequence[tuple[Hashable, EntryInfo]], now: float
    ) -> list[Hashable]:
        """Keys to evict, in eviction order."""

    @abstractmethod
    def describe(self) -> str:
        """The spec string this policy round-trips through :func:`parse_policy`."""

    def __and__(self, other: "EvictionPolicy") -> "CompositePolicy":
        return CompositePolicy([self, other])


class LRU(EvictionPolicy):
    """Bound the entry count; least recently used go first."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 0:
            raise ServeError("LRU max_entries must be non-negative")
        self.max_entries = max_entries

    def victims(
        self, entries: Sequence[tuple[Hashable, EntryInfo]], now: float
    ) -> list[Hashable]:
        overflow = len(entries) - self.max_entries
        if overflow <= 0:
            return []
        return [key for key, _ in entries[:overflow]]

    def describe(self) -> str:
        return f"lru:{self.max_entries}"


class TTL(EvictionPolicy):
    """Drop entries whose last write is older than *seconds*."""

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ServeError("TTL seconds must be positive")
        self.seconds = float(seconds)

    def victims(
        self, entries: Sequence[tuple[Hashable, EntryInfo]], now: float
    ) -> list[Hashable]:
        return [key for key, info in entries if now - info.stored_at > self.seconds]

    def describe(self) -> str:
        return f"ttl:{self.seconds:g}"


class MaxBytes(EvictionPolicy):
    """Bound total payload bytes; least recently used go first."""

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ServeError("MaxBytes limit must be non-negative")
        self.max_bytes = int(max_bytes)

    def victims(
        self, entries: Sequence[tuple[Hashable, EntryInfo]], now: float
    ) -> list[Hashable]:
        total = sum(info.size_bytes for _, info in entries)
        chosen: list[Hashable] = []
        for key, info in entries:
            if total <= self.max_bytes:
                break
            chosen.append(key)
            total -= info.size_bytes
        return chosen

    def describe(self) -> str:
        return f"maxbytes:{self.max_bytes}"


class CompositePolicy(EvictionPolicy):
    """Union of several policies, evaluated left to right.

    Each member sees only the entries its predecessors kept, so e.g.
    ``TTL(600) & LRU(32)`` first expires stale entries, then bounds what
    remains.
    """

    def __init__(self, policies: Sequence[EvictionPolicy]) -> None:
        if not policies:
            raise ServeError("CompositePolicy needs at least one policy")
        flattened: list[EvictionPolicy] = []
        for policy in policies:
            if isinstance(policy, CompositePolicy):
                flattened.extend(policy.policies)
            else:
                flattened.append(policy)
        self.policies: tuple[EvictionPolicy, ...] = tuple(flattened)

    def victims(
        self, entries: Sequence[tuple[Hashable, EntryInfo]], now: float
    ) -> list[Hashable]:
        remaining = list(entries)
        chosen: list[Hashable] = []
        for policy in self.policies:
            selected = policy.victims(remaining, now)
            if not selected:
                continue
            chosen.extend(selected)
            dropped = set(selected)
            remaining = [(key, info) for key, info in remaining if key not in dropped]
        return chosen

    def describe(self) -> str:
        return "+".join(policy.describe() for policy in self.policies)


def parse_policy(spec: str) -> EvictionPolicy | None:
    """Parse a ``--disk-eviction`` / ``--refresh`` spec string into a policy.

    Grammar: ``term ("+" term)*`` where term is ``lru:N``, ``ttl:SECONDS`` or
    ``maxbytes:N``.  A single term yields the primitive policy, several a
    :class:`CompositePolicy` in the given order.  ``"none"`` and the empty
    spec return ``None``: no policy, so nothing is evicted (or refreshed).
    """
    text = spec.strip().lower()
    if text in ("", "none"):
        return None
    policies: list[EvictionPolicy] = []
    for term in text.split("+"):
        name, separator, raw_value = term.strip().partition(":")
        if not separator:
            raise ServeError(
                f"bad eviction term {term!r}: expected name:value (e.g. lru:32)"
            )
        try:
            if name == "lru":
                policies.append(LRU(int(raw_value)))
            elif name == "ttl":
                policies.append(TTL(float(raw_value)))
            elif name == "maxbytes":
                policies.append(MaxBytes(int(raw_value)))
            else:
                raise ServeError(
                    f"unknown eviction policy {name!r} (expected lru, ttl or maxbytes)"
                )
        except ValueError as exc:
            raise ServeError(f"bad eviction value in {term!r}: {exc}") from exc
    return policies[0] if len(policies) == 1 else CompositePolicy(policies)
