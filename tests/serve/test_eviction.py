"""Eviction policies: pure victim selection, spec parsing, disk-policy integration.

The disk-policy tests run over every backend and assert backend deletion;
the TTL ones share a fake clock between the store and a memory backend so
expiry decisions are deterministic.
"""

from __future__ import annotations

import pytest

from repro.errors import ServeError
from repro.serve.backends import MemoryBackend
from repro.serve.eviction import (
    LRU,
    TTL,
    CompositePolicy,
    EntryInfo,
    MaxBytes,
    parse_policy,
)
from repro.serve.store import ArtifactStore

KEY_A = "a" * 8
KEY_B = "b" * 8
KEY_C = "c" * 8


def entry(size=10, stored_at=0.0) -> EntryInfo:
    return EntryInfo(size, stored_at)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestPolicies:
    def test_lru_keeps_newest(self):
        entries = [("a", entry()), ("b", entry()), ("c", entry())]
        assert LRU(2).victims(entries, now=0.0) == ["a"]
        assert LRU(3).victims(entries, now=0.0) == []
        assert LRU(0).victims(entries, now=0.0) == ["a", "b", "c"]

    def test_ttl_expires_by_write_age(self):
        entries = [("old", entry(stored_at=0.0)), ("new", entry(stored_at=90.0))]
        assert TTL(60).victims(entries, now=100.0) == ["old"]
        assert TTL(200).victims(entries, now=100.0) == []

    def test_maxbytes_drops_lru_until_fit(self):
        entries = [("a", entry(size=40)), ("b", entry(size=40)), ("c", entry(size=40))]
        assert MaxBytes(100).victims(entries, now=0.0) == ["a"]
        assert MaxBytes(40).victims(entries, now=0.0) == ["a", "b"]
        assert MaxBytes(0).victims(entries, now=0.0) == ["a", "b", "c"]

    def test_composite_is_sequential_union(self):
        entries = [
            ("stale", entry(size=10, stored_at=0.0)),
            ("big", entry(size=100, stored_at=95.0)),
            ("small", entry(size=10, stored_at=99.0)),
        ]
        policy = TTL(60) & MaxBytes(50)
        # TTL removes "stale" first; MaxBytes then sees only big+small.
        assert policy.victims(entries, now=100.0) == ["stale", "big"]

    def test_composite_flattens_and_describes(self):
        policy = LRU(8) & TTL(60) & MaxBytes(1024)
        assert isinstance(policy, CompositePolicy)
        assert len(policy.policies) == 3
        assert policy.describe() == "lru:8+ttl:60+maxbytes:1024"

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServeError):
            LRU(-1)
        with pytest.raises(ServeError):
            TTL(0)
        with pytest.raises(ServeError):
            MaxBytes(-5)


class TestParsePolicy:
    def test_primitives_roundtrip(self):
        for spec in ("lru:32", "ttl:600", "maxbytes:1048576"):
            assert parse_policy(spec).describe() == spec

    def test_composite_roundtrip(self):
        assert parse_policy("lru:32+ttl:600").describe() == "lru:32+ttl:600"

    def test_explicit_none_is_no_eviction(self):
        # "none" means no policy at all, exactly like an absent spec.
        for spec in ("none", " NONE "):
            assert parse_policy(spec) is None

    def test_empty_spec_means_unspecified(self):
        assert parse_policy("") is None

    def test_bad_specs_rejected(self):
        for spec in ("lru", "lru:abc", "fifo:3", "ttl:-1"):
            with pytest.raises(ServeError):
                parse_policy(spec)


class TestDiskPolicy:
    def test_maxbytes_bounds_backend(self, any_backend, chaos_backend):
        size = len('{"v":"a"}')
        store = ArtifactStore(backend=chaos_backend, disk_policy=MaxBytes(2 * size))
        store.put("analysis", KEY_A, {"v": "a"})
        store.put("analysis", KEY_B, {"v": "b"})
        assert store.stats.disk_evictions == 0
        store.put("analysis", KEY_C, {"v": "c"})
        assert store.stats.disk_evictions == 1
        assert store.total_bytes() <= 2 * size
        # The newest artifact always survives its own write.
        assert any_backend.exists("analysis", KEY_C)
        assert len(any_backend.keys("analysis")) == 2

    def test_disk_eviction_does_not_count_as_delete(self, chaos_backend):
        store = ArtifactStore(backend=chaos_backend, disk_policy=MaxBytes(0))
        store.put("analysis", KEY_A, {"v": 1})
        assert store.stats.disk_evictions == 1
        assert store.stats.deletes == 0
        assert store.stats.evictions == 0

    def test_ttl_disk_policy_with_shared_clock(self):
        # Time-based disk policies compare the store clock against backend
        # write stamps; sharing one injected clock makes TTL deterministic.
        clock = FakeClock()
        backend = MemoryBackend(clock=clock)
        store = ArtifactStore(backend=backend, disk_policy=TTL(60), clock=clock)
        store.put("analysis", KEY_A, {"v": 1})
        clock.advance(61)
        store.put("analysis", KEY_B, {"v": 2})  # the write sweeps: A expires
        assert store.stats.disk_evictions == 1
        assert not backend.exists("analysis", KEY_A)
        assert backend.exists("analysis", KEY_B)

    def test_sweep_disk_is_explicit_and_counts(self):
        clock = FakeClock()
        backend = MemoryBackend(clock=clock)
        store = ArtifactStore(backend=backend, disk_policy=None, clock=clock)
        store.put("analysis", KEY_A, {"v": 1})
        assert store.sweep_disk() == 0  # no policy: a no-op
        store.disk_policy = TTL(60)
        clock.advance(61)
        assert store.sweep_disk() == 1
        assert store.stats.disk_evictions == 1

    def test_disk_eviction_drops_memory_copy(self, chaos_backend):
        store = ArtifactStore(backend=chaos_backend, disk_policy=MaxBytes(0))
        store.put("analysis", KEY_A, {"v": 1})
        # Evicted from the backend, so no copy is left to read anywhere.
        assert store.get("analysis", KEY_A) is None
        assert store.stats.memory_hits == 0
        assert store.stats.misses == 1
