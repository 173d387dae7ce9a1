"""Backend parity: the storage contract holds for all three backends.

Every test here runs three times (directory / sqlite / memory) through the
parametrized fixtures in ``conftest.py``.  The corrupt-payload tests inject
bad text through the backend's own ``write``, so validation and quarantine
are exercised identically regardless of how each backend stores bytes.
"""

from __future__ import annotations

import pytest

from repro.core.config import AnalysisConfig
from repro.errors import ServeError
from repro.serve.backends import (
    DirectoryBackend,
    MemoryBackend,
    SqliteBackend,
    create_backend,
)
from repro.serve.service import AnalysisService
from repro.serve.store import ArtifactStore

KEY_A = "a" * 8
KEY_B = "b" * 8
KEY_C = "c" * 8


class TestBackendContract:
    def test_read_absent_is_none(self, any_backend):
        assert any_backend.read("analysis", KEY_A) is None
        assert not any_backend.exists("analysis", KEY_A)

    def test_write_read_roundtrip_is_byte_identical(self, any_backend):
        text = '{"a":2,"b":1}'
        any_backend.write("analysis", KEY_A, text)
        assert any_backend.read("analysis", KEY_A) == text
        assert any_backend.exists("analysis", KEY_A)

    def test_rewrite_replaces(self, any_backend):
        any_backend.write("analysis", KEY_A, '{"v":1}')
        any_backend.write("analysis", KEY_A, '{"v":2}')
        assert any_backend.read("analysis", KEY_A) == '{"v":2}'

    def test_delete(self, any_backend):
        any_backend.write("analysis", KEY_A, "{}")
        assert any_backend.delete("analysis", KEY_A)
        assert not any_backend.delete("analysis", KEY_A)
        assert any_backend.read("analysis", KEY_A) is None

    def test_keys_are_kind_namespaced_and_sorted(self, any_backend):
        any_backend.write("analysis", KEY_B, "{}")
        any_backend.write("analysis", KEY_A, "{}")
        any_backend.write("mining", KEY_C, "{}")
        any_backend.write("miningindex", KEY_A, "{}")
        assert any_backend.keys("analysis") == [KEY_A, KEY_B]
        assert any_backend.keys("mining") == [KEY_C]
        assert any_backend.keys("miningindex") == [KEY_A]

    def test_entries_and_total_bytes(self, any_backend):
        any_backend.write("analysis", KEY_A, '{"v":1}')
        any_backend.write("mining", KEY_B, '{"vv":22}')
        entries = {(e.kind, e.key): e for e in any_backend.entries()}
        assert set(entries) == {("analysis", KEY_A), ("mining", KEY_B)}
        assert entries[("analysis", KEY_A)].size_bytes == len('{"v":1}')
        assert any_backend.total_bytes() == len('{"v":1}') + len('{"vv":22}')
        assert set(any_backend.scan()) == set(entries)

    def test_quarantine_removes_from_namespace(self, any_backend):
        any_backend.write("analysis", KEY_A, "not json")
        any_backend.quarantine("analysis", KEY_A)
        assert any_backend.read("analysis", KEY_A) is None
        assert any_backend.keys("analysis") == []
        # The slot is rewritable after quarantine.
        any_backend.write("analysis", KEY_A, '{"v":2}')
        assert any_backend.read("analysis", KEY_A) == '{"v":2}'

    def test_invalid_names_rejected(self, any_backend):
        with pytest.raises(ServeError):
            any_backend.write("", KEY_A, "{}")
        with pytest.raises(ServeError):
            any_backend.write("kind/../../escape", KEY_A, "{}")
        with pytest.raises(ServeError):
            any_backend.read("analysis", "NOT-HEX")


class TestStoreOverAnyBackend:
    def test_put_get_memory_then_backend(self, any_store):
        # The store keeps no memory copy: each read goes to the backend.
        any_store.put("analysis", KEY_A, {"value": 1})
        assert any_store.get("analysis", KEY_A) == {"value": 1}
        assert any_store.get("analysis", KEY_A) == {"value": 1}
        assert any_store.stats.disk_hits == 2
        assert any_store.stats.memory_hits == 0

    def test_corrupt_backend_payload_is_quarantined_miss(self, any_store):
        any_store.backend.write("analysis", KEY_A, "not json at all")
        assert any_store.get("analysis", KEY_A) is None
        assert any_store.stats.corrupt_recovered == 1
        assert any_store.stats.misses == 1
        # Quarantine cleared the slot: a rewrite works and reads back.
        any_store.put("analysis", KEY_A, {"v": 2})
        assert any_store.get("analysis", KEY_A) == {"v": 2}
        assert any_store.stats.disk_hits == 1

    def test_non_object_root_is_a_miss(self, any_store):
        any_store.backend.write("analysis", KEY_A, "[1, 2]")
        assert any_store.get("analysis", KEY_A) is None
        assert any_store.stats.corrupt_recovered == 1

    def test_deletes_and_bytes_written_counters(self, any_store):
        any_store.put("analysis", KEY_A, {"v": 1})
        assert any_store.stats.bytes_written == len('{"v":1}')
        assert any_store.delete("analysis", KEY_A)
        assert not any_store.delete("analysis", KEY_A)
        assert any_store.stats.deletes == 1
        assert any_store.stats.to_dict()["deletes"] == 1


class TestServiceOverAnyBackend:
    CONFIG = AnalysisConfig(seed=11, scale=0.02, elbow_k_max=6)

    def test_served_results_identical_across_backends(self, any_backend):
        # The memory backend needs a root for corpus snapshots; create_backend
        # anchored every backend at tmp_path/cache, so it already has one.
        service = AnalysisService(ArtifactStore(backend=any_backend))
        computed = service.get_or_run(self.CONFIG)
        assert computed.source == "computed"
        again = service.get_or_run(self.CONFIG)
        assert again.source == "memory"
        # A fresh service over the *same backend* must hit durable storage.
        fresh = AnalysisService(ArtifactStore(backend=any_backend))
        reloaded = fresh.get_or_run(self.CONFIG)
        assert reloaded.source == "disk"
        assert reloaded.results == computed.results

    def test_invalidate_across_handles(self, any_backend):
        service = AnalysisService(ArtifactStore(backend=any_backend))
        service.get_or_run(self.CONFIG)
        other = AnalysisService(ArtifactStore(backend=any_backend))
        assert other.invalidate(self.CONFIG)
        assert service.get_or_run(self.CONFIG).source == "computed"


class TestBackendConstruction:
    def test_create_backend_maps_names(self, tmp_path):
        assert isinstance(create_backend("directory", tmp_path), DirectoryBackend)
        assert isinstance(create_backend("sqlite", tmp_path), SqliteBackend)
        assert isinstance(create_backend("memory", tmp_path), MemoryBackend)
        with pytest.raises(ServeError):
            create_backend("s3", tmp_path)

    def test_directory_backend_shards_by_key_prefix(self, tmp_path):
        backend = DirectoryBackend(tmp_path, shards=256)
        backend.write("analysis", "ab" + "0" * 6, "{}")
        assert (tmp_path / "ab" / ("analysis-ab" + "0" * 6 + ".json")).exists()
        assert backend.keys("analysis") == ["ab" + "0" * 6]

    def test_sharded_backend_reads_legacy_flat_files(self, tmp_path):
        # A cache warmed before sharding keeps serving: reads, probes, scans
        # and deletes fall back to the flat root/<kind>-<key>.json location.
        flat = DirectoryBackend(tmp_path, shards=0)
        flat.write("analysis", KEY_A, '{"v":1}')
        (tmp_path / ("corpus-" + "9" * 8 + ".json")).write_text("{}", encoding="utf-8")
        sharded = DirectoryBackend(tmp_path, shards=256)
        assert sharded.read("analysis", KEY_A) == '{"v":1}'
        assert sharded.exists("analysis", KEY_A)
        assert sharded.keys("analysis") == [KEY_A]
        assert [(e.kind, e.key) for e in sharded.entries()] == [("analysis", KEY_A)]
        # A rewrite lands in the sharded location and wins over the flat copy.
        sharded.write("analysis", KEY_A, '{"v":2}')
        assert sharded.read("analysis", KEY_A) == '{"v":2}'
        assert len(sharded.keys("analysis")) == 1
        # Delete removes both copies so the flat one cannot resurrect.
        assert sharded.delete("analysis", KEY_A)
        assert not sharded.exists("analysis", KEY_A)
        assert not (tmp_path / f"analysis-{KEY_A}.json").exists()

    def test_sharded_store_serves_legacy_flat_cache(self, tmp_path):
        flat_store = ArtifactStore(tmp_path)
        flat_store.backend.shards = 0  # simulate the pre-sharding writer
        flat_store.put("analysis", KEY_A, {"v": 1})
        upgraded = ArtifactStore(tmp_path)
        assert upgraded.get("analysis", KEY_A) == {"v": 1}
        assert upgraded.stats.disk_hits == 1
        assert upgraded.stats.misses == 0

    def test_corrupt_legacy_flat_file_is_quarantined(self, tmp_path):
        flat = DirectoryBackend(tmp_path, shards=0)
        flat.write("analysis", KEY_A, "not json")
        store = ArtifactStore(tmp_path)
        assert store.get("analysis", KEY_A) is None
        assert store.stats.corrupt_recovered == 1
        assert (tmp_path / f"analysis-{KEY_A}.json.corrupt").exists()

    def test_directory_backend_flat_layout(self, tmp_path):
        backend = DirectoryBackend(tmp_path, shards=0)
        backend.write("analysis", KEY_A, "{}")
        assert (tmp_path / f"analysis-{KEY_A}.json").exists()
        assert backend.keys("analysis") == [KEY_A]

    def test_directory_backend_rejects_bad_shards(self, tmp_path):
        with pytest.raises(ServeError):
            DirectoryBackend(tmp_path, shards=-1)
        with pytest.raises(ServeError):
            DirectoryBackend(tmp_path, shards=1000)

    def test_sqlite_backend_is_one_file(self, tmp_path):
        backend = create_backend("sqlite", tmp_path / "cache")
        backend.write("analysis", KEY_A, "{}")
        assert (tmp_path / "cache" / "artifacts.sqlite").exists()
        backend.close()

    def test_sqlite_quarantine_preserves_payload(self, tmp_path):
        backend = SqliteBackend(tmp_path / "artifacts.sqlite")
        backend.write("analysis", KEY_A, "broken payload")
        backend.quarantine("analysis", KEY_A)
        assert backend.quarantined() == [("analysis", KEY_A)]
        # A second quarantine of the same slot replaces the stale one.
        backend.write("analysis", KEY_A, "broken again")
        backend.quarantine("analysis", KEY_A)
        assert backend.quarantined() == [("analysis", KEY_A)]
        backend.close()

    def test_store_requires_root_or_backend(self):
        with pytest.raises(ServeError):
            ArtifactStore()

    def test_path_for_only_on_path_backends(self, tmp_path):
        store = ArtifactStore(backend=MemoryBackend())
        with pytest.raises(ServeError):
            store.path_for("analysis", KEY_A)
        sharded = ArtifactStore(tmp_path)
        assert sharded.path_for("analysis", KEY_A).name == f"analysis-{KEY_A}.json"


class TestLeaseContract:
    """Compute-lease parity: claim/renew/release/steal behave identically
    across every backend (all take an injectable ``now`` for determinism)."""

    def test_cold_claim_wins(self, any_backend):
        lease = any_backend.claim("analysis", KEY_A, "alpha", 10.0, now=100.0)
        assert lease is not None
        assert (lease.owner, lease.expires_at) == ("alpha", 110.0)
        assert not lease.expired(now=109.9)
        assert lease.expired(now=110.0)

    def test_live_lease_blocks_other_owners(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 10.0, now=100.0)
        assert any_backend.claim("analysis", KEY_A, "beta", 10.0, now=105.0) is None
        held = any_backend.lease("analysis", KEY_A, now=105.0)
        assert held is not None and held.owner == "alpha"

    def test_reclaim_by_live_holder_renews(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 10.0, now=100.0)
        again = any_backend.claim("analysis", KEY_A, "alpha", 10.0, now=105.0)
        assert again is not None and again.expires_at == 115.0

    def test_expired_lease_is_stolen(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 5.0, now=100.0)
        stolen = any_backend.claim("analysis", KEY_A, "beta", 5.0, now=106.0)
        assert stolen is not None and stolen.owner == "beta"

    def test_renew_requires_live_ownership(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 5.0, now=100.0)
        assert any_backend.renew("analysis", KEY_A, "beta", 5.0, now=101.0) is None
        assert any_backend.renew("analysis", KEY_A, "alpha", 5.0, now=106.0) is None
        renewed = any_backend.renew("analysis", KEY_A, "alpha", 5.0, now=104.0)
        assert renewed is not None and renewed.expires_at == 109.0

    def test_release_only_drops_own_lease(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 5.0, now=100.0)
        assert not any_backend.release("analysis", KEY_A, "beta")
        assert any_backend.release("analysis", KEY_A, "alpha")
        assert not any_backend.release("analysis", KEY_A, "alpha")
        assert any_backend.lease("analysis", KEY_A, now=100.0) is None

    def test_stale_release_never_clobbers_a_successor(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 5.0, now=100.0)
        assert any_backend.claim("analysis", KEY_A, "beta", 5.0, now=106.0)
        # alpha crashed, beta stole; alpha's late release must be a no-op.
        assert not any_backend.release("analysis", KEY_A, "alpha")
        held = any_backend.lease("analysis", KEY_A, now=107.0)
        assert held is not None and held.owner == "beta"

    def test_leases_are_slot_scoped(self, any_backend):
        assert any_backend.claim("analysis", KEY_A, "alpha", 5.0, now=100.0)
        assert any_backend.claim("analysis", KEY_B, "beta", 5.0, now=100.0)
        assert any_backend.claim("mining", KEY_A, "gamma", 5.0, now=100.0)
        assert any_backend.lease("analysis", KEY_A, now=101.0).owner == "alpha"
        assert any_backend.lease("analysis", KEY_B, now=101.0).owner == "beta"
        assert any_backend.lease("mining", KEY_A, now=101.0).owner == "gamma"

    def test_leases_are_invisible_to_artifact_scans(self, any_backend):
        any_backend.write("analysis", KEY_A, "{}")
        assert any_backend.claim("analysis", KEY_B, "alpha", 60.0, now=100.0)
        assert any_backend.keys("analysis") == [KEY_A]
        assert {(e.kind, e.key) for e in any_backend.entries()} == {
            ("analysis", KEY_A)
        }

    def test_bad_owner_and_ttl_rejected(self, any_backend):
        with pytest.raises(ServeError):
            any_backend.claim("analysis", KEY_A, "", 5.0)
        with pytest.raises(ServeError):
            any_backend.claim("analysis", KEY_A, "evil\nowner", 5.0)
        with pytest.raises(ServeError):
            any_backend.claim("analysis", KEY_A, "alpha", 0.0)
