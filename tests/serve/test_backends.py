"""Backend parity: the storage contract holds for both backends.

Every parametrized test here runs twice (directory / memory) through the
fixtures in ``conftest.py``.  The corrupt-payload tests inject bad text
through the backend's own ``write``, so validation and quarantine are
exercised identically regardless of how each backend stores bytes.  The
store and service tests build their stores over ``chaos_backend``, so the
CI chaos plan's faults fire under them; the contract tests call the raw
backend.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.config import AnalysisConfig
from repro.errors import ServeError
from repro.serve.backends import DirectoryBackend, MemoryBackend
from repro.serve.eviction import parse_policy
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

    def test_corrupt_backend_payload_is_quarantined_miss(self, any_backend, any_store):
        any_backend.write("analysis", KEY_A, "not json at all")
        assert any_store.get("analysis", KEY_A) is None
        assert any_store.stats.corrupt_recovered == 1
        assert any_store.stats.misses == 1
        # Quarantine cleared the slot: a rewrite works and reads back.
        any_store.put("analysis", KEY_A, {"v": 2})
        assert any_store.get("analysis", KEY_A) == {"v": 2}
        assert any_store.stats.disk_hits == 1

    def test_non_object_root_is_a_miss(self, any_backend, any_store):
        any_backend.write("analysis", KEY_A, "[1, 2]")
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

    def test_served_results_identical_across_backends(self, chaos_backend):
        # The memory backend needs a root for corpus snapshots; the fixture
        # anchored every backend at tmp_path/cache, so it already has one.
        service = AnalysisService(ArtifactStore(backend=chaos_backend))
        computed = service.get_or_run(self.CONFIG)
        assert computed.source == "computed"
        again = service.get_or_run(self.CONFIG)
        assert again.source == "memory"
        # A fresh service over the *same backend* must hit durable storage.
        fresh = AnalysisService(ArtifactStore(backend=chaos_backend))
        reloaded = fresh.get_or_run(self.CONFIG)
        assert reloaded.source == "disk"
        assert reloaded.results == computed.results

    def test_invalidate_across_handles(self, chaos_backend):
        service = AnalysisService(ArtifactStore(backend=chaos_backend))
        service.get_or_run(self.CONFIG)
        other = AnalysisService(ArtifactStore(backend=chaos_backend))
        assert other.invalidate(self.CONFIG)
        assert service.get_or_run(self.CONFIG).source == "computed"


class TestBackendConstruction:
    def test_directory_backend_shards_by_key_prefix(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.write("analysis", "ab" + "0" * 6, "{}")
        assert (tmp_path / "ab" / ("analysis-ab" + "0" * 6 + ".json")).exists()
        assert backend.keys("analysis") == ["ab" + "0" * 6]

    def test_describe_names_the_fixed_layout(self, tmp_path):
        assert DirectoryBackend(tmp_path).describe() == f"directory (256 shards) at {tmp_path}"

    def test_root_level_flat_files_are_not_artifacts(self, tmp_path):
        # Artifacts live only in the key[:2] shards.  A pre-sharding flat
        # file at the root is never read, listed, quarantined or evicted,
        # so its config is recomputed instead of served.
        flat = tmp_path / f"analysis-{KEY_A}.json"
        flat.write_text('{"v":1}', encoding="utf-8")
        corrupt = tmp_path / f"mining-{KEY_B}.json"
        corrupt.write_text("not json", encoding="utf-8")
        corpus = tmp_path / ("corpus-" + "9" * 8 + ".json")
        corpus.write_text("{}", encoding="utf-8")
        backend = DirectoryBackend(tmp_path)
        assert backend.read("analysis", KEY_A) is None
        assert not backend.exists("analysis", KEY_A)
        assert backend.keys("analysis") == []
        assert list(backend.entries()) == []

        store = ArtifactStore(backend=backend, disk_policy=parse_policy("maxbytes:1"))
        assert store.get("analysis", KEY_A) is None
        assert store.get("mining", KEY_B) is None
        assert store.stats.misses == 2
        assert store.stats.corrupt_recovered == 0
        # The sweep after a sharded write evicts that artifact alone.
        store.put("analysis", KEY_C, {"v": 2})
        assert store.stats.disk_evictions == 1
        assert not store.exists("analysis", KEY_C)
        assert sorted(path.name for path in tmp_path.glob("*.json*")) == sorted(
            [flat.name, corrupt.name, corpus.name]
        )

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


class TestDirectoryLeaseSteal:
    """Two claimants racing to steal one expired directory lease."""

    def test_concurrent_steal_has_one_winner(self, tmp_path, monkeypatch):
        # X's lease expired at t=1.  A reads it at t=10; before A steals it,
        # B claims at t=10 in a second thread.  Exactly one of A and B may
        # win, and lease() must name the winner.
        backend = DirectoryBackend(tmp_path)
        assert backend.claim("analysis", KEY_A, "x", 1.0, now=0.0)
        read_lease_file = backend._read_lease_file
        won: dict[str, object] = {}
        b_done = threading.Event()

        def claim_b() -> None:
            won["b"] = backend.claim("analysis", KEY_A, "b", 5.0, now=10.0)
            b_done.set()

        b_thread = threading.Thread(target=claim_b)

        def read_then_let_b_run(path):
            stored = read_lease_file(path)
            if not won:  # A's first read: B claims before A acts on it
                won["reading"] = stored
                b_thread.start()
                # B finishes here unless A's read holds it back.
                b_done.wait(timeout=0.5)
            return stored

        monkeypatch.setattr(backend, "_read_lease_file", read_then_let_b_run)
        won["a"] = backend.claim("analysis", KEY_A, "a", 5.0, now=10.0)
        b_thread.join(timeout=30)
        assert not b_thread.is_alive()
        assert won["reading"] == ("x", 1.0)

        winners = [owner for owner in ("a", "b") if won[owner] is not None]
        assert len(winners) == 1
        held = backend.lease("analysis", KEY_A, now=10.0)
        assert held is not None and held.owner == winners[0]

    def test_threaded_steals_have_one_winner_per_round(self, tmp_path):
        # Eight threads (more than cores) contend for one slot per round;
        # each round's lease has expired by the next round's clock.
        backend = DirectoryBackend(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(1, 21):
                now = 10.0 * round_number
                barrier = threading.Barrier(8)
                winners: list[str] = []

                def contend(owner: str) -> None:
                    barrier.wait(timeout=30)
                    if backend.claim("analysis", KEY_A, owner, 5.0, now=now) is not None:
                        winners.append(owner)

                threads = [
                    threading.Thread(target=contend, args=(f"owner-{index}",))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(winners) == 1, f"round {round_number}: {winners}"
                assert backend.lease("analysis", KEY_A, now=now).owner == winners[0]
        finally:
            sys.setswitchinterval(interval)
