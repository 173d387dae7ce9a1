"""Unit tests for the disk-backed artifact store (no memory layer of its own)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ServeError
from repro.serve.store import ArtifactStore

KEY_A = "a" * 8


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "cache")


class TestBasicOperations:
    def test_miss_returns_none(self, store):
        assert store.get("analysis", KEY_A) is None
        assert store.stats.misses == 1

    def test_disk_hit_after_memory_eviction(self, store):
        # The store keeps nothing in memory: every read is a backend read.
        store.put("analysis", KEY_A, {"value": 1})
        assert store.get("analysis", KEY_A) == {"value": 1}
        assert store.get("analysis", KEY_A) == {"value": 1}
        assert store.stats.disk_hits == 2
        assert store.stats.memory_hits == 0

    def test_kinds_are_namespaced(self, store):
        store.put("analysis", KEY_A, {"kind": "analysis"})
        store.put("mining", KEY_A, {"kind": "mining"})
        assert store.get("analysis", KEY_A) == {"kind": "analysis"}
        assert store.get("mining", KEY_A) == {"kind": "mining"}
        assert store.keys("analysis") == [KEY_A]
        assert store.keys("mining") == [KEY_A]

    def test_contains_and_delete(self, store):
        assert not store.exists("analysis", KEY_A)
        store.put("analysis", KEY_A, {})
        assert store.exists("analysis", KEY_A)
        assert store.delete("analysis", KEY_A)
        assert not store.exists("analysis", KEY_A)
        assert not store.delete("analysis", KEY_A)

    def test_keys_empty_without_directory(self, tmp_path):
        assert ArtifactStore(tmp_path / "never-created").keys("analysis") == []

    def test_invalid_kind_and_key_rejected(self, store):
        with pytest.raises(ServeError):
            store.path_for("", KEY_A)
        with pytest.raises(ServeError):
            store.path_for("kind/../../escape", KEY_A)
        with pytest.raises(ServeError):
            store.path_for("analysis", "NOT-HEX")

    def test_writes_are_canonical_json(self, store):
        path = store.put("analysis", KEY_A, {"b": 1, "a": 2})
        assert path.read_text(encoding="utf-8") == '{"a":2,"b":1}'

    def test_directory_layout_is_sharded_by_key_prefix(self, store):
        path = store.put("analysis", KEY_A, {})
        assert path.parent.name == KEY_A[:2]
        assert path == store.path_for("analysis", KEY_A)
        assert store.keys("analysis") == [KEY_A]

    def test_delete_increments_deletes_counter(self, store):
        store.put("analysis", KEY_A, {})
        assert store.delete("analysis", KEY_A)
        assert store.stats.deletes == 1
        assert not store.delete("analysis", KEY_A)  # nothing existed
        assert store.stats.deletes == 1
        assert store.stats.to_dict()["deletes"] == 1


class TestCorruptRecovery:
    def test_truncated_file_is_a_miss(self, store):
        store.put("analysis", KEY_A, {"v": 1})
        path = store.path_for("analysis", KEY_A)
        path.write_text('{"v": 1', encoding="utf-8")  # truncated JSON
        assert store.get("analysis", KEY_A) is None
        assert store.stats.corrupt_recovered == 1

    def test_corrupt_file_is_quarantined_and_slot_rewritable(self, store):
        store.put("analysis", KEY_A, {"v": 1})
        path = store.path_for("analysis", KEY_A)
        path.write_text("not json at all", encoding="utf-8")
        assert store.get("analysis", KEY_A) is None
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        store.put("analysis", KEY_A, {"v": 2})
        assert store.get("analysis", KEY_A) == {"v": 2}

    def test_non_object_root_is_a_miss(self, store):
        store.put("analysis", KEY_A, {"v": 1})
        store.path_for("analysis", KEY_A).write_text(json.dumps([1, 2]), encoding="utf-8")
        assert store.get("analysis", KEY_A) is None
        assert store.stats.corrupt_recovered == 1

    def test_quarantine_collision_with_stale_corrupt_file(self, store):
        # A previous quarantine already parked a *.json.corrupt under the
        # target name; quarantining again must not wedge the slot.
        store.put("analysis", KEY_A, {"v": 1})
        path = store.path_for("analysis", KEY_A)
        stale = path.with_suffix(".json.corrupt")
        stale.write_text("stale quarantine", encoding="utf-8")
        path.write_text("fresh corruption", encoding="utf-8")
        assert store.get("analysis", KEY_A) is None
        assert store.stats.corrupt_recovered == 1
        assert not path.exists()
        # The newer corruption replaced the stale quarantine file.
        assert stale.read_text(encoding="utf-8") == "fresh corruption"
        store.put("analysis", KEY_A, {"v": 2})
        assert store.get("analysis", KEY_A) == {"v": 2}

    def test_external_delete_invalidates_memory_layer(self, store, tmp_path):
        store.put("analysis", KEY_A, {"v": 1})
        # Another handle over the same directory deletes the artifact.
        other = ArtifactStore(tmp_path / "cache")
        assert other.delete("analysis", KEY_A)
        assert store.get("analysis", KEY_A) is None
        assert store.stats.misses == 1

    def test_concurrent_readers_quarantine_corrupt_artifact_exactly_once(self, store):
        # Two threads race onto the same corrupt slot: the store's lock
        # serializes the read+quarantine, so exactly one quarantine happens
        # and both readers fall through to a plain miss (the recompute path).
        store.put("analysis", KEY_A, {"v": 1})
        path = store.path_for("analysis", KEY_A)
        path.write_text("not json at all", encoding="utf-8")

        quarantines = []
        inner_quarantine = store._backend.quarantine
        store._backend.quarantine = lambda kind, key: (
            quarantines.append((kind, key)),
            inner_quarantine(kind, key),
        )

        barrier = threading.Barrier(2)
        outcomes: list[object] = []

        def reader() -> None:
            barrier.wait()
            outcomes.append(store.get("analysis", KEY_A))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert outcomes == [None, None]  # both fall through, neither raises
        assert quarantines == [("analysis", KEY_A)]  # exactly once
        assert store.stats.corrupt_recovered == 1
        assert store.stats.misses == 2
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
