"""Unit tests for the disk-backed artifact store (no memory layer of its own)."""

from __future__ import annotations

import base64
import json
import math
import threading

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve.codec import PACK_MIN_FLOATS, PACKED_MARKER, dumps
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


def packed(values, shape) -> dict[str, object]:
    """A packed array node holding *values* (little-endian float64)."""
    data = np.asarray(values, dtype="<f8").tobytes()
    return {PACKED_MARKER: base64.b64encode(data).decode("ascii"), "shape": shape}


#: One malformed node per way a packed array can be corrupt.
MALFORMED_NODES = {
    "bad-base64": {PACKED_MARKER: "not*base64", "shape": [1]},
    "bad-padding": {PACKED_MARKER: "AAAAAAAAAAA", "shape": [1]},
    "short-data": packed([1.0, 2.0], [3]),
    "long-data": packed([1.0, 2.0], [1]),
    "negative-shape": packed([], [-1]),
    "float-shape": packed([1.0], [1.0]),
    "bool-shape": packed([1.0], [True]),
    "shape-not-a-list": packed([1.0], 1),
    "empty-shape": packed([1.0], []),
    "three-axis-shape": packed([1.0], [1, 1, 1]),
    "nan": packed([1.0, math.nan], [2]),
    "infinity": packed([-math.inf], [1]),
    "data-not-a-string": {PACKED_MARKER: 7, "shape": [0]},
    "extra-key": {**packed([1.0], [1]), "dtype": "f8"},
    "missing-shape": {PACKED_MARKER: packed([1.0], [1])[PACKED_MARKER]},
}


class TestPackedArtifacts:
    def test_large_float_arrays_are_packed_on_disk(self, store):
        floats = [i / 7 for i in range(PACK_MIN_FLOATS)]
        payload = {
            "flat": floats,
            "matrix": [floats[:16]] * (PACK_MIN_FLOATS // 16),
            "small": floats[:-1],
            "with-int": floats[:-1] + [1],
            "with-bool": floats[:-1] + [True],
            "with-none": floats[:-1] + [None],
            "ragged": [floats[:16]] * (PACK_MIN_FLOATS // 16) + [floats[:15]],
            "nested": [{"values": floats}],
        }
        path = store.put("analysis", KEY_A, payload)
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        kept = {name for name, value in on_disk.items() if value == payload[name]}
        assert kept == {"small", "with-int", "with-bool", "with-none", "ragged"}
        assert on_disk["flat"]["shape"] == [PACK_MIN_FLOATS]
        assert on_disk["matrix"]["shape"] == [PACK_MIN_FLOATS // 16, 16]
        assert PACKED_MARKER in on_disk["nested"][0]["values"]
        assert store.get("analysis", KEY_A) == payload

    def test_round_trip_is_bit_exact(self, store):
        specials = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 1 / 3]
        values = specials * (PACK_MIN_FLOATS // len(specials) + 1)
        store.put("analysis", KEY_A, {"values": values})
        restored = store.get("analysis", KEY_A)["values"]
        assert [math.copysign(1.0, x) for x in restored] == [
            math.copysign(1.0, x) for x in values
        ]
        assert np.asarray(restored).tobytes() == np.asarray(values).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [1, PACK_MIN_FLOATS])
    def test_non_finite_float_raises_at_put(self, store, bad, size):
        with pytest.raises(ValueError):
            store.put("analysis", KEY_A, {"values": [0.5] * (size - 1) + [bad]})
        assert not store.exists("analysis", KEY_A)
        assert store.stats.writes == 0

    def test_marker_key_in_a_payload_raises_at_put(self, store):
        with pytest.raises(ValueError):
            store.put("analysis", KEY_A, {"meta": {PACKED_MARKER: "x", "shape": [0]}})
        assert not store.exists("analysis", KEY_A)

    def test_all_decimal_artifact_reads_as_it_is(self, store):
        floats = [i / 7 for i in range(PACK_MIN_FLOATS)]
        payload = {"flat": floats, "matrix": [floats] * 2}
        store.put("analysis", KEY_A, {})
        store.path_for("analysis", KEY_A).write_text(dumps(payload), encoding="utf-8")
        assert store.get("analysis", KEY_A) == payload
        assert store.stats.corrupt_recovered == 0

    @pytest.mark.parametrize("node", MALFORMED_NODES.values(), ids=MALFORMED_NODES.keys())
    def test_malformed_packed_node_is_a_quarantined_miss(self, store, node):
        store.put("analysis", KEY_A, {"v": 1})
        path = store.path_for("analysis", KEY_A)
        path.write_text(json.dumps({"rows": [{"values": node}]}), encoding="utf-8")
        assert store.get("analysis", KEY_A) is None
        assert store.stats.corrupt_recovered == 1
        assert store.stats.misses == 1
        assert not path.exists()
        assert path.with_suffix(".json.corrupt").exists()
        store.put("analysis", KEY_A, {"v": 2})
        assert store.get("analysis", KEY_A) == {"v": 2}

    def test_too_deeply_nested_artifact_is_a_quarantined_miss(self, store):
        store.put("analysis", KEY_A, {"v": 1})
        path = store.path_for("analysis", KEY_A)
        path.write_text('{"v":' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        assert store.get("analysis", KEY_A) is None
        assert store.stats.corrupt_recovered == 1
