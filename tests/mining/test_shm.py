"""The corpus CSR: region packing, region spans, sidecars.

``CorpusMatrix`` holds every transaction's global item ids as one CSR, and
packing a region from it is *exact*: every packed row is the item's
membership over the region's non-empty transactions, as a scan of their
frozensets finds it.  The CSR persists as one memory-mappable sidecar, the
serve layer's warm-start format.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import MiningError, SidecarError
from repro.mining.eclat import EclatMiner
from repro.mining.regions import mine_corpus_with_report
from repro.mining.shm import CORPUS_SIDECAR_VERSION, CorpusMatrix, RegionSpan

ITEMS = [f"ing{k:02d}" for k in range(18)]


def _database(seed: int, n: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [
        [ITEMS[j] for j in rng.choice(len(ITEMS), size=int(rng.integers(2, 7)), replace=False)]
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def regions() -> dict[str, list[list[str]]]:
    return {
        "Big": _database(seed=1, n=90),
        "Medium": _database(seed=2, n=33),
        "Single": _database(seed=3, n=1),
        "Tiny": _database(seed=4, n=7),
    }


@pytest.fixture(scope="module")
def corpus(regions) -> CorpusMatrix:
    return CorpusMatrix.from_transactions(regions)


class TestExtractionIdentity:
    def test_empty_region_round_trips(self):
        corpus = CorpusMatrix.from_transactions(
            {"Empty": [], "Full": _database(seed=9, n=12)}
        )
        empty = corpus.pack("Empty", 1)
        assert empty.n_transactions == 0
        assert empty.items == ()

    def test_regions_sorted_and_span_lookup(self, corpus):
        assert corpus.regions == tuple(sorted(corpus.regions))
        span = corpus.span_of("Big")
        assert isinstance(span, RegionSpan)
        assert span.n_transactions == 90
        with pytest.raises(MiningError):
            corpus.span_of("Atlantis")

    def test_total_shape_accounting(self, regions, corpus):
        assert corpus.n_transactions == sum(len(db) for db in regions.values())
        assert corpus.offsets[-1] == len(corpus.tids)
        assert corpus.tids.dtype == np.int32 and corpus.offsets.dtype == np.int64

    def test_every_region_packs_as_a_frozenset_scan(self, regions, corpus):
        for region, transactions in regions.items():
            matrix = corpus.pack(region, 1)
            membership = np.array(
                [[item in row for row in transactions] for item in matrix.items], dtype=bool
            )
            assert matrix.items == tuple(sorted(frozenset().union(*map(frozenset, transactions))))
            assert np.array_equal(matrix.packed_rows, np.packbits(membership, axis=1))
            assert matrix.item_supports.tolist() == membership.sum(axis=1).tolist()


class TestCsrLayout:
    def test_rows_hold_sorted_distinct_ids(self):
        corpus = CorpusMatrix.from_transactions(
            {"A": [["c", "a", "c", "b"], ["b"]], "B": [["a", "a"], ["c", "b", "a"]]}
        )
        assert corpus.items == ("a", "b", "c")
        assert corpus.offsets.tolist() == [0, 3, 4, 5, 8]
        assert corpus.tids.tolist() == [0, 1, 2, 1, 0, 0, 1, 2]

    def test_region_without_transactions_keeps_an_empty_span(self):
        corpus = CorpusMatrix.from_transactions({"Blank": [[], ()], "Full": [["x"]]})
        assert corpus.regions == ("Blank", "Full")
        assert corpus.span_of("Blank").n_transactions == 0
        assert corpus.span_of("Full") == RegionSpan("Full", 0, 1)
        assert corpus.n_transactions == 1

    def test_non_string_items_become_strings(self):
        corpus = CorpusMatrix.from_transactions({"": [[1, "1", 2.5], ["2.5"]]})
        assert corpus.items == ("1", "2.5")
        assert corpus.offsets.tolist() == [0, 2, 3]

    def test_one_shot_iterables_are_read_once(self):
        rows = {"B": [["y", "x"], ["x"]], "A": [["z"]]}
        one_shot = {region: (iter(row) for row in rows[region]) for region in rows}
        corpus = CorpusMatrix.from_transactions(one_shot)
        expected = CorpusMatrix.from_transactions(rows)
        assert corpus.items == expected.items
        assert corpus.spans == expected.spans
        assert np.array_equal(corpus.tids, expected.tids)
        assert np.array_equal(corpus.offsets, expected.offsets)


class TestCorpusSidecar:
    def test_save_load_round_trip(self, regions, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix, fingerprint="abc123")
        for mmap in (True, False):
            loaded = CorpusMatrix.load(
                prefix, mmap=mmap, expected_fingerprint="abc123"
            )
            assert loaded.regions == corpus.regions
            for region in regions:
                ours, theirs = loaded.pack(region, 1), corpus.pack(region, 1)
                assert ours.items == theirs.items
                assert ours.n_transactions == theirs.n_transactions
                assert np.array_equal(ours.packed_rows, theirs.packed_rows)
                assert np.array_equal(ours.item_supports, theirs.item_supports)

    def test_mining_on_loaded_arena_matches_direct(self, regions, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix, fingerprint="abc123")
        loaded = CorpusMatrix.load(prefix, expected_fingerprint="abc123")
        miner = EclatMiner(0.1, max_length=3)
        mined, _report = mine_corpus_with_report(loaded, miner)
        assert mined == {region: miner.mine(rows) for region, rows in regions.items()}

    def test_memory_map_is_read_only(self, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix)
        loaded = CorpusMatrix.load(prefix, mmap=True)
        assert isinstance(loaded.tids, np.memmap)
        with pytest.raises(ValueError):
            loaded.tids[0] = 1

    def test_stale_fingerprint_rejected(self, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix, fingerprint="old")
        with pytest.raises(SidecarError, match="stale"):
            CorpusMatrix.load(prefix, expected_fingerprint="new")

    def test_missing_and_corrupt_sidecars_rejected(self, corpus, tmp_path):
        with pytest.raises(SidecarError):
            CorpusMatrix.load(tmp_path / "nowhere.matrix")
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix)
        tids_path = prefix.with_name(prefix.name + ".tids.npy")
        tids_path.write_bytes(b"not an npy file")
        with pytest.raises(SidecarError):
            CorpusMatrix.load(prefix)

    def test_wrong_kind_rejected(self, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix)
        meta_path = prefix.with_name(prefix.name + ".meta.json")
        meta = json.loads(meta_path.read_text("utf-8"))
        meta["kind"] = "region"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SidecarError):
            CorpusMatrix.load(prefix)

    def test_version_one_sidecar_is_stale(self, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix)
        meta_path = prefix.with_name(prefix.name + ".meta.json")
        meta = json.loads(meta_path.read_text("utf-8"))
        assert meta["version"] == CORPUS_SIDECAR_VERSION == 2
        meta["version"] = 1
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(SidecarError, match="version"):
            CorpusMatrix.load(prefix)

    def test_wrong_dtype_rejected(self, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix)
        np.save(prefix.with_name(prefix.name + ".tids.npy"), corpus.tids.astype(np.int64))
        with pytest.raises(SidecarError, match="inconsistent"):
            CorpusMatrix.load(prefix)

    def test_save_removes_a_leftover_dense_arena(self, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        leftover = prefix.with_name(prefix.name + ".rows.npy")
        leftover.write_bytes(b"a version-1 dense arena")
        corpus.save(prefix)
        assert not leftover.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "corpus.matrix.meta.json",
            "corpus.matrix.offsets.npy",
            "corpus.matrix.tids.npy",
        ]


# -- the CSR against a frozenset scan, over drawn corpora ------------------------------

# Names shared across kinds and repeated within a transaction, as when a
# recipe's ingredient, process and utensil tuples are concatenated.
_NAMES = ("cream", "grill", "whisk", "salt", "soy sauce", "heat", "pan", "ing07")

_transaction = st.lists(st.sampled_from(_NAMES), max_size=7).map(tuple)
_regions = st.dictionaries(
    st.sampled_from(("East", "North", "South", "West")),
    st.lists(_transaction, max_size=12),
    max_size=4,
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_regions)
def test_region_packing_matches_a_frozenset_scan(tmp_path, regions):
    corpus = CorpusMatrix.from_transactions(regions)
    assert corpus.regions == tuple(sorted(regions))
    prefix = tmp_path / "drawn.matrix"
    corpus.save(prefix, fingerprint="drawn")
    loaded = CorpusMatrix.load(prefix, mmap=True, expected_fingerprint="drawn")
    for region, transactions in regions.items():
        direct = [frozenset(row) for row in transactions if row]
        assert corpus.span_of(region).n_transactions == len(direct)
        for matrix in (corpus.pack(region, 1), loaded.pack(region, 1)):
            assert matrix.n_transactions == len(direct)
            assert matrix.items == tuple(sorted(frozenset().union(*direct)))
            membership = np.array(
                [[item in row for row in direct] for item in matrix.items], dtype=bool
            ).reshape(len(matrix.items), len(direct))
            # With no transactions there are no items either: no rows of one byte.
            packed = np.packbits(membership, axis=1) if direct else np.zeros((0, 1), np.uint8)
            assert np.array_equal(matrix.packed_rows, packed)
            assert matrix.item_supports.tolist() == membership.sum(axis=1).tolist()
