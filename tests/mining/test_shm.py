"""The corpus CSR: region packing identity, lazy region databases, sidecars.

``CorpusMatrix`` holds every transaction's global item ids as one CSR, and
packing a region from it is *exact*: it must reproduce the matrix a direct
``TransactionMatrix`` compile of that region's transactions would build --
same vocabulary, same packed bytes, same transaction-id arrays.  The CSR
persists as one memory-mappable sidecar, the serve layer's warm-start
format.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import MiningError, SidecarError
from repro.mining.bitmatrix import TransactionMatrix
from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import TransactionDatabase
from repro.mining.shm import CORPUS_SIDECAR_VERSION, CorpusMatrix, RegionSpan

ITEMS = [f"ing{k:02d}" for k in range(18)]


def _database(seed: int, n: int) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    return TransactionDatabase(
        [
            [ITEMS[j] for j in rng.choice(len(ITEMS), size=int(rng.integers(2, 7)), replace=False)]
            for _ in range(n)
        ]
    )


@pytest.fixture(scope="module")
def regions() -> dict[str, TransactionDatabase]:
    return {
        "Big": _database(seed=1, n=90),
        "Medium": _database(seed=2, n=33),
        "Single": _database(seed=3, n=1),
        "Tiny": _database(seed=4, n=7),
    }


@pytest.fixture(scope="module")
def corpus(regions) -> CorpusMatrix:
    return CorpusMatrix.from_transactions(regions)


def _assert_matrices_identical(extracted: TransactionMatrix, direct: TransactionMatrix):
    assert extracted.items == direct.items
    assert extracted.n_transactions == direct.n_transactions
    assert extracted.n_words == direct.n_words
    assert np.array_equal(extracted.packed_rows, direct.packed_rows)
    assert np.array_equal(extracted.item_supports, direct.item_supports)
    assert len(extracted.transaction_id_arrays()) == len(direct.transaction_id_arrays())
    for ours, theirs in zip(
        extracted.transaction_id_arrays(), direct.transaction_id_arrays()
    ):
        assert np.array_equal(ours, theirs)


class TestExtractionIdentity:
    def test_every_region_extracts_byte_identical(self, regions, corpus):
        for region, database in regions.items():
            extracted = corpus.region_matrix(region)
            direct = TransactionMatrix(database.transactions)
            _assert_matrices_identical(extracted, direct)

    def test_extracted_database_mines_identically(self, regions, corpus):
        miner = EclatMiner(0.1, max_length=3)
        for region, database in regions.items():
            assert miner.mine(corpus.region_database(region)) == miner.mine(database)

    def test_lazy_region_database_materialises_identically(self, regions, corpus):
        for region, database in regions.items():
            lazy = corpus.region_database(region)
            # Matrix-backed answers first: nothing needs the frozensets yet.
            assert len(lazy) == len(database)
            assert lazy.item_counts() == database.item_counts()
            assert lazy._transactions is None
            assert lazy == database  # forces materialisation
            assert lazy.transactions == database.transactions
            assert lazy.vocabulary() == database.vocabulary()
        big = corpus.region_database("Big")
        pair = sorted(big.vocabulary())[:2]
        assert big.absolute_support(pair) == regions["Big"].absolute_support(pair)

    def test_empty_region_round_trips(self):
        corpus = CorpusMatrix.from_transactions(
            {"Empty": TransactionDatabase([]), "Full": _database(seed=9, n=12)}
        )
        empty = corpus.region_matrix("Empty")
        assert empty.n_transactions == 0
        assert empty.items == ()
        _assert_matrices_identical(
            corpus.region_matrix("Full"),
            TransactionMatrix(_database(seed=9, n=12).transactions),
        )

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


class TestCorpusSidecar:
    def test_save_load_round_trip(self, regions, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix, fingerprint="abc123")
        for mmap in (True, False):
            loaded = CorpusMatrix.load(
                prefix, mmap=mmap, expected_fingerprint="abc123"
            )
            assert loaded.regions == corpus.regions
            for region, database in regions.items():
                _assert_matrices_identical(
                    loaded.region_matrix(region),
                    TransactionMatrix(database.transactions),
                )

    def test_mining_on_loaded_arena_matches_direct(self, regions, corpus, tmp_path):
        prefix = tmp_path / "corpus.matrix"
        corpus.save(prefix, fingerprint="abc123")
        loaded = CorpusMatrix.load(prefix, expected_fingerprint="abc123")
        miner = EclatMiner(0.1, max_length=3)
        for region, database in regions.items():
            assert miner.mine(loaded.region_database(region)) == miner.mine(database)

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


# -- the CSR against TransactionDatabase, over drawn corpora -------------------------

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
def test_region_packing_matches_a_direct_compile(tmp_path, regions):
    corpus = CorpusMatrix.from_transactions(regions)
    assert corpus.regions == tuple(sorted(regions))
    prefix = tmp_path / "drawn.matrix"
    corpus.save(prefix, fingerprint="drawn")
    loaded = CorpusMatrix.load(prefix, mmap=True, expected_fingerprint="drawn")
    for region, transactions in regions.items():
        direct = TransactionDatabase(transactions).matrix()
        assert corpus.span_of(region).n_transactions == direct.n_transactions
        _assert_matrices_identical(corpus.region_matrix(region), direct)
        _assert_matrices_identical(loaded.region_matrix(region), direct)
