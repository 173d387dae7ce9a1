"""Property-style round-trip tests: from_dict(to_dict(x)) == x for every artifact.

The full-results fixture exercises every artifact type with realistic values;
the hypothesis tests additionally fuzz the small artifacts whose constructors
accept arbitrary data, and the store's packing of float arrays over drawn
nested payloads.  All round-trips go through an :class:`ArtifactStore` --
canonical JSON text of the packed payload, unpacked on the way back -- so
the tests catch anything JSON or packing cannot represent (numpy scalars,
integer dict keys, tuples, the sign of a zero) exactly as the disk store
would.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.elbow import ElbowAnalysis, ElbowPoint
from repro.cluster.fihc import FIHCResult
from repro.cluster.hierarchy import ClusteringRun
from repro.core.config import AnalysisConfig
from repro.core.table1 import Table1
from repro.distances.pdist import CondensedDistanceMatrix
from repro.errors import ServeError
from repro.features.matrix import FeatureMatrix
from repro.geo.comparison import ClaimCheck, TreeComparison
from repro.mining.itemsets import MiningResult, Pattern
from repro.recipedb.stats import CorpusStatistics
from repro.serve import codec
from repro.serve.backends import MemoryBackend
from repro.serve.codec import PACK_MIN_FLOATS
from repro.serve.store import ArtifactStore


def json_roundtrip(payload: dict) -> dict:
    """Push a payload through the store's encoding, as the disk store does."""
    store = ArtifactStore(backend=MemoryBackend())
    store.put("roundtrip", "0", payload)
    restored = store.get("roundtrip", "0")
    assert restored is not None
    return restored


class TestArtifactRoundTrips:
    """Every artifact type reachable from AnalysisResults survives JSON."""

    def test_config(self, full_results):
        config = full_results.config
        assert AnalysisConfig.from_dict(json_roundtrip(config.to_dict())) == config

    def test_corpus_stats(self, full_results):
        stats = full_results.corpus_stats
        assert CorpusStatistics.from_dict(json_roundtrip(stats.to_dict())) == stats

    def test_mining_results(self, full_results):
        for result in full_results.mining_results.values():
            assert MiningResult.from_dict(json_roundtrip(result.to_dict())) == result

    def test_table1(self, full_results):
        table = full_results.table1
        assert Table1.from_dict(json_roundtrip(table.to_dict())) == table

    def test_pattern_features(self, full_results):
        features = full_results.pattern_features
        assert FeatureMatrix.from_dict(json_roundtrip(features.to_dict())) == features

    def test_elbow(self, full_results):
        elbow = full_results.elbow
        assert ElbowAnalysis.from_dict(json_roundtrip(elbow.to_dict())) == elbow

    @pytest.mark.parametrize(
        "figure", ["figure2", "figure3", "figure4", "figure5", "figure6"]
    )
    def test_clustering_runs(self, full_results, figure):
        run = full_results.run_for(figure)
        rebuilt = ClusteringRun.from_dict(json_roundtrip(run.to_dict()))
        assert rebuilt == run
        # The rebuilt dendrogram must behave identically, not just compare equal.
        assert rebuilt.dendrogram.leaf_order() == run.dendrogram.leaf_order()
        assert rebuilt.flat_clusters(3) == run.flat_clusters(3)

    def test_fihc(self, full_results):
        fihc = full_results.fihc
        assert FIHCResult.from_dict(json_roundtrip(fihc.to_dict())) == fihc

    def test_fingerprints(self, full_results):
        from repro.authenticity.fingerprint import CuisineFingerprint

        for fingerprint in full_results.fingerprints.values():
            rebuilt = CuisineFingerprint.from_dict(json_roundtrip(fingerprint.to_dict()))
            assert rebuilt == fingerprint

    def test_tree_comparisons(self, full_results):
        for comparison in full_results.geography_validation.values():
            rebuilt = TreeComparison.from_dict(json_roundtrip(comparison.to_dict()))
            assert rebuilt == comparison
            # JSON stringifies the k keys; they must come back as ints.
            assert all(isinstance(k, int) for k in rebuilt.fowlkes_mallows_by_k)

    def test_claim_checks(self, full_results):
        for checks in full_results.claim_checks.values():
            for check in checks:
                assert ClaimCheck.from_dict(json_roundtrip(check.to_dict())) == check


class TestFullResultsRoundTrip:
    def test_every_field_survives(self, full_results):
        rebuilt = codec.results_from_dict(json_roundtrip(codec.results_to_dict(full_results)))
        assert rebuilt == full_results

    def test_stored_artifact_packs_the_feature_matrices(self, full_results):
        store = ArtifactStore(backend=MemoryBackend())
        store.put("analysis", "0", codec.results_to_dict(full_results))
        stored = codec.loads(store.backend.read("analysis", "0"))
        assert codec.PACKED_MARKER in stored["figure5_authenticity"]["features"]["values"]
        assert codec.PACKED_MARKER in stored["pattern_features"]["values"]
        # The 25 x 4 merge tables stay below the threshold, as decimals.
        assert isinstance(stored["figure2_euclidean"]["linkage_matrix"]["merges"], list)

    def test_distances_bitwise_identical(self, full_results):
        rebuilt = codec.results_from_dict(json_roundtrip(codec.results_to_dict(full_results)))
        for figure in ("figure2", "figure3", "figure4", "figure5", "figure6"):
            original = full_results.run_for(figure).distances.distances
            restored = rebuilt.run_for(figure).distances.distances
            assert np.array_equal(original, restored)

    def test_canonical_json_is_deterministic(self, full_results):
        first = codec.dumps(codec.results_to_dict(full_results))
        second = codec.dumps(codec.results_to_dict(full_results))
        assert first == second

    def test_schema_version_checked(self, full_results):
        payload = codec.results_to_dict(full_results)
        payload["schema_version"] = 999
        with pytest.raises(ServeError):
            codec.results_from_dict(payload)

    def test_malformed_payload_rejected(self, full_results):
        payload = codec.results_to_dict(full_results)
        del payload["table1"]
        with pytest.raises(ServeError):
            codec.results_from_dict(payload)


class TestCacheKeys:
    def test_identical_configs_share_keys(self):
        first = AnalysisConfig(seed=1, scale=0.02)
        second = AnalysisConfig(seed=1, scale=0.02)
        assert codec.analysis_key(first) == codec.analysis_key(second)
        assert codec.mining_key(first) == codec.mining_key(second)

    @pytest.mark.parametrize(
        "override", [{"seed": 2}, {"scale": 0.03}, {"min_support": 0.25}]
    )
    def test_mining_fields_change_both_keys(self, override):
        base = AnalysisConfig(seed=1, scale=0.02)
        changed = base.with_overrides(**override)
        assert codec.analysis_key(base) != codec.analysis_key(changed)
        assert codec.mining_key(base) != codec.mining_key(changed)

    @pytest.mark.parametrize(
        "override",
        [{"linkage_method": "complete"}, {"elbow_k_max": 9}, {"fingerprint_top_k": 4}],
    )
    def test_clustering_fields_keep_the_mining_key(self, override):
        base = AnalysisConfig(seed=1, scale=0.02)
        changed = base.with_overrides(**override)
        assert codec.analysis_key(base) != codec.analysis_key(changed)
        assert codec.mining_key(base) == codec.mining_key(changed)

    def test_unknown_projection_field_rejected(self):
        with pytest.raises(ServeError):
            codec.config_key(AnalysisConfig(), ("seed", "nonsense"))


# -- hypothesis fuzzing of the small artifacts ---------------------------------------

item_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x24F),
    min_size=1,
    max_size=12,
)
supports = st.floats(min_value=1e-6, max_value=1.0, exclude_min=False)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def patterns(draw):
    items = draw(st.frozensets(item_names, min_size=1, max_size=4))
    return Pattern(
        items=items,
        support=draw(supports),
        absolute_support=draw(st.integers(min_value=1, max_value=10_000)),
    )


@st.composite
def mining_results(draw):
    drawn = draw(st.lists(patterns(), min_size=0, max_size=8))
    return MiningResult(
        drawn,
        n_transactions=draw(st.integers(min_value=0, max_value=100_000)),
        min_support=draw(supports),
        algorithm=draw(st.sampled_from(["fpgrowth", "apriori", "eclat", "unknown"])),
    )


class TestHypothesisRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(pattern=patterns())
    def test_pattern(self, pattern):
        assert Pattern.from_dict(json_roundtrip(pattern.to_dict())) == pattern

    @settings(max_examples=50, deadline=None)
    @given(result=mining_results())
    def test_mining_result(self, result):
        assert MiningResult.from_dict(json_roundtrip(result.to_dict())) == result

    @settings(max_examples=50, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(1, 40), st.floats(0, 1e9, allow_nan=False)),
            min_size=0,
            max_size=10,
        ),
        strength=st.floats(0, 1, allow_nan=False),
        has_elbow=st.booleans(),
    )
    def test_elbow(self, points, strength, has_elbow):
        analysis = ElbowAnalysis(
            points=tuple(ElbowPoint(n_clusters=k, wcss=w) for k, w in points),
            elbow_k=points[0][0] if (has_elbow and points) else None,
            elbow_strength=strength,
        )
        assert ElbowAnalysis.from_dict(json_roundtrip(analysis.to_dict())) == analysis

    @settings(max_examples=50, deadline=None)
    @given(
        labels=st.lists(item_names, min_size=1, max_size=8, unique=True),
        metric=st.sampled_from(["euclidean", "cosine", "jaccard", "precomputed"]),
        data=st.data(),
    )
    def test_condensed_matrix(self, labels, metric, data):
        n = len(labels)
        distances = np.asarray(
            data.draw(
                st.lists(
                    st.floats(0, 1e6, allow_nan=False),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                )
            ),
            dtype=np.float64,
        )
        matrix = CondensedDistanceMatrix(tuple(labels), distances, metric=metric)
        rebuilt = CondensedDistanceMatrix.from_dict(json_roundtrip(matrix.to_dict()))
        assert rebuilt == matrix

    @settings(max_examples=50, deadline=None)
    @given(
        gamma=st.floats(-1, 1, allow_nan=False),
        ks=st.dictionaries(st.integers(2, 12), st.floats(0, 1, allow_nan=False), max_size=5),
    )
    def test_tree_comparison(self, gamma, ks):
        comparison = TreeComparison(
            bakers_gamma=gamma, fowlkes_mallows_by_k=dict(ks), adjusted_rand_by_k=dict(ks)
        )
        rebuilt = TreeComparison.from_dict(json_roundtrip(comparison.to_dict()))
        assert rebuilt == comparison

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=9))
    def test_json_floats_are_exact(self, values):
        """The codec's losslessness rests on JSON round-tripping doubles."""
        array = np.asarray(values, dtype=np.float64)
        restored = codec.loads(codec.dumps({"values": array.tolist()}))["values"]
        assert all(
            math.isclose(a, b, rel_tol=0, abs_tol=0)
            for a, b in zip(array.tolist(), restored)
        )


# -- hypothesis fuzzing of the store's packing ---------------------------------------

#: Doubles a lossy encoding would get wrong: signed zeros, subnormals, extremes.
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
     1.7976931348623157e308, 0.1, 1 / 3]
)
any_floats = st.one_of(finite_floats, edge_floats)
scalars = st.one_of(
    any_floats, st.integers(), st.booleans(), st.none(), st.text(max_size=4)
)


@st.composite
def float_arrays(draw):
    """A flat or rectangular float array on either side of the packing
    threshold, sometimes spoiled by one int, bool or ``None`` or a short row."""
    size = draw(st.sampled_from(
        [1, PACK_MIN_FLOATS - 1, PACK_MIN_FLOATS, PACK_MIN_FLOATS + 1, 2 * PACK_MIN_FLOATS]
    ))
    cycle = draw(st.lists(any_floats, min_size=1, max_size=8))
    width = draw(st.sampled_from([None, 1, 3, 16]))
    spoiler = draw(st.one_of(st.just("none"), st.sampled_from(["int", "bool", "null", "ragged"])))
    rows = 1 if width is None else -(-size // width)
    values = [cycle[i % len(cycle)] for i in range(rows * (width or size))]
    if spoiler != "ragged" and spoiler != "none":
        values[draw(st.integers(0, len(values) - 1))] = {"int": 1, "bool": True, "null": None}[spoiler]
    if width is None:
        return values
    matrix = [values[row * width : (row + 1) * width] for row in range(rows)]
    if spoiler == "ragged":
        matrix[-1] = matrix[-1][:-1]
    return matrix


trees = st.recursive(
    st.one_of(float_arrays(), scalars),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=5), children, max_size=3),
    ),
    max_leaves=6,
)
payloads = st.fixed_dictionaries(
    {"arrays": st.lists(float_arrays(), min_size=1, max_size=3), "tree": trees}
)


class TestHypothesisPacking:
    @settings(max_examples=100, deadline=None)
    @given(payload=payloads)
    def test_store_round_trip_is_canonically_identical(self, payload):
        before = codec.dumps(payload)
        assert codec.dumps(json_roundtrip(payload)) == before
        assert codec.dumps(payload) == before  # packing copies, never mutates
