"""Unit tests for agglomerative linkage, cross-checked against scipy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster import hierarchy as scipy_hierarchy
from scipy.spatial.distance import pdist as scipy_pdist

from repro.errors import ClusteringError
from repro.cluster.linkage import LINKAGE_METHODS, LinkageMatrix, linkage, linkage_naive
from repro.distances.pdist import CondensedDistanceMatrix, pairwise_distances
from repro.features.matrix import FeatureMatrix


def _condensed_from_points(points: np.ndarray) -> CondensedDistanceMatrix:
    labels = tuple(f"p{i}" for i in range(points.shape[0]))
    features = FeatureMatrix(labels, tuple(f"d{j}" for j in range(points.shape[1])), points)
    return pairwise_distances(features, metric="euclidean")


class TestLinkageBasics:
    def test_two_points(self):
        condensed = CondensedDistanceMatrix(("A", "B"), np.array([2.5]))
        result = linkage(condensed, method="single")
        assert len(result) == 1
        left, right, height, size = result.merges[0]
        assert {int(left), int(right)} == {0, 1}
        assert height == pytest.approx(2.5)
        assert size == 2

    def test_unknown_method_rejected(self):
        condensed = CondensedDistanceMatrix(("A", "B"), np.array([1.0]))
        with pytest.raises(ClusteringError):
            linkage(condensed, method="centroid")

    def test_single_observation_rejected(self):
        condensed = CondensedDistanceMatrix(("A",), np.array([]))
        with pytest.raises(ClusteringError):
            linkage(condensed)

    def test_linkage_matrix_shape_validation(self):
        with pytest.raises(ClusteringError):
            LinkageMatrix(np.zeros((3, 4)), ("A", "B"), "average", "euclidean")

    def test_monotone_heights(self):
        rng = np.random.default_rng(0)
        condensed = _condensed_from_points(rng.normal(size=(12, 3)))
        for method in LINKAGE_METHODS:
            result = linkage(condensed, method=method)
            heights = result.heights
            assert np.all(np.diff(heights) >= -1e-9), method

    def test_final_cluster_contains_everything(self):
        rng = np.random.default_rng(1)
        condensed = _condensed_from_points(rng.normal(size=(8, 2)))
        result = linkage(condensed, method="average")
        assert result.merges[-1, 3] == 8

    def test_obvious_two_cluster_structure(self):
        points = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [10.0, 10.0], [10.1, 10.0], [10.0, 10.1]]
        )
        condensed = _condensed_from_points(points)
        result = linkage(condensed, method="average")
        # The final merge height must be much larger than all earlier ones.
        heights = result.heights
        assert heights[-1] > 10 * heights[-2]


class TestAgainstScipy:
    @pytest.mark.parametrize("method", ["single", "complete", "average", "weighted", "ward"])
    def test_heights_match_scipy(self, method):
        rng = np.random.default_rng(42)
        points = rng.normal(size=(15, 4))
        condensed = _condensed_from_points(points)
        ours = linkage(condensed, method=method)
        reference = scipy_hierarchy.linkage(scipy_pdist(points), method=method)
        # Merge order can differ under ties, but the sorted height profile and
        # the cophenetic distances must match.
        np.testing.assert_allclose(
            np.sort(ours.heights), np.sort(reference[:, 2]), rtol=1e-8, atol=1e-10
        )

    @pytest.mark.parametrize("method", ["single", "complete", "average", "ward"])
    def test_cophenetic_matrix_matches_scipy(self, method):
        from repro.cluster.dendrogram import Dendrogram

        rng = np.random.default_rng(7)
        points = rng.normal(size=(12, 3))
        condensed = _condensed_from_points(points)
        ours = Dendrogram(linkage(condensed, method=method)).cophenetic_distances()
        reference = scipy_hierarchy.linkage(scipy_pdist(points), method=method)
        reference_cophenetic = scipy_hierarchy.cophenet(reference)
        np.testing.assert_allclose(ours.distances, reference_cophenetic, rtol=1e-8, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(4, 12), st.sampled_from(["single", "complete", "average"]))
    def test_property_heights_match_scipy(self, seed, n_points, method):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n_points, 3))
        condensed = _condensed_from_points(points)
        ours = linkage(condensed, method=method)
        reference = scipy_hierarchy.linkage(scipy_pdist(points), method=method)
        np.testing.assert_allclose(
            np.sort(ours.heights), np.sort(reference[:, 2]), rtol=1e-8, atol=1e-10
        )


class TestChainMatchesNaive:
    """The O(n²) chain implementation must be bit-identical to the greedy scan."""

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_random_points_bit_identical(self, method):
        rng = np.random.default_rng(99)
        for n in (2, 3, 5, 9, 17, 33):
            condensed = _condensed_from_points(rng.normal(size=(n, 3)))
            fast = linkage(condensed, method=method)
            reference = linkage_naive(condensed, method=method)
            assert np.array_equal(fast.merges, reference.merges), (method, n)
            assert fast == reference

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_tied_distances_bit_identical(self, method):
        """Exact ties (duplicate points, grids) keep the historical tie-breaks."""
        cases = [
            np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 0.0]]),
            np.array([[float(i), float(j)] for i in range(3) for j in range(3)]),
            np.array([[float(i), float(j)] for i in range(4) for j in range(4)]),
            np.zeros((6, 2)),
            np.array([[float(i), 0.0] for i in range(8)]),
        ]
        for points in cases:
            condensed = _condensed_from_points(points)
            fast = linkage(condensed, method=method)
            reference = linkage_naive(condensed, method=method)
            assert np.array_equal(fast.merges, reference.merges), (
                method,
                points.shape,
            )

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_binary_features_bit_identical(self, method):
        """Binary feature matrices (the pipeline's real inputs) tie heavily."""
        rng = np.random.default_rng(3)
        values = (rng.random(size=(18, 24)) < 0.25).astype(float)
        features = FeatureMatrix(
            tuple(f"r{i}" for i in range(18)),
            tuple(f"c{j}" for j in range(24)),
            values,
        )
        for metric in ("euclidean", "cosine", "jaccard"):
            condensed = pairwise_distances(features, metric=metric)
            fast = linkage(condensed, method=method)
            reference = linkage_naive(condensed, method=method)
            assert np.array_equal(fast.merges, reference.merges), (method, metric)

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_near_tie_band_bit_identical(self, method):
        """Distinct distances within the naive scan's 1e-15 tie band (e.g.
        near-duplicate points) must keep its earliest-pair resolution."""
        condensed = CondensedDistanceMatrix(
            ("a", "b", "c"), np.array([1.0 + 2e-16, 2.700000001, 1.0])
        )
        assert np.array_equal(
            linkage(condensed, method=method).merges,
            linkage_naive(condensed, method=method).merges,
        )

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_quantized_distinct_distances_bit_identical(self, method):
        """Distinct lattice distances can make *derived* heights collide
        exactly mid-run; these inputs must route to the exact greedy path."""
        # A condensed vector that historically produced a mid-run tie at
        # height 5.25 under average/weighted linkage.
        distances = np.array(
            [2.75, 0.75, 7.75, 13.75, 6.0, 9.25, 3.25, 4.0,
             3.0, 3.5, 9.75, 10.5, 5.25, 10.25, 6.5]
        )
        condensed = CondensedDistanceMatrix(
            tuple(f"p{i}" for i in range(6)), distances
        )
        assert np.array_equal(
            linkage(condensed, method=method).merges,
            linkage_naive(condensed, method=method).merges,
        )
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            values = rng.choice(
                np.arange(1, 80), size=n * (n - 1) // 2, replace=False
            ) * 0.25
            condensed = CondensedDistanceMatrix(
                tuple(f"p{i}" for i in range(n)), values.astype(float)
            )
            assert np.array_equal(
                linkage(condensed, method=method).merges,
                linkage_naive(condensed, method=method).merges,
            )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 14),
        st.sampled_from(LINKAGE_METHODS),
    )
    def test_property_bit_identical(self, seed, n_points, method):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n_points, 3))
        condensed = _condensed_from_points(points)
        assert np.array_equal(
            linkage(condensed, method=method).merges,
            linkage_naive(condensed, method=method).merges,
        )

    def test_exact_default_unchanged(self):
        """The default linkage is bit-identical to linkage_naive."""
        rng = np.random.default_rng(11)
        condensed = _condensed_from_points(rng.normal(size=(20, 3)))
        default = linkage(condensed, method="average")
        reference = linkage_naive(condensed, method="average")
        assert np.array_equal(default.merges, reference.merges)
