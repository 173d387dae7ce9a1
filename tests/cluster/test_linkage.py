"""Unit tests for agglomerative linkage, cross-checked against scipy."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster import hierarchy as scipy_hierarchy
from scipy.spatial.distance import pdist as scipy_pdist

from repro.errors import ClusteringError
from repro.cluster.linkage import LINKAGE_METHODS, LinkageMatrix, linkage
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


# SHA-256 over the concatenated ``merges.tobytes()`` of every input that
# ``_pinned_inputs`` yields, recorded with the historical greedy scan before
# it became the only implementation.
MERGE_DIGESTS = {
    "single": "e9d40e455defe23c8d651911fbf57bcd1b8d568ec7db0d46c4aad11e15a61699",
    "complete": "8759d713f98904bbfc75fefedf058062e2cef966903fd1475946c55be88148dc",
    "average": "3658612dc8dfd7cde52c84bbfe6b342f20e28c0130c1a65c45675bdf1db49764",
    "weighted": "622aefaf95d7c4d309fac50dfe4d407a5119ee7dc9de28352081e476b4460a92",
    "ward": "ad0abe3bc6eec9e57df05dc8857cd8128eaeb7760566008b91a08b0cf7157573",
}


def _pinned_inputs():
    """Deterministic inputs: random, tie-laden, binary-feature and lattice."""
    rng = np.random.default_rng(99)
    for n in (2, 3, 5, 9, 17, 33):
        yield _condensed_from_points(rng.normal(size=(n, 3)))
    # Exact ties: duplicate points, grids, all-zero and collinear points.
    for points in (
        np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0], [9.0, 0.0]]),
        np.array([[float(i), float(j)] for i in range(3) for j in range(3)]),
        np.array([[float(i), float(j)] for i in range(4) for j in range(4)]),
        np.zeros((6, 2)),
        np.array([[float(i), 0.0] for i in range(8)]),
    ):
        yield _condensed_from_points(points)
    # Binary feature matrices (the pipeline's real inputs) tie heavily.
    rng = np.random.default_rng(3)
    values = (rng.random(size=(18, 24)) < 0.25).astype(float)
    features = FeatureMatrix(
        tuple(f"r{i}" for i in range(18)), tuple(f"c{j}" for j in range(24)), values
    )
    for metric in ("euclidean", "cosine", "jaccard"):
        yield pairwise_distances(features, metric=metric)
    # Distinct quarter-integer distances whose derived heights collide
    # mid-run (5.25 under average and weighted linkage).
    yield CondensedDistanceMatrix(
        tuple(f"p{i}" for i in range(6)),
        np.array(
            [2.75, 0.75, 7.75, 13.75, 6.0, 9.25, 3.25, 4.0,
             3.0, 3.5, 9.75, 10.5, 5.25, 10.25, 6.5]
        ),
    )
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        values = rng.choice(np.arange(1, 80), size=n * (n - 1) // 2, replace=False) * 0.25
        yield CondensedDistanceMatrix(tuple(f"p{i}" for i in range(n)), values.astype(float))
    rng = np.random.default_rng(11)
    yield _condensed_from_points(rng.normal(size=(20, 3)))


class TestScanTieRule:
    """Pairs are scanned in ascending (i, j) order; a later pair must be
    smaller by more than 1e-15 to displace an earlier one."""

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_exact_ties_go_to_earliest_pair(self, method):
        condensed = CondensedDistanceMatrix(("a", "b", "c", "d"), np.ones(6))
        assert linkage(condensed, method=method).merges.tolist() == [
            [0, 1, 1, 2],
            [2, 4, 1, 3],
            [3, 5, 1, 4],
        ]

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_later_pair_inside_tie_band_loses(self, method):
        condensed = CondensedDistanceMatrix(
            ("a", "b", "c"), np.array([1.0 + 2e-16, 2.700000001, 1.0])
        )
        first = linkage(condensed, method=method).merges[0].tolist()
        assert first == [0, 1, 1.0000000000000002, 2]

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_later_pair_past_tie_band_wins(self, method):
        condensed = CondensedDistanceMatrix(
            ("a", "b", "c"), np.array([1.0 + 4e-15, 2.7, 1.0])
        )
        assert linkage(condensed, method=method).merges[0].tolist() == [1, 2, 1.0, 2]

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_merge_tables_match_pinned_digest(self, method):
        digest = hashlib.sha256()
        for condensed in _pinned_inputs():
            digest.update(linkage(condensed, method=method).merges.tobytes())
        assert digest.hexdigest() == MERGE_DIGESTS[method]
