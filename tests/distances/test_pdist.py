"""Unit tests for condensed pairwise distance matrices."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist as scipy_pdist

from repro.errors import DistanceError
from repro.distances.pdist import (
    CondensedDistanceMatrix,
    condensed_index,
    condensed_size,
    pairwise_distances,
    pdist_from_square,
)
from repro.features.matrix import FeatureMatrix


@pytest.fixture()
def features() -> FeatureMatrix:
    return FeatureMatrix(
        row_labels=("A", "B", "C", "D"),
        column_labels=("x", "y"),
        values=np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [0.0, 1.0]]),
    )


class TestCondensedHelpers:
    def test_condensed_size(self):
        assert condensed_size(0) == 0
        assert condensed_size(1) == 0
        assert condensed_size(4) == 6
        assert condensed_size(26) == 325
        with pytest.raises(DistanceError):
            condensed_size(-1)

    def test_condensed_index_matches_row_major_upper_triangle(self):
        n = 5
        position = 0
        for i in range(n):
            for j in range(i + 1, n):
                assert condensed_index(n, i, j) == position
                assert condensed_index(n, j, i) == position  # symmetric lookup
                position += 1

    def test_condensed_index_validation(self):
        with pytest.raises(DistanceError):
            condensed_index(4, 1, 1)
        with pytest.raises(DistanceError):
            condensed_index(4, 0, 9)

    @given(st.integers(2, 30))
    def test_property_index_is_bijective(self, n):
        seen = set()
        for i in range(n):
            for j in range(i + 1, n):
                seen.add(condensed_index(n, i, j))
        assert seen == set(range(condensed_size(n)))


class TestPairwiseDistances:
    def test_euclidean_matches_scipy(self, features):
        ours = pairwise_distances(features, metric="euclidean")
        reference = scipy_pdist(features.values, metric="euclidean")
        np.testing.assert_allclose(ours.distances, reference)
        assert ours.metric == "euclidean"
        assert ours.labels == features.row_labels

    @pytest.mark.parametrize("metric", ["cosine", "cityblock", "chebyshev"])
    def test_other_metrics_match_scipy(self, metric):
        # Shifted away from the origin: scipy's cosine distance is NaN for an
        # all-zero vector whereas ours follows the documented 1.0 convention,
        # so the zero-vector corner case is tested separately in test_metrics.
        features = FeatureMatrix(
            ("A", "B", "C", "D"),
            ("x", "y"),
            np.array([[1.0, 1.0], [4.0, 5.0], [7.0, 9.0], [1.0, 2.0]]),
        )
        ours = pairwise_distances(features, metric=metric)
        reference = scipy_pdist(features.values, metric=metric)
        np.testing.assert_allclose(ours.distances, reference, atol=1e-12)

    def test_jaccard_on_binary_features(self):
        binary = FeatureMatrix(
            ("A", "B", "C"),
            ("p1", "p2", "p3"),
            np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        )
        ours = pairwise_distances(binary, metric="jaccard")
        reference = scipy_pdist(binary.values.astype(bool), metric="jaccard")
        np.testing.assert_allclose(ours.distances, reference)

    def test_callable_metric(self, features):
        ours = pairwise_distances(features, metric=lambda u, v: float(np.abs(u - v).sum()))
        reference = scipy_pdist(features.values, metric="cityblock")
        np.testing.assert_allclose(ours.distances, reference)

    def test_distance_lookup_by_label_and_index(self, features):
        matrix = pairwise_distances(features)
        assert matrix.distance("A", "B") == pytest.approx(5.0)
        assert matrix.distance(0, 1) == pytest.approx(5.0)
        assert matrix.distance("B", "A") == matrix.distance("A", "B")
        assert matrix.distance("A", "A") == 0.0
        with pytest.raises(DistanceError):
            matrix.distance("A", "Z")

    def test_to_square_roundtrip(self, features):
        matrix = pairwise_distances(features)
        square = matrix.to_square()
        rebuilt = pdist_from_square(square, matrix.labels)
        np.testing.assert_allclose(rebuilt.distances, matrix.distances)

    def test_nearest_and_ranked_pairs(self, features):
        matrix = pairwise_distances(features)
        first, second, value = matrix.nearest_pair()
        assert {first, second} == {"A", "D"}
        assert value == pytest.approx(1.0)
        ranked = matrix.ranked_pairs()
        assert ranked[0][2] <= ranked[-1][2]
        assert len(ranked) == 6

    def test_nearest_pair_requires_two_observations(self):
        single = CondensedDistanceMatrix(("A",), np.array([]))
        with pytest.raises(DistanceError):
            single.nearest_pair()


class TestMetricNameInference:
    def test_string_metric_recorded_verbatim(self, features):
        assert pairwise_distances(features, metric="euclidean").metric == "euclidean"

    def test_named_function_uses_dunder_name(self, features):
        def manhattan_like(u, v):
            return float(np.abs(u - v).sum())

        matrix = pairwise_distances(features, metric=manhattan_like)
        assert matrix.metric == "manhattan_like"

    def test_lambda_keeps_its_name(self, features):
        matrix = pairwise_distances(features, metric=lambda u, v: float(np.abs(u - v).sum()))
        assert matrix.metric == "<lambda>"

    def test_partial_falls_back_to_repr(self, features):
        import functools

        def weighted(u, v, scale=1.0):
            return scale * float(np.abs(u - v).sum())

        partial = functools.partial(weighted, scale=2.0)
        assert not hasattr(partial, "__name__")
        matrix = pairwise_distances(features, metric=partial)
        # A partial has no __name__; its repr keeps the identity (wrapped
        # function + bound arguments) instead of an anonymous "custom".
        assert matrix.metric == repr(partial)
        assert "weighted" in matrix.metric
        assert matrix.metric != "custom"

    def test_callable_object_falls_back_to_repr(self, features):
        class ScaledCityblock:
            def __call__(self, u, v):
                return float(np.abs(u - v).sum())

            def __repr__(self):
                return "ScaledCityblock()"

        matrix = pairwise_distances(features, metric=ScaledCityblock())
        assert matrix.metric == "ScaledCityblock()"


class TestVectorizedAgainstLoop:
    """The numpy fast path must agree with the per-pair metric loop."""

    @pytest.mark.parametrize(
        "metric",
        ["euclidean", "sqeuclidean", "cosine", "jaccard", "hamming",
         "cityblock", "manhattan", "chebyshev"],
    )
    def test_matches_loop_on_random_data(self, metric):
        from repro.distances.metrics import get_metric

        rng = np.random.default_rng(42)
        values = rng.normal(size=(12, 7))
        values[values < -0.5] = 0.0  # sparsity so jaccard/hamming see zeros
        features = FeatureMatrix(
            tuple(f"r{i}" for i in range(12)),
            tuple(f"c{j}" for j in range(7)),
            values,
        )
        fast = pairwise_distances(features, metric=metric)
        metric_fn = get_metric(metric)
        loop = pairwise_distances(features, metric=lambda u, v: metric_fn(u, v))
        np.testing.assert_allclose(fast.distances, loop.distances, atol=1e-12)

    def test_cosine_zero_vector_conventions(self):
        features = FeatureMatrix(
            ("zero1", "zero2", "unit"),
            ("x", "y"),
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
        )
        matrix = pairwise_distances(features, metric="cosine")
        assert matrix.distance("zero1", "zero2") == 0.0  # both zero
        assert matrix.distance("zero1", "unit") == 1.0  # exactly one zero

    def test_single_observation_has_empty_condensed_vector(self):
        features = FeatureMatrix(("only",), ("x",), np.array([[1.0]]))
        matrix = pairwise_distances(features, metric="euclidean")
        assert matrix.distances.shape == (0,)

    def test_nearest_pair_tie_breaks_by_condensed_order(self):
        # A-B and C-D are exactly tied; the earlier condensed pair must win.
        square = np.array(
            [
                [0.0, 1.0, 5.0, 5.0],
                [1.0, 0.0, 5.0, 5.0],
                [5.0, 5.0, 0.0, 1.0],
                [5.0, 5.0, 1.0, 0.0],
            ]
        )
        matrix = pdist_from_square(square, ["A", "B", "C", "D"])
        assert matrix.nearest_pair() == ("A", "B", 1.0)

    def test_ranked_pairs_tie_break_by_labels(self):
        square = np.array(
            [
                [0.0, 2.0, 1.0],
                [2.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        matrix = pdist_from_square(square, ["B", "A", "C"])
        ranked = matrix.ranked_pairs()
        assert ranked[0] == ("A", "C", 1.0)  # ties sort by first label
        assert ranked[1] == ("B", "C", 1.0)
        assert ranked[2] == ("B", "A", 2.0)


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(DistanceError):
            CondensedDistanceMatrix(("A", "B", "C"), np.array([1.0]))

    def test_negative_distances_rejected(self):
        with pytest.raises(DistanceError):
            CondensedDistanceMatrix(("A", "B"), np.array([-1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(DistanceError):
            CondensedDistanceMatrix(("A", "B"), np.array([np.inf]))

    def test_pdist_from_square_validation(self):
        asymmetric = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(DistanceError):
            pdist_from_square(asymmetric, ["A", "B"])
        bad_diagonal = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DistanceError):
            pdist_from_square(bad_diagonal, ["A", "B"])
        wrong_shape = np.zeros((2, 3))
        with pytest.raises(DistanceError):
            pdist_from_square(wrong_shape, ["A", "B"])


def _broadcast_oracle(values: np.ndarray, metric: str) -> np.ndarray:
    """The all-pairs broadcast formulas: one pairs x columns gather per operand."""
    n = values.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    u = values[rows]
    v = values[cols]
    if metric == "euclidean":
        return np.sqrt(np.sum((u - v) ** 2, axis=1))
    if metric == "sqeuclidean":
        return np.sum((u - v) ** 2, axis=1)
    if metric in ("cityblock", "manhattan"):
        return np.sum(np.abs(u - v), axis=1)
    if metric == "chebyshev":
        return np.max(np.abs(u - v), axis=1)
    if metric == "hamming":
        return np.mean(u != v, axis=1)
    if metric == "cosine":
        norms = np.linalg.norm(values, axis=1)
        norm_u = norms[rows]
        norm_v = norms[cols]
        dots = np.sum(u * v, axis=1)
        denominator = norm_u * norm_v
        similarity = np.clip(
            np.divide(dots, denominator, out=np.zeros_like(dots), where=denominator > 0),
            -1.0,
            1.0,
        )
        distances = 1.0 - similarity
        u_zero = norm_u == 0.0
        v_zero = norm_v == 0.0
        distances[u_zero & v_zero] = 0.0
        distances[u_zero ^ v_zero] = 1.0
        return distances
    assert metric == "jaccard"
    bits = values != 0
    bits_u = bits[rows]
    bits_v = bits[cols]
    union = np.count_nonzero(bits_u | bits_v, axis=1)
    intersection = np.count_nonzero(bits_u & bits_v, axis=1)
    return np.where(union == 0, 0.0, 1.0 - intersection / np.maximum(union, 1))


BUILT_IN_METRICS = [
    "euclidean", "sqeuclidean", "cosine", "jaccard", "hamming",
    "cityblock", "manhattan", "chebyshev",
]


def _mixed_rows(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """Rows of mixed magnitudes and signs with zeros, a zero row and a repeat."""
    values = rng.normal(size=(n, width)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    values[rng.random((n, width)) < 0.4] = 0.0
    values[0] = 0.0
    if n > 3:
        values[3] = values[1]
    return values


class TestRowWiseAgainstBroadcast:
    """Row ``i`` against rows ``i+1…`` gives the all-pairs broadcast's bits."""

    @pytest.mark.parametrize("metric", BUILT_IN_METRICS)
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 127, 128, 129, 257, 1000, 7721])
    @pytest.mark.parametrize("n", [2, 3, 26])
    def test_bit_identical_to_the_broadcast(self, metric, width, n):
        rng = np.random.default_rng(n * 10_000 + width)
        values = _mixed_rows(rng, n, width)
        features = FeatureMatrix(
            tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(width)), values
        )
        ours = pairwise_distances(features, metric=metric).distances
        oracle = np.maximum(_broadcast_oracle(values, metric), 0.0)
        assert ours.tobytes() == oracle.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 9),
        st.integers(1, 40),
        st.sampled_from(BUILT_IN_METRICS),
        st.integers(0, 2**32 - 1),
    )
    def test_property_bit_identical(self, n, width, metric, seed):
        values = _mixed_rows(np.random.default_rng(seed), n, width)
        features = FeatureMatrix(
            tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(width)), values
        )
        ours = pairwise_distances(features, metric=metric).distances
        assert ours.tobytes() == np.maximum(_broadcast_oracle(values, metric), 0.0).tobytes()

    @pytest.mark.parametrize("metric", BUILT_IN_METRICS)
    def test_peak_memory_stays_under_twice_the_input(self, metric):
        # Figure 5 at full scale: 26 cuisines x 20,280 ingredients, 4.2 MB.
        # The broadcast gathered two 325 x 20,280 float64 operands (53 MB
        # each); row by row, the largest temporary is one 25 x 20,280 row
        # block.
        values = _mixed_rows(np.random.default_rng(5), 26, 20_280)
        features = FeatureMatrix(
            tuple(f"r{i}" for i in range(26)), tuple(f"c{j}" for j in range(20_280)), values
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            pairwise_distances(features, metric=metric)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * values.nbytes
