"""Cluster and dendrogram validation metrics.

The paper validates its cuisine trees *qualitatively* against geography
(Section VII); the reproduction backs that comparison with quantitative
metrics so the benchmarks can report numbers:

* :func:`cophenetic_correlation` -- how faithfully a dendrogram preserves the
  original pairwise distances;
* :func:`bakers_gamma` -- rank correlation between the cophenetic matrices of
  two trees over the same labels (tree-vs-tree similarity);
* :func:`fowlkes_mallows` / :func:`adjusted_rand_index` -- agreement between
  two flat clusterings (e.g. pattern-tree cut vs geography-tree cut at the
  same k);
* :func:`silhouette_score` -- quality of a flat clustering against a distance
  matrix;
* :func:`within_cluster_sum_of_squares` -- the WCSS used by the elbow method.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.cluster.dendrogram import Dendrogram
from repro.distances.pdist import CondensedDistanceMatrix
from repro.features.matrix import FeatureMatrix

__all__ = [
    "pearson_correlation",
    "spearman_correlation",
    "cophenetic_correlation",
    "bakers_gamma",
    "fowlkes_mallows",
    "adjusted_rand_index",
    "silhouette_score",
    "within_cluster_sum_of_squares",
]


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length samples (0 for degenerate input)."""
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.shape != y_arr.shape:
        raise ClusteringError("samples must have the same length")
    if x_arr.size < 2:
        raise ClusteringError("correlation requires at least two values")
    x_std = float(x_arr.std())
    y_std = float(y_arr.std())
    if x_std == 0.0 or y_std == 0.0:
        return 0.0
    return float(np.corrcoef(x_arr, y_arr)[0, 1])


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), 1-based."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty_like(values, dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1, dtype=np.float64)
    # Average ties.
    sorted_values = values[order]
    start = 0
    for end in range(1, len(values) + 1):
        if end == len(values) or sorted_values[end] != sorted_values[start]:
            if end - start > 1:
                mean_rank = float(np.mean(ranks[order[start:end]]))
                ranks[order[start:end]] = mean_rank
            start = end
    return ranks


def spearman_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson on average ranks)."""
    x_arr = np.asarray(x, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    if x_arr.shape != y_arr.shape:
        raise ClusteringError("samples must have the same length")
    if x_arr.size < 2:
        raise ClusteringError("correlation requires at least two values")
    return pearson_correlation(_ranks(x_arr), _ranks(y_arr))


def cophenetic_correlation(
    dendrogram: Dendrogram, distances: CondensedDistanceMatrix
) -> float:
    """Pearson correlation between cophenetic and original distances."""
    if dendrogram.labels != distances.labels:
        raise ClusteringError(
            "dendrogram and distance matrix must be over the same labels, in order"
        )
    cophenetic = dendrogram.cophenetic_distances()
    return pearson_correlation(cophenetic.distances, distances.distances)


def _aligned_condensed(
    first: CondensedDistanceMatrix, second: CondensedDistanceMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Align two condensed matrices over the same label set (any order)."""
    if set(first.labels) != set(second.labels):
        raise ClusteringError("both matrices must cover the same label set")
    labels = sorted(first.labels)
    n = len(labels)
    first_values = np.zeros(n * (n - 1) // 2, dtype=np.float64)
    second_values = np.zeros_like(first_values)
    position = 0
    for i in range(n):
        for j in range(i + 1, n):
            first_values[position] = first.distance(labels[i], labels[j])
            second_values[position] = second.distance(labels[i], labels[j])
            position += 1
    return first_values, second_values


def bakers_gamma(first: Dendrogram, second: Dendrogram) -> float:
    """Baker's gamma: Spearman correlation of two trees' cophenetic matrices.

    Values near 1 mean the two hierarchies order pairwise similarities the
    same way; near 0 means unrelated trees.  Both dendrograms must cover the
    same label set (order may differ).
    """
    first_values, second_values = _aligned_condensed(
        first.cophenetic_distances(), second.cophenetic_distances()
    )
    return spearman_correlation(first_values, second_values)


def _pair_counts(
    first: Mapping[str, int], second: Mapping[str, int]
) -> tuple[int, int, int, int]:
    """Contingency pair counts (a, b, c, d) for two flat clusterings."""
    if set(first) != set(second):
        raise ClusteringError("both clusterings must label the same items")
    labels = sorted(first)
    a = b = c = d = 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            same_first = first[labels[i]] == first[labels[j]]
            same_second = second[labels[i]] == second[labels[j]]
            if same_first and same_second:
                a += 1
            elif same_first and not same_second:
                b += 1
            elif not same_first and same_second:
                c += 1
            else:
                d += 1
    return a, b, c, d


def fowlkes_mallows(first: Mapping[str, int], second: Mapping[str, int]) -> float:
    """Fowlkes–Mallows index between two flat clusterings (label -> cluster)."""
    a, b, c, _d = _pair_counts(first, second)
    if (a + b) == 0 or (a + c) == 0:
        return 0.0
    return a / math.sqrt((a + b) * (a + c))


def adjusted_rand_index(first: Mapping[str, int], second: Mapping[str, int]) -> float:
    """Adjusted Rand index between two flat clusterings (label -> cluster)."""
    if set(first) != set(second):
        raise ClusteringError("both clusterings must label the same items")
    labels = sorted(first)
    n = len(labels)
    if n < 2:
        raise ClusteringError("ARI requires at least two items")
    first_ids = sorted({first[l] for l in labels})
    second_ids = sorted({second[l] for l in labels})
    contingency = np.zeros((len(first_ids), len(second_ids)), dtype=np.int64)
    first_index = {cid: i for i, cid in enumerate(first_ids)}
    second_index = {cid: i for i, cid in enumerate(second_ids)}
    for label in labels:
        contingency[first_index[first[label]], second_index[second[label]]] += 1

    def comb2(x: np.ndarray | int) -> np.ndarray | float:
        return x * (x - 1) / 2.0

    sum_comb_cells = float(np.sum(comb2(contingency)))
    sum_comb_rows = float(np.sum(comb2(contingency.sum(axis=1))))
    sum_comb_cols = float(np.sum(comb2(contingency.sum(axis=0))))
    total_pairs = float(comb2(n))
    expected = sum_comb_rows * sum_comb_cols / total_pairs
    maximum = 0.5 * (sum_comb_rows + sum_comb_cols)
    if math.isclose(maximum, expected):
        return 1.0 if math.isclose(sum_comb_cells, expected) else 0.0
    return (sum_comb_cells - expected) / (maximum - expected)


def silhouette_score(
    distances: CondensedDistanceMatrix, assignment: Mapping[str, int]
) -> float:
    """Mean silhouette coefficient of a flat clustering over a distance matrix.

    Items in singleton clusters contribute a silhouette of 0 (the standard
    convention).  Raises when the assignment does not cover the matrix labels
    or uses fewer than two clusters.
    """
    labels = distances.labels
    if set(assignment) != set(labels):
        raise ClusteringError("assignment must label exactly the matrix observations")
    clusters: dict[int, list[str]] = {}
    for label in labels:
        clusters.setdefault(assignment[label], []).append(label)
    if len(clusters) < 2:
        raise ClusteringError("silhouette requires at least two clusters")

    scores: list[float] = []
    for label in labels:
        own_cluster = clusters[assignment[label]]
        if len(own_cluster) == 1:
            scores.append(0.0)
            continue
        a = float(
            np.mean([distances.distance(label, other) for other in own_cluster if other != label])
        )
        b = math.inf
        for cluster_id, members in clusters.items():
            if cluster_id == assignment[label]:
                continue
            mean_distance = float(
                np.mean([distances.distance(label, other) for other in members])
            )
            b = min(b, mean_distance)
        denominator = max(a, b)
        scores.append(0.0 if denominator == 0 else (b - a) / denominator)
    return float(np.mean(scores))


def within_cluster_sum_of_squares(
    features: FeatureMatrix, assignment: Mapping[str, int]
) -> float:
    """WCSS of a flat clustering over labelled feature rows."""
    if set(assignment) != set(features.row_labels):
        raise ClusteringError("assignment must label exactly the feature rows")
    total = 0.0
    clusters: dict[int, list[str]] = {}
    for label in features.row_labels:
        clusters.setdefault(assignment[label], []).append(label)
    for members in clusters.values():
        rows = np.stack([features.row(label) for label in members])
        centroid = rows.mean(axis=0)
        total += float(np.sum((rows - centroid) ** 2))
    return total
