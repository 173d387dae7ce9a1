"""Condensed pairwise distance matrices (the paper's ``pdist`` step).

Section VI-A converts the cuisine feature matrix into a *condensed distance
matrix* before feeding it to hierarchical clustering.  The condensed form
stores the strict upper triangle of the symmetric n × n distance matrix as a
flat vector of length ``n * (n - 1) / 2`` in row-major order -- the same
layout scipy uses, which lets the test suite cross-check directly against
``scipy.spatial.distance.pdist``.

:class:`CondensedDistanceMatrix` keeps the row labels alongside the distances
so the clustering output can name cuisines rather than indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DistanceError
from repro.distances.metrics import Metric, get_metric
from repro.features.matrix import FeatureMatrix

__all__ = [
    "CondensedDistanceMatrix",
    "condensed_size",
    "condensed_index",
    "pairwise_distances",
    "pdist_from_square",
]


def condensed_size(n: int) -> int:
    """Length of the condensed vector for *n* observations."""
    if n < 0:
        raise DistanceError("n must be non-negative")
    return n * (n - 1) // 2


def condensed_index(n: int, i: int, j: int) -> int:
    """Index of pair ``(i, j)`` (i != j) in a condensed matrix over *n* points."""
    if i == j:
        raise DistanceError("condensed matrices have no diagonal entries")
    if not (0 <= i < n and 0 <= j < n):
        raise DistanceError(f"indices ({i}, {j}) out of range for n={n}")
    if i > j:
        i, j = j, i
    return n * i - (i * (i + 1)) // 2 + (j - i - 1)


@dataclass(frozen=True, eq=False)
class CondensedDistanceMatrix:
    """A condensed (upper-triangle) pairwise distance matrix with labels."""

    labels: tuple[str, ...]
    distances: np.ndarray
    metric: str = "euclidean"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CondensedDistanceMatrix):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.metric == other.metric
            and np.array_equal(self.distances, other.distances)
        )

    def __post_init__(self) -> None:
        distances = np.asarray(self.distances, dtype=np.float64)
        expected = condensed_size(len(self.labels))
        if distances.ndim != 1 or distances.shape[0] != expected:
            raise DistanceError(
                f"condensed vector must have length {expected} for "
                f"{len(self.labels)} observations, got shape {distances.shape}"
            )
        if expected and not np.all(np.isfinite(distances)):
            raise DistanceError("distances must be finite")
        if expected and np.any(distances < -1e-12):
            raise DistanceError("distances must be non-negative")
        object.__setattr__(self, "distances", np.maximum(distances, 0.0))
        object.__setattr__(self, "labels", tuple(self.labels))

    # -- access -------------------------------------------------------------------

    @property
    def n_observations(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError as exc:
            raise DistanceError(f"unknown label: {label!r}") from exc

    def distance(self, first: str | int, second: str | int) -> float:
        """Distance between two observations, by label or index."""
        i = first if isinstance(first, int) else self.index_of(first)
        j = second if isinstance(second, int) else self.index_of(second)
        if i == j:
            return 0.0
        return float(self.distances[condensed_index(self.n_observations, i, j)])

    def to_square(self) -> np.ndarray:
        """Expand to the full symmetric n × n matrix (zero diagonal)."""
        n = self.n_observations
        square = np.zeros((n, n), dtype=np.float64)
        if n > 1:
            rows, cols = np.triu_indices(n, k=1)
            square[rows, cols] = self.distances
            square[cols, rows] = self.distances
        return square

    def nearest_pair(self) -> tuple[str, str, float]:
        """The closest pair of observations (deterministic tie-breaking).

        Ties within 1e-15 are broken by condensed (row-major upper-triangle)
        position, i.e. the earliest pair wins — the same rule the previous
        Python double loop implemented.
        """
        if self.n_observations < 2:
            raise DistanceError("need at least two observations")
        minimum = float(self.distances.min())
        index = int(np.flatnonzero(self.distances <= minimum + 1e-15)[0])
        rows, cols = np.triu_indices(self.n_observations, k=1)
        i, j = int(rows[index]), int(cols[index])
        return self.labels[i], self.labels[j], float(self.distances[index])

    def ranked_pairs(self) -> list[tuple[str, str, float]]:
        """All pairs sorted by ascending distance (ties broken by labels)."""
        n = self.n_observations
        rows, cols = np.triu_indices(n, k=1)
        pairs = [
            (self.labels[i], self.labels[j], float(value))
            for i, j, value in zip(rows.tolist(), cols.tolist(), self.distances.tolist())
        ]
        return sorted(pairs, key=lambda p: (p[2], p[0], p[1]))

    def to_dict(self) -> dict[str, object]:
        return {
            "labels": list(self.labels),
            "metric": self.metric,
            "distances": self.distances.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CondensedDistanceMatrix":
        """Rebuild a condensed matrix from :meth:`to_dict` output."""
        return cls(
            labels=tuple(str(label) for label in payload["labels"]),  # type: ignore[union-attr]
            distances=np.asarray(payload["distances"], dtype=np.float64),
            metric=str(payload.get("metric", "euclidean")),
        )


def _squared_sum(u: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """``np.sum((u - rest) ** 2, axis=1)``, squaring the difference in place."""
    difference = u - rest
    np.square(difference, out=difference)
    return np.sum(difference, axis=1)


def _absolute(u: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """``np.abs(u - rest)``, taken in place."""
    difference = u - rest
    return np.abs(difference, out=difference)


def _absolute_sum(u: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """``np.sum(np.abs(u - rest), axis=1)``."""
    return np.sum(_absolute(u, rest), axis=1)


def _by_row(values: np.ndarray, reduce_row, dtype=np.float64) -> np.ndarray:
    """The condensed vector of ``reduce_row(values[i], values[i + 1:])`` over ``i``."""
    n = values.shape[0]
    condensed = np.empty(condensed_size(n), dtype=dtype)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        condensed[start:stop] = reduce_row(values[i], values[i + 1 :])
        start = stop
    return condensed


#: Per built-in metric: how one row ``u`` reduces against the rows after it.
_ROW_REDUCTIONS = {
    "euclidean": _squared_sum,
    "sqeuclidean": _squared_sum,
    "cityblock": _absolute_sum,
    "manhattan": _absolute_sum,
    "chebyshev": lambda u, rest: np.max(_absolute(u, rest), axis=1),
    "hamming": lambda u, rest: np.mean(u != rest, axis=1),
    "cosine": lambda u, rest: np.sum(u * rest, axis=1),
}


def _condensed_vectorized(values: np.ndarray, metric: str) -> np.ndarray | None:
    """Condensed distances for the built-in metrics, one first index at a time.

    Row ``i`` is reduced against rows ``i+1 … n−1`` in one numpy call, so
    the largest temporary is ``(n − 1) × columns``: no pairs × columns
    array is ever made (Figure 5's 26 cuisines × 7,721 items would need
    325 × 7,721 float64 per operand).  Each distance is bit-for-bit the
    one a single broadcast over all pairs gives: the elementwise operands
    and their order are the same, a row's reduction along ``axis=1`` does
    not depend on how many rows are reduced with it, and what follows the
    reductions is elementwise over the condensed vector.

    Returns ``None`` for metric names without a vectorized implementation
    so the caller can fall back to the per-pair loop.  The formulas
    (including the zero-vector conventions for cosine and jaccard) mirror
    :mod:`repro.distances.metrics` exactly.
    """
    if metric == "jaccard":
        bits = values != 0
        union = _by_row(
            bits, lambda u, rest: np.count_nonzero(u | rest, axis=1), np.intp
        )
        intersection = _by_row(
            bits, lambda u, rest: np.count_nonzero(u & rest, axis=1), np.intp
        )
        return np.where(union == 0, 0.0, 1.0 - intersection / np.maximum(union, 1))
    if metric not in _ROW_REDUCTIONS:
        return None
    reduced = _by_row(values, _ROW_REDUCTIONS[metric])
    if metric == "euclidean":
        return np.sqrt(reduced)
    if metric == "cosine":
        norms = np.linalg.norm(values, axis=1)
        rows, cols = np.triu_indices(values.shape[0], k=1)
        norm_u = norms[rows]
        norm_v = norms[cols]
        denominator = norm_u * norm_v
        similarity = np.clip(
            np.divide(reduced, denominator, out=np.zeros_like(reduced), where=denominator > 0),
            -1.0,
            1.0,
        )
        distances = 1.0 - similarity
        # Zero-vector conventions: both zero -> 0, exactly one zero -> 1.
        u_zero = norm_u == 0.0
        v_zero = norm_v == 0.0
        distances[u_zero & v_zero] = 0.0
        distances[u_zero ^ v_zero] = 1.0
        return distances
    return reduced


def pairwise_distances(
    features: FeatureMatrix,
    metric: str | Metric = "euclidean",
) -> CondensedDistanceMatrix:
    """Compute the condensed pairwise distance matrix of a feature matrix.

    Built-in metrics (by name) run vectorized, one row against the rows
    after it at a time, with no pairs × columns temporary; callable metrics
    fall back to the per-pair loop.
    """
    if features.n_rows < 1:
        raise DistanceError("feature matrix must contain at least one row")
    metric_name = metric if isinstance(metric, str) else getattr(metric, "__name__", repr(metric))
    n = features.n_rows
    values = features.values
    if n >= 2 and features.n_columns == 0:
        raise DistanceError("vectors must not be empty")
    if isinstance(metric, str):
        get_metric(metric)  # validate the name even when the fast path handles it
        vectorized = _condensed_vectorized(values, metric.strip().lower()) if n >= 2 else None
        if vectorized is not None or n < 2:
            distances = (
                vectorized
                if vectorized is not None
                else np.zeros(condensed_size(n), dtype=np.float64)
            )
            return CondensedDistanceMatrix(
                labels=features.row_labels,
                distances=np.asarray(distances, dtype=np.float64),
                metric=str(metric_name),
            )
    metric_fn = get_metric(metric) if isinstance(metric, str) else metric
    distances = np.zeros(condensed_size(n), dtype=np.float64)
    position = 0
    for i in range(n):
        for j in range(i + 1, n):
            distances[position] = metric_fn(values[i], values[j])
            position += 1
    return CondensedDistanceMatrix(
        labels=features.row_labels, distances=distances, metric=str(metric_name)
    )


def pdist_from_square(
    square: np.ndarray,
    labels: Sequence[str],
    *,
    metric: str = "precomputed",
    atol: float = 1e-8,
) -> CondensedDistanceMatrix:
    """Condense a full symmetric distance matrix (e.g. haversine distances)."""
    matrix = np.asarray(square, dtype=np.float64)
    n = len(labels)
    if matrix.shape != (n, n):
        raise DistanceError(
            f"square matrix shape {matrix.shape} does not match {n} labels"
        )
    if not np.allclose(matrix, matrix.T, atol=atol):
        raise DistanceError("distance matrix must be symmetric")
    if not np.allclose(np.diag(matrix), 0.0, atol=atol):
        raise DistanceError("distance matrix must have a zero diagonal")
    rows, cols = np.triu_indices(n, k=1)
    distances = matrix[rows, cols].copy()
    return CondensedDistanceMatrix(labels=tuple(labels), distances=distances, metric=metric)
