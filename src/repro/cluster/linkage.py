"""Agglomerative hierarchical clustering (linkage matrix construction).

Implements bottom-up hierarchical agglomerative clustering over a condensed
distance matrix, producing a linkage matrix in the same format scipy uses
(each merge row is ``[left_id, right_id, height, size]``; original
observations are ids ``0..n-1`` and the cluster created by merge *k* gets id
``n + k``).  Keeping the format identical lets the test suite cross-validate
against ``scipy.cluster.hierarchy.linkage`` and lets users hand the result to
scipy's plotting utilities if they have them installed.

Supported linkage methods (Lance–Williams family):

* ``single``  -- minimum pairwise distance between clusters;
* ``complete`` -- maximum pairwise distance;
* ``average`` -- unweighted average (UPGMA), the library default;
* ``weighted`` -- WPGMA;
* ``ward`` -- Ward's minimum-variance criterion (assumes Euclidean input).

:func:`linkage` is a greedy O(n³) scan: each step sweeps every active pair
of a square working matrix for the closest one, records the merge, folds
the pair into its lower slot with the scalar Lance–Williams update and
retires the higher slot.  Tie rule: pairs are scanned in ascending
``(i, j)`` order and a later pair wins only when it is smaller by more than
1e-15, so exact ties go to the earliest pair in scan order.

There is no O(n²) path because no caller would reach it: every production
call clusters the paper's 26 cuisine regions (the figure builders, FIHC,
the geography trees), ten calls and about 12 ms per analysis.  At n = 26
the scan's pure-Python loops are as fast as vectorised passes, whose
per-call numpy overhead outweighs the work they save.

The paper does not state the linkage method it used; ``average`` is the usual
default for cuisine-style categorical data and is what the figure builders
use, with the others exposed for the ablation experiments.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ClusteringError
from repro.distances.pdist import CondensedDistanceMatrix

__all__ = ["LINKAGE_METHODS", "linkage", "LinkageMatrix"]

LINKAGE_METHODS = ("single", "complete", "average", "weighted", "ward")


class LinkageMatrix:
    """A labelled linkage matrix (scipy-compatible merge table)."""

    def __init__(self, merges: np.ndarray, labels: tuple[str, ...], method: str, metric: str) -> None:
        merges = np.asarray(merges, dtype=np.float64)
        n = len(labels)
        expected_rows = max(0, n - 1)
        if merges.shape != (expected_rows, 4):
            raise ClusteringError(
                f"linkage matrix must have shape ({expected_rows}, 4), got {merges.shape}"
            )
        self.merges = merges
        self.labels = labels
        self.method = method
        self.metric = metric

    @property
    def n_observations(self) -> int:
        return len(self.labels)

    @property
    def heights(self) -> np.ndarray:
        """Merge heights in merge order (monotone for the supported methods)."""
        return self.merges[:, 2].copy()

    def to_array(self) -> np.ndarray:
        """Return a copy of the raw scipy-format merge table."""
        return self.merges.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkageMatrix):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.method == other.method
            and self.metric == other.metric
            and np.array_equal(self.merges, other.merges)
        )

    def to_dict(self) -> dict[str, object]:
        """Lossless dictionary form (inverse of :meth:`from_dict`)."""
        return {
            "labels": list(self.labels),
            "method": self.method,
            "metric": self.metric,
            "merges": self.merges.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "LinkageMatrix":
        """Rebuild a linkage matrix from :meth:`to_dict` output."""
        labels = tuple(str(label) for label in payload["labels"])  # type: ignore[union-attr]
        merges = np.asarray(payload["merges"], dtype=np.float64)
        if merges.size == 0:
            merges = merges.reshape(max(0, len(labels) - 1), 4)
        return cls(
            merges=merges,
            labels=labels,
            method=str(payload["method"]),
            metric=str(payload["metric"]),
        )

    def __len__(self) -> int:
        return self.merges.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkageMatrix(n={self.n_observations}, method={self.method!r}, "
            f"metric={self.metric!r})"
        )


def _new_distance(
    method: str,
    d_ki: float,
    d_kj: float,
    d_ij: float,
    size_i: int,
    size_j: int,
    size_k: int,
) -> float:
    """Distance between cluster k and the new cluster i ∪ j (scalar form)."""
    if method == "single":
        return min(d_ki, d_kj)
    if method == "complete":
        return max(d_ki, d_kj)
    if method == "average":
        total = size_i + size_j
        return (size_i * d_ki + size_j * d_kj) / total
    if method == "weighted":
        return 0.5 * (d_ki + d_kj)
    if method == "ward":
        total = size_i + size_j + size_k
        value = (
            (size_i + size_k) * d_ki * d_ki
            + (size_j + size_k) * d_kj * d_kj
            - size_k * d_ij * d_ij
        ) / total
        return math.sqrt(max(0.0, value))
    raise ClusteringError(f"unknown linkage method: {method!r}")


def _validate(distances: CondensedDistanceMatrix, method: str) -> tuple[str, int]:
    method = method.strip().lower()
    if method not in LINKAGE_METHODS:
        raise ClusteringError(
            f"unknown linkage method {method!r}; available: {LINKAGE_METHODS}"
        )
    n = distances.n_observations
    if n < 2:
        raise ClusteringError("clustering requires at least two observations")
    return method, n


def linkage(
    distances: CondensedDistanceMatrix,
    method: str = "average",
) -> LinkageMatrix:
    """Run the greedy scan (see the module docstring) and return its merges."""
    method, n = _validate(distances, method)

    # Working square matrix of current cluster-to-cluster distances.
    working = distances.to_square()
    np.fill_diagonal(working, math.inf)

    # Active cluster bookkeeping: position -> (cluster id, size).
    cluster_ids = list(range(n))
    sizes = [1] * n
    active = [True] * n
    merges = np.zeros((n - 1, 4), dtype=np.float64)

    for step in range(n - 1):
        # Find the closest active pair (deterministic tie-break by index).
        best = math.inf
        best_pair = (-1, -1)
        for i in range(n):
            if not active[i]:
                continue
            row = working[i]
            for j in range(i + 1, n):
                if not active[j]:
                    continue
                value = row[j]
                if value < best - 1e-15:
                    best = value
                    best_pair = (i, j)
        i, j = best_pair
        if i < 0:
            raise ClusteringError("internal error: no active pair found")

        left_id, right_id = cluster_ids[i], cluster_ids[j]
        if left_id > right_id:
            left_id, right_id = right_id, left_id
        new_size = sizes[i] + sizes[j]
        merges[step] = (left_id, right_id, best, new_size)

        # Update distances from every other active cluster to the new cluster,
        # stored in slot i; slot j is retired.
        d_ij = working[i, j]
        for k in range(n):
            if not active[k] or k == i or k == j:
                continue
            d_ki = working[k, i]
            d_kj = working[k, j]
            updated = _new_distance(method, d_ki, d_kj, d_ij, sizes[i], sizes[j], sizes[k])
            working[k, i] = updated
            working[i, k] = updated
        active[j] = False
        working[j, :] = math.inf
        working[:, j] = math.inf
        working[i, i] = math.inf
        sizes[i] = new_size
        cluster_ids[i] = n + step

    return LinkageMatrix(merges, distances.labels, method=method, metric=distances.metric)
