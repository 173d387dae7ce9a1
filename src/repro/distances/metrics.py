"""Vector distance metrics used by the clustering experiments.

The paper clusters cuisine feature vectors under Euclidean, Cosine and Jaccard
distances (equations 3-5; the equations as printed are informal, we implement
the standard definitions they refer to).  Every metric takes two 1-D numpy
arrays and returns a non-negative float.  The module also exposes a registry
(:func:`get_metric`, :data:`METRICS`) so distance choice can be configured by
name throughout the library.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import DistanceError

__all__ = [
    "euclidean",
    "squared_euclidean",
    "cosine",
    "jaccard",
    "hamming",
    "cityblock",
    "chebyshev",
    "get_metric",
    "METRICS",
]

Metric = Callable[[np.ndarray, np.ndarray], float]


def _validate(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u_arr = np.asarray(u, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    if u_arr.ndim != 1 or v_arr.ndim != 1:
        raise DistanceError("distance metrics operate on one-dimensional vectors")
    if u_arr.shape != v_arr.shape:
        raise DistanceError(
            f"vectors must have the same length, got {u_arr.shape[0]} and {v_arr.shape[0]}"
        )
    if u_arr.shape[0] == 0:
        raise DistanceError("vectors must not be empty")
    if not (np.all(np.isfinite(u_arr)) and np.all(np.isfinite(v_arr))):
        raise DistanceError("vectors must not contain NaN or infinity")
    return u_arr, v_arr


def euclidean(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean (L2) distance."""
    u_arr, v_arr = _validate(u, v)
    return float(np.sqrt(np.sum((u_arr - v_arr) ** 2)))


def squared_euclidean(u: np.ndarray, v: np.ndarray) -> float:
    """Squared Euclidean distance (used internally by Ward linkage)."""
    u_arr, v_arr = _validate(u, v)
    return float(np.sum((u_arr - v_arr) ** 2))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine distance ``1 - cos(u, v)``.

    When either vector is all-zero the angle is undefined; the distance is
    defined as 1 (maximally dissimilar) unless both are zero, in which case it
    is 0 -- the same convention scipy uses for identical zero vectors after
    its 1.17 behaviour change for this corner case was settled as 0-for-equal.
    """
    u_arr, v_arr = _validate(u, v)
    norm_u = float(np.linalg.norm(u_arr))
    norm_v = float(np.linalg.norm(v_arr))
    if norm_u == 0.0 and norm_v == 0.0:
        return 0.0
    if norm_u == 0.0 or norm_v == 0.0:
        return 1.0
    similarity = float(np.dot(u_arr, v_arr)) / (norm_u * norm_v)
    # Clamp against floating point drift outside [-1, 1].
    similarity = max(-1.0, min(1.0, similarity))
    return 1.0 - similarity


def jaccard(u: np.ndarray, v: np.ndarray) -> float:
    """Jaccard distance between binary-interpreted vectors.

    Vectors are binarised with "non-zero == present".  Distance is
    ``1 - |intersection| / |union|``; two empty sets have distance 0.
    """
    u_arr, v_arr = _validate(u, v)
    u_bool = u_arr != 0
    v_bool = v_arr != 0
    union = int(np.count_nonzero(u_bool | v_bool))
    if union == 0:
        return 0.0
    intersection = int(np.count_nonzero(u_bool & v_bool))
    return 1.0 - intersection / union


def hamming(u: np.ndarray, v: np.ndarray) -> float:
    """Normalised Hamming distance (fraction of differing coordinates)."""
    u_arr, v_arr = _validate(u, v)
    return float(np.mean(u_arr != v_arr))


def cityblock(u: np.ndarray, v: np.ndarray) -> float:
    """Manhattan (L1) distance."""
    u_arr, v_arr = _validate(u, v)
    return float(np.sum(np.abs(u_arr - v_arr)))


def chebyshev(u: np.ndarray, v: np.ndarray) -> float:
    """Chebyshev (L-infinity) distance."""
    u_arr, v_arr = _validate(u, v)
    return float(np.max(np.abs(u_arr - v_arr)))


METRICS: dict[str, Metric] = {
    "euclidean": euclidean,
    "sqeuclidean": squared_euclidean,
    "cosine": cosine,
    "jaccard": jaccard,
    "hamming": hamming,
    "cityblock": cityblock,
    "manhattan": cityblock,
    "chebyshev": chebyshev,
}


def get_metric(name: str) -> Metric:
    """Look up a metric by name (case-insensitive)."""
    try:
        return METRICS[name.strip().lower()]
    except (KeyError, AttributeError) as exc:
        raise DistanceError(
            f"unknown distance metric {name!r}; available: {sorted(METRICS)}"
        ) from exc
