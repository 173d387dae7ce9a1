"""Vectorising mined patterns and authenticity matrices into feature matrices.

Three constructions feed the paper's clustering experiments:

* :func:`pattern_membership_matrix` -- the cuisine × string-pattern matrix
  behind Figures 2-4.  Cell ``(c, p)`` holds either a 0/1 membership flag
  (``weighting="binary"``) or the support of pattern *p* in cuisine *c*
  (``weighting="support"``).  The paper label-encodes and vectorises pattern
  strings; membership weighting is the faithful reading, and support
  weighting is provided as a richer variant used in the ablations.
* :func:`authenticity_feature_matrix` -- wraps an
  :class:`~repro.authenticity.relative.AuthenticityMatrix` as the feature
  matrix behind Figure 5.
* :func:`coordinate_feature_matrix` -- wraps region coordinates for the
  geographic reference clustering of Figure 6.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.authenticity.relative import AuthenticityMatrix
from repro.features.encoding import LabelEncoder, encode_cuisine_patterns
from repro.features.matrix import FeatureMatrix
from repro.mining.itemsets import MiningResult

__all__ = [
    "pattern_membership_matrix",
    "authenticity_feature_matrix",
    "coordinate_feature_matrix",
]

_WEIGHTINGS = ("binary", "support")


def pattern_membership_matrix(
    results_by_cuisine: Mapping[str, MiningResult],
    *,
    weighting: str = "binary",
    separator: str = " + ",
) -> tuple[FeatureMatrix, LabelEncoder]:
    """Build the cuisine × pattern feature matrix from per-cuisine mining results.

    Parameters
    ----------
    results_by_cuisine:
        Mapping cuisine name -> :class:`MiningResult` (one mining run per
        cuisine at the chosen support threshold, as in Section V-A).
    weighting:
        ``"binary"`` (default) stores 1.0 when the cuisine exhibits the
        pattern; ``"support"`` stores the within-cuisine support instead.
    separator:
        Separator used when turning itemsets into string patterns.

    Returns
    -------
    (FeatureMatrix, LabelEncoder)
        The feature matrix has one row per cuisine (sorted) and one column per
        distinct string pattern (sorted, i.e. in label-encoder order).
    """
    if weighting not in _WEIGHTINGS:
        raise FeatureError(f"weighting must be one of {_WEIGHTINGS}, got {weighting!r}")
    encoder, encoded = encode_cuisine_patterns(results_by_cuisine, separator=separator)
    cuisines = tuple(sorted(results_by_cuisine))
    columns = encoder.classes
    values = np.zeros((len(cuisines), len(columns)), dtype=np.float64)
    for row, cuisine in enumerate(cuisines):
        result = results_by_cuisine[cuisine]
        if weighting == "binary":
            for code in encoded[cuisine]:
                values[row, code] = 1.0
        else:
            for pattern in result:
                code = encoder.transform([pattern.as_string(separator)])[0]
                values[row, code] = pattern.support
    matrix = FeatureMatrix(row_labels=cuisines, column_labels=columns, values=values)
    return matrix, encoder


def authenticity_feature_matrix(authenticity: AuthenticityMatrix) -> FeatureMatrix:
    """Wrap an authenticity matrix as the Figure 5 feature matrix."""
    return FeatureMatrix(
        row_labels=authenticity.cuisines,
        column_labels=authenticity.items,
        values=authenticity.values.copy(),
    )


def coordinate_feature_matrix(
    coordinates: Mapping[str, Sequence[float]],
    *,
    column_labels: Sequence[str] = ("latitude", "longitude"),
) -> FeatureMatrix:
    """Wrap per-region coordinates as a feature matrix (Figure 6 input)."""
    if not coordinates:
        raise FeatureError("at least one region coordinate is required")
    regions = tuple(sorted(coordinates))
    width = len(column_labels)
    values = np.zeros((len(regions), width), dtype=np.float64)
    for row, region in enumerate(regions):
        vector = list(coordinates[region])
        if len(vector) != width:
            raise FeatureError(
                f"coordinate vector for {region!r} has length {len(vector)}, "
                f"expected {width}"
            )
        values[row] = vector
    return FeatureMatrix(
        row_labels=regions, column_labels=tuple(column_labels), values=values
    )
