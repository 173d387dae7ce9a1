"""A labelled feature matrix shared by the clustering front-ends.

:class:`FeatureMatrix` is a thin, immutable wrapper around a dense numpy array
with row labels (cuisines) and column labels (pattern strings, item names or
coordinate axes).  Every clustering entry point in :mod:`repro.cluster` and
every figure builder in :mod:`repro.core.figures` consumes this type, so the
pattern-based, authenticity-based and geography-based analyses all flow
through the same code path -- mirroring how the paper feeds different feature
constructions into the same HAC machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FeatureError

__all__ = ["FeatureMatrix", "pack_rows"]


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean/0-1 matrix into row-major bitsets (uint8 words).

    Each row of the result holds ``ceil(n_columns / 8)`` bytes, big-endian
    bit order (``np.packbits`` default), so row *r*, column *c* lives in byte
    ``c // 8`` at bit ``7 - c % 8``.  The classifier sidecar stores its
    pattern incidence this way, 8× denser than a boolean matrix, and tests
    membership with word-wise ANDs.
    """
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise FeatureError("pack_rows expects a two-dimensional matrix")
    return np.packbits(dense.astype(bool, copy=False), axis=1)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Dense row-labelled / column-labelled feature matrix."""

    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise FeatureError("feature matrix values must be two-dimensional")
        if values.shape != (len(self.row_labels), len(self.column_labels)):
            raise FeatureError(
                f"feature matrix shape {values.shape} does not match "
                f"{len(self.row_labels)} rows x {len(self.column_labels)} columns"
            )
        if len(set(self.row_labels)) != len(self.row_labels):
            raise FeatureError("row labels must be unique")
        if not np.all(np.isfinite(values)):
            raise FeatureError("feature matrix must not contain NaN or infinity")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "column_labels", tuple(self.column_labels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return (
            self.row_labels == other.row_labels
            and self.column_labels == other.column_labels
            and np.array_equal(self.values, other.values)
        )

    # -- shape ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_columns(self) -> int:
        return len(self.column_labels)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_columns)

    # -- access ------------------------------------------------------------------

    def row_index(self, label: str) -> int:
        try:
            return self.row_labels.index(label)
        except ValueError as exc:
            raise FeatureError(f"unknown row label: {label!r}") from exc

    def row(self, label: str) -> np.ndarray:
        """Return a copy of the row vector for *label*."""
        return self.values[self.row_index(label)].copy()

    def column(self, label: str) -> np.ndarray:
        """Return a copy of the column vector for *label*."""
        try:
            index = self.column_labels.index(label)
        except ValueError as exc:
            raise FeatureError(f"unknown column label: {label!r}") from exc
        return self.values[:, index].copy()

    # -- transformations --------------------------------------------------------------

    def binarized(self, threshold: float = 0.0) -> "FeatureMatrix":
        """Return a 0/1 copy (value > threshold), used for Jaccard distances."""
        return FeatureMatrix(
            row_labels=self.row_labels,
            column_labels=self.column_labels,
            values=(self.values > threshold).astype(np.float64),
        )

    def standardized(self) -> "FeatureMatrix":
        """Z-score each column (columns with zero variance are left centred)."""
        means = self.values.mean(axis=0, keepdims=True)
        stds = self.values.std(axis=0, keepdims=True)
        safe_stds = np.where(stds > 0, stds, 1.0)
        return FeatureMatrix(
            row_labels=self.row_labels,
            column_labels=self.column_labels,
            values=(self.values - means) / safe_stds,
        )

    def select_rows(self, labels: Sequence[str]) -> "FeatureMatrix":
        """Project onto a subset of rows, in the given order."""
        indices = [self.row_index(label) for label in labels]
        return FeatureMatrix(
            row_labels=tuple(labels),
            column_labels=self.column_labels,
            values=self.values[indices].copy(),
        )

    def drop_constant_columns(self) -> "FeatureMatrix":
        """Remove columns whose value is identical for every row.

        Constant columns carry no clustering signal and inflate Euclidean
        distances uniformly; dropping them is a no-op for the cluster
        structure but keeps feature matrices compact.  When *all* columns are
        constant the matrix is returned unchanged (distance zero everywhere is
        then the honest answer).
        """
        if self.n_columns == 0:
            return self
        variable = ~np.all(self.values == self.values[0:1, :], axis=0)
        if not variable.any():
            return self
        kept = [label for label, keep in zip(self.column_labels, variable) if keep]
        return FeatureMatrix(
            row_labels=self.row_labels,
            column_labels=tuple(kept),
            values=self.values[:, variable].copy(),
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "row_labels": list(self.row_labels),
            "column_labels": list(self.column_labels),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "FeatureMatrix":
        """Rebuild a matrix from :meth:`to_dict` output."""
        row_labels = tuple(str(label) for label in payload["row_labels"])  # type: ignore[union-attr]
        column_labels = tuple(str(label) for label in payload["column_labels"])  # type: ignore[union-attr]
        values = np.asarray(payload["values"], dtype=np.float64)
        if values.size == 0:
            values = values.reshape(len(row_labels), len(column_labels))
        return cls(row_labels=row_labels, column_labels=column_labels, values=values)
