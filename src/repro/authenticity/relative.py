"""Relative prevalence / authenticity (equation 2 of the paper).

The authenticity of item *i* for cuisine *c* is its prevalence relative to the
average prevalence of the same item in every *other* cuisine:

    p_i^c = P_i^c - <P_i^k>_{k != c}

Positive values mark items used distinctly more in cuisine *c* than elsewhere
(the culinary fingerprint); negative values mark items the cuisine
conspicuously avoids.  Both tails carry signal (Section V-B), which is why the
authenticity-based clustering of Figure 5 operates on the signed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FeatureError
from repro.authenticity.prevalence import PrevalenceMatrix, smallest_k

__all__ = ["AuthenticityMatrix", "relative_prevalence"]


@dataclass(frozen=True)
class AuthenticityMatrix:
    """Signed cuisine × item authenticity matrix (relative prevalence)."""

    cuisines: tuple[str, ...]
    items: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.cuisines), len(self.items)):
            raise FeatureError(
                f"authenticity matrix shape {self.values.shape} does not match "
                f"{len(self.cuisines)} cuisines x {len(self.items)} items"
            )

    def cuisine_index(self, cuisine: str) -> int:
        try:
            return self.cuisines.index(cuisine)
        except ValueError as exc:
            raise FeatureError(f"unknown cuisine: {cuisine!r}") from exc

    def item_index(self, item: str) -> int:
        try:
            return self.items.index(item)
        except ValueError as exc:
            raise FeatureError(f"unknown item: {item!r}") from exc

    def authenticity(self, cuisine: str, item: str) -> float:
        """p_i^c for one (cuisine, item) pair."""
        return float(self.values[self.cuisine_index(cuisine), self.item_index(item)])

    def cuisine_vector(self, cuisine: str) -> np.ndarray:
        """The signed authenticity row of one cuisine (copy)."""
        return self.values[self.cuisine_index(cuisine)].copy()

    def feature_matrix(self) -> np.ndarray:
        """The full matrix as the feature array fed to clustering (copy)."""
        return self.values.copy()

    def most_authentic(self, cuisine: str, k: int = 10) -> list[tuple[str, float]]:
        """The *k* items with the highest positive authenticity for a cuisine."""
        if k <= 0:
            raise FeatureError("k must be positive")
        row = self.values[self.cuisine_index(cuisine)]
        return [(self.items[i], float(row[i])) for i in smallest_k(-row, k)]

    def least_authentic(self, cuisine: str, k: int = 10) -> list[tuple[str, float]]:
        """The *k* items with the most negative authenticity for a cuisine."""
        if k <= 0:
            raise FeatureError("k must be positive")
        row = self.values[self.cuisine_index(cuisine)]
        return [(self.items[i], float(row[i])) for i in smallest_k(row, k)]

    def to_dict(self) -> dict[str, object]:
        return {
            "cuisines": list(self.cuisines),
            "items": list(self.items),
            "values": self.values.tolist(),
        }


def relative_prevalence(prevalence: PrevalenceMatrix) -> AuthenticityMatrix:
    """Compute the authenticity matrix from a prevalence matrix.

    For every item the *other-cuisine* mean is computed excluding the cuisine
    itself (a leave-one-out mean), exactly as equation 2 prescribes with its
    ``c != k`` constraint.  With ``n`` cuisines:

        mean_others = (sum_all - own) / (n - 1)

    A single-cuisine matrix has no "others"; the authenticity is defined as the
    prevalence itself in that degenerate case.
    """
    values = prevalence.values
    n_cuisines = values.shape[0]
    if n_cuisines == 1:
        relative = values.copy()
    else:
        totals = values.sum(axis=0, keepdims=True)
        mean_others = (totals - values) / (n_cuisines - 1)
        relative = values - mean_others
    return AuthenticityMatrix(
        cuisines=prevalence.cuisines,
        items=prevalence.items,
        values=relative,
    )
