"""Item prevalence per cuisine (equation 1 of the paper).

The paper defines the prevalence of an item *i* in a cuisine *c* as

    P_i^c = n_i^c / N_c

where ``n_i^c`` is the number of recipes of cuisine *c* containing *i* and
``N_c`` is the number of recipes in that cuisine.  (The paper's equation
writes ``N_C``; the accompanying description -- "number of recipes n_i^c in a
cuisine over total number of recipes" -- and the original Ahn et al. (2011)
definition both normalise by the cuisine size, which is what we implement.)

:class:`PrevalenceMatrix` is a dense cuisines × items matrix wrapping a numpy
array with the label bookkeeping needed by the downstream relative-prevalence
(authenticity) computation and by the Figure 5 clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind

__all__ = [
    "PrevalenceMatrix",
    "prevalence_matrix",
    "smallest_k",
]


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` without sorting every value.

    ``np.partition`` finds the k-th smallest value; only the entries at or
    below it are then sorted, stably and taken in index order, so equal
    values keep their index order exactly as in the full stable sort
    (``-0.0`` and ``0.0`` are equal to both).  For *k* at least the length,
    or a NaN k-th value (NaN sorts last, and no comparison selects it), it
    is the full sort.  *k* must be positive.
    """
    if k < len(values):
        kth = np.partition(values, k - 1)[k - 1]
        if not np.isnan(kth):
            candidates = np.flatnonzero(values <= kth)
            return candidates[np.argsort(values[candidates], kind="stable")[:k]]
    return np.argsort(values, kind="stable")[:k]


@dataclass(frozen=True)
class PrevalenceMatrix:
    """Dense cuisine × item prevalence matrix with row/column labels."""

    cuisines: tuple[str, ...]
    items: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.cuisines), len(self.items)):
            raise FeatureError(
                f"prevalence matrix shape {self.values.shape} does not match "
                f"{len(self.cuisines)} cuisines x {len(self.items)} items"
            )
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise FeatureError("prevalence values must lie in [0, 1]")

    # -- lookups -----------------------------------------------------------------

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

    def prevalence(self, cuisine: str, item: str) -> float:
        """P_i^c for one (cuisine, item) pair."""
        return float(self.values[self.cuisine_index(cuisine), self.item_index(item)])

    def cuisine_vector(self, cuisine: str) -> np.ndarray:
        """The prevalence row of one cuisine (copy)."""
        return self.values[self.cuisine_index(cuisine)].copy()

    def item_vector(self, item: str) -> np.ndarray:
        """The prevalence column of one item across cuisines (copy)."""
        return self.values[:, self.item_index(item)].copy()

    def mean_item_prevalence(self) -> np.ndarray:
        """Average prevalence of each item across cuisines ((P_i^k)_{c != k} base)."""
        return self.values.mean(axis=0)

    def top_items(self, cuisine: str, k: int = 10) -> list[tuple[str, float]]:
        """The *k* most prevalent items of a cuisine."""
        if k <= 0:
            raise FeatureError("k must be positive")
        row = self.values[self.cuisine_index(cuisine)]
        return [(self.items[i], float(row[i])) for i in smallest_k(-row, k)]

    def restrict_items(self, items: Sequence[str]) -> "PrevalenceMatrix":
        """Project the matrix onto a subset of items (order preserved)."""
        indices = [self.item_index(item) for item in items]
        return PrevalenceMatrix(
            cuisines=self.cuisines,
            items=tuple(items),
            values=self.values[:, indices].copy(),
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "cuisines": list(self.cuisines),
            "items": list(self.items),
            "values": self.values.tolist(),
        }


def prevalence_matrix(
    database: RecipeDatabase,
    *,
    kinds: Iterable[EntityKind] | None = (EntityKind.INGREDIENT,),
    min_document_frequency: int = 1,
) -> PrevalenceMatrix:
    """Compute the prevalence matrix of a recipe database.

    By default only ingredients are considered, matching Figure 5 of the paper
    ("Hierarchical Agglomerative Clustering based on Authenticity of
    Ingredients"); pass ``kinds=None`` to use the full item space.

    Counted over the database's integer-id form: each registered cuisine's
    recipes as rows of the selected kinds' item ids
    (:meth:`~repro.recipedb.columns.RecipeColumns.item_rows`, where a name
    held by two kinds is one item), and one ``np.bincount`` of
    ``(cuisine, item)`` pairs gives every document count.  An item is kept
    when its corpus-wide document count reaches *min_document_frequency*,
    which keeps hapax items from dominating the authenticity matrix at full
    corpus scale.
    """
    cuisines = tuple(database.region_names())
    rows = database.columns.item_rows(cuisines, kinds)
    if not cuisines:
        raise FeatureError("at least one cuisine is required")
    if min_document_frequency < 1:
        raise FeatureError("min_document_frequency must be at least 1")
    width = len(rows.items)
    document_counts = np.bincount(
        rows.region_of_ids() * width + rows.tids, minlength=len(cuisines) * width
    ).reshape(len(cuisines), width)
    keep = document_counts.sum(axis=0) >= min_document_frequency
    items = tuple(compress(rows.items, keep.tolist()))
    if not items:
        raise FeatureError("no items survive the document-frequency filter")

    # count / size as doubles, exactly what Python's int division gives.
    sizes = rows.region_sizes.reshape(-1, 1)
    values = np.zeros((len(cuisines), len(items)), dtype=np.float64)
    np.divide(document_counts[:, keep], sizes, out=values, where=sizes > 0)
    return PrevalenceMatrix(cuisines=cuisines, items=items, values=values)
