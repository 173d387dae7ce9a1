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

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import FeatureError
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind

__all__ = ["PrevalenceMatrix", "prevalence_matrix", "prevalence_from_transactions"]


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
        order = np.argsort(-row, kind="stable")[:k]
        return [(self.items[i], float(row[i])) for i in order]

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


def prevalence_from_transactions(
    transactions_by_cuisine: Mapping[str, Sequence[Iterable[str]]],
    *,
    min_document_frequency: int = 1,
) -> PrevalenceMatrix:
    """Compute a prevalence matrix directly from per-cuisine transactions.

    ``min_document_frequency`` drops items appearing in fewer than that many
    recipes across the whole corpus, which keeps the authenticity matrix from
    being dominated by hapax items at full corpus scale.
    """
    return _prevalence_from_counts(
        {
            cuisine: (
                Counter(chain.from_iterable(map(set, transactions))),
                len(transactions),
            )
            for cuisine, transactions in transactions_by_cuisine.items()
        },
        min_document_frequency,
    )


def _prevalence_from_counts(
    counted: Mapping[str, tuple[Mapping[str, int], int]],
    min_document_frequency: int,
) -> PrevalenceMatrix:
    """The matrix from each cuisine's ``(item document counts, recipe count)``."""
    if not counted:
        raise FeatureError("at least one cuisine is required")
    if min_document_frequency < 1:
        raise FeatureError("min_document_frequency must be at least 1")

    cuisines = tuple(sorted(counted))
    vocabulary = sorted(set().union(*(counts for counts, _size in counted.values())))
    column_of = {item: column for column, item in enumerate(vocabulary)}
    document_counts = np.zeros((len(cuisines), len(vocabulary)), dtype=np.int64)
    for row, cuisine in enumerate(cuisines):
        counts = counted[cuisine][0]
        columns = np.fromiter(
            map(column_of.__getitem__, counts), dtype=np.intp, count=len(counts)
        )
        document_counts[row, columns] = np.fromiter(
            counts.values(), dtype=np.int64, count=len(counts)
        )
    keep = document_counts.sum(axis=0) >= min_document_frequency
    items = tuple(compress(vocabulary, keep.tolist()))
    if not items:
        raise FeatureError("no items survive the document-frequency filter")

    # count / size as doubles, exactly what Python's int division gives.
    sizes = np.array([[counted[cuisine][1]] for cuisine in cuisines], dtype=np.int64)
    values = np.zeros((len(cuisines), len(items)), dtype=np.float64)
    np.divide(document_counts[:, keep], sizes, out=values, where=sizes > 0)
    return PrevalenceMatrix(cuisines=cuisines, items=items, values=values)


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

    A recipe's entity tuple holds distinct names, so one kind is counted
    straight over the tuples; several kinds go through
    :meth:`~repro.recipedb.models.Recipe.items`, which drops a name shared
    by two kinds to one.
    """
    kinds_tuple = tuple(kinds) if kinds is not None else None
    counted: dict[str, tuple[Counter[str], int]] = {}
    for region in database.region_names():
        recipes = database.recipes_in_region(region)
        if (
            kinds_tuple is not None
            and len(kinds_tuple) == 1
            and isinstance(kinds_tuple[0], EntityKind)
        ):
            kind = kinds_tuple[0]
            rows = (recipe.entities_of(kind) for recipe in recipes)
        else:
            rows = (recipe.items(kinds_tuple) for recipe in recipes)
        counted[region] = (Counter(chain.from_iterable(rows)), len(recipes))
    return _prevalence_from_counts(counted, min_document_frequency)
