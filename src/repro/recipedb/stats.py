"""Corpus statistics mirroring Section III of the paper.

The paper characterises its RecipeDB extract with a handful of headline
numbers: 118,071 recipes, 26 cuisines, 20,280 unique ingredients, 268 unique
processes, 69 unique utensils, ~10 ingredients / ~12 processes / ~3 utensils
per recipe and 14,601 recipes with no utensil information.
:func:`corpus_statistics` computes the same summary for any
:class:`~repro.recipedb.database.RecipeDatabase`, and
:func:`region_statistics` produces the per-cuisine breakdown used when
building Table I.  Both count over the database's integer-id form
(:attr:`~repro.recipedb.database.RecipeDatabase.columns`), never over
``Recipe`` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.recipedb.database import RecipeDatabase

__all__ = [
    "CorpusStatistics",
    "RegionStatistics",
    "corpus_statistics",
    "region_statistics",
    "summarise_distribution",
]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def summarise_distribution(values: Sequence[float]) -> dict[str, float]:
    """Return mean / std / min / max of a numeric sample (0s when empty)."""
    if not values:
        return {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": _mean(values),
        "std": _std(values),
        "min": float(min(values)),
        "max": float(max(values)),
    }


@dataclass(frozen=True, slots=True)
class RegionStatistics:
    """Per-cuisine corpus statistics."""

    region: str
    n_recipes: int
    n_unique_ingredients: int
    n_unique_processes: int
    n_unique_utensils: int
    mean_ingredients_per_recipe: float
    mean_processes_per_recipe: float
    mean_utensils_per_recipe: float
    recipes_without_utensils: int

    def to_dict(self) -> dict[str, object]:
        return {
            "region": self.region,
            "n_recipes": self.n_recipes,
            "n_unique_ingredients": self.n_unique_ingredients,
            "n_unique_processes": self.n_unique_processes,
            "n_unique_utensils": self.n_unique_utensils,
            "mean_ingredients_per_recipe": self.mean_ingredients_per_recipe,
            "mean_processes_per_recipe": self.mean_processes_per_recipe,
            "mean_utensils_per_recipe": self.mean_utensils_per_recipe,
            "recipes_without_utensils": self.recipes_without_utensils,
        }


@dataclass(frozen=True, slots=True)
class CorpusStatistics:
    """Whole-corpus statistics (the Section III headline numbers)."""

    n_recipes: int
    n_regions: int
    n_unique_ingredients: int
    n_unique_processes: int
    n_unique_utensils: int
    mean_ingredients_per_recipe: float
    mean_processes_per_recipe: float
    mean_utensils_per_recipe: float
    recipes_without_utensils: int
    region_recipe_counts: dict[str, int] = field(default_factory=dict)

    @property
    def utensil_sparsity(self) -> float:
        """Fraction of recipes that carry no utensil information."""
        if self.n_recipes == 0:
            return 0.0
        return self.recipes_without_utensils / self.n_recipes

    def to_dict(self) -> dict[str, object]:
        return {
            "n_recipes": self.n_recipes,
            "n_regions": self.n_regions,
            "n_unique_ingredients": self.n_unique_ingredients,
            "n_unique_processes": self.n_unique_processes,
            "n_unique_utensils": self.n_unique_utensils,
            "mean_ingredients_per_recipe": self.mean_ingredients_per_recipe,
            "mean_processes_per_recipe": self.mean_processes_per_recipe,
            "mean_utensils_per_recipe": self.mean_utensils_per_recipe,
            "recipes_without_utensils": self.recipes_without_utensils,
            "utensil_sparsity": self.utensil_sparsity,
            "region_recipe_counts": dict(self.region_recipe_counts),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CorpusStatistics":
        """Rebuild from :meth:`to_dict` output (derived fields are ignored)."""
        return cls(
            n_recipes=int(payload["n_recipes"]),
            n_regions=int(payload["n_regions"]),
            n_unique_ingredients=int(payload["n_unique_ingredients"]),
            n_unique_processes=int(payload["n_unique_processes"]),
            n_unique_utensils=int(payload["n_unique_utensils"]),
            mean_ingredients_per_recipe=float(payload["mean_ingredients_per_recipe"]),
            mean_processes_per_recipe=float(payload["mean_processes_per_recipe"]),
            mean_utensils_per_recipe=float(payload["mean_utensils_per_recipe"]),
            recipes_without_utensils=int(payload["recipes_without_utensils"]),
            region_recipe_counts={
                str(region): int(count)
                for region, count in dict(payload.get("region_recipe_counts", {})).items()
            },
        )

    def paper_comparison(self) -> dict[str, dict[str, float]]:
        """Side-by-side of paper-reported vs measured headline numbers."""
        paper = {
            "n_recipes": 118071,
            "n_regions": 26,
            "n_unique_ingredients": 20280,
            "n_unique_processes": 268,
            "n_unique_utensils": 69,
            "mean_ingredients_per_recipe": 10.0,
            "mean_processes_per_recipe": 12.0,
            "mean_utensils_per_recipe": 3.0,
            "recipes_without_utensils": 14601,
        }
        measured = self.to_dict()
        return {
            key: {"paper": float(paper_value), "measured": float(measured[key])}
            for key, paper_value in paper.items()
        }


def _mean_length(lengths: np.ndarray) -> float:
    """Mean of per-recipe entity counts, as ``sum / len`` of Python ints."""
    return int(lengths.sum()) / len(lengths) if len(lengths) else 0.0


def corpus_statistics(database: RecipeDatabase) -> CorpusStatistics:
    """Compute whole-corpus statistics for *database* from its id form."""
    columns = database.columns
    ingredients, processes, utensils = columns.kinds
    utensil_counts = utensils.lengths()
    return CorpusStatistics(
        n_recipes=len(columns),
        n_regions=len(database.region_names()),
        n_unique_ingredients=ingredients.n_used(),
        n_unique_processes=processes.n_used(),
        n_unique_utensils=utensils.n_used(),
        mean_ingredients_per_recipe=_mean_length(ingredients.lengths()),
        mean_processes_per_recipe=_mean_length(processes.lengths()),
        mean_utensils_per_recipe=_mean_length(utensil_counts),
        recipes_without_utensils=int(np.count_nonzero(utensil_counts == 0)),
        region_recipe_counts=database.region_recipe_counts(),
    )


def region_statistics(database: RecipeDatabase, region: str) -> RegionStatistics:
    """Compute the per-cuisine breakdown used for Table I rows."""
    if not database.has_region(region):
        raise ValidationError(f"unknown region: {region!r}")
    columns = database.columns
    rows = columns.region_positions([region]) == 0
    counts: list[np.ndarray] = []
    unique: list[int] = []
    for column in columns.kinds:
        lengths = column.lengths()
        counts.append(lengths[rows])
        ids = column.ids[np.repeat(rows, lengths)]
        unique.append(len(np.unique(ids)))
    return RegionStatistics(
        region=region,
        n_recipes=int(np.count_nonzero(rows)),
        n_unique_ingredients=unique[0],
        n_unique_processes=unique[1],
        n_unique_utensils=unique[2],
        mean_ingredients_per_recipe=_mean_length(counts[0]),
        mean_processes_per_recipe=_mean_length(counts[1]),
        mean_utensils_per_recipe=_mean_length(counts[2]),
        recipes_without_utensils=int(np.count_nonzero(counts[2] == 0)),
    )
