"""A small composable query layer over :class:`~repro.recipedb.database.RecipeDatabase`.

The paper only needs "all recipes of cuisine X" and "recipes containing item
Y", but a reusable library should expose a slightly richer, explicit query
surface.  :class:`RecipeQuery` is an immutable builder: each refinement
returns a new query, and :meth:`RecipeQuery.execute` evaluates it against a
database's integer-id form: the region and containment filters select rows
of the arrays, and only the rows they keep become ``Recipe`` objects for
the remaining predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.errors import QueryError
from repro.recipedb.models import EntityKind, Recipe, normalize_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.recipedb.columns import RecipeColumns
    from repro.recipedb.database import RecipeDatabase

__all__ = ["RecipeQuery", "QueryResult"]


Predicate = Callable[[Recipe], bool]


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Materialised result of a :class:`RecipeQuery`."""

    recipes: tuple[Recipe, ...]

    def __len__(self) -> int:
        return len(self.recipes)

    def __iter__(self):
        return iter(self.recipes)

    def __getitem__(self, index: int) -> Recipe:
        return self.recipes[index]

    def ids(self) -> list[int]:
        return [r.recipe_id for r in self.recipes]

    def regions(self) -> list[str]:
        return sorted({r.region for r in self.recipes})

    def transactions(self, kinds: Iterable[EntityKind] | None = None) -> list[frozenset[str]]:
        """Return the matching recipes as mining transactions."""
        kinds_tuple = tuple(kinds) if kinds is not None else None
        return [r.items(kinds_tuple) for r in self.recipes]


@dataclass(frozen=True, slots=True)
class RecipeQuery:
    """Immutable query over a recipe database.

    Examples
    --------
    >>> query = (RecipeQuery()
    ...          .in_region("Japanese")
    ...          .containing_all(["soy sauce"])
    ...          .limit(5))
    >>> result = query.execute(db)        # doctest: +SKIP
    """

    _regions: tuple[str, ...] = ()
    _must_contain: tuple[str, ...] = ()
    _must_contain_any: tuple[str, ...] = ()
    _must_not_contain: tuple[str, ...] = ()
    _min_ingredients: int | None = None
    _max_ingredients: int | None = None
    _require_utensils: bool | None = None
    _sources: tuple[str, ...] = ()
    _predicates: tuple[Predicate, ...] = ()
    _limit: int | None = None

    # -- builder steps -------------------------------------------------------

    def in_region(self, *regions: str) -> "RecipeQuery":
        """Restrict the query to one or more cuisines."""
        if not regions:
            raise QueryError("in_region requires at least one region")
        return replace(self, _regions=self._regions + tuple(regions))

    def containing_all(self, items: Sequence[str]) -> "RecipeQuery":
        """Require every item in *items* to be present (any entity kind)."""
        if not items:
            raise QueryError("containing_all requires at least one item")
        normalised = tuple(normalize_name(i) for i in items)
        return replace(self, _must_contain=self._must_contain + normalised)

    def containing_any(self, items: Sequence[str]) -> "RecipeQuery":
        """Require at least one item in *items* to be present."""
        if not items:
            raise QueryError("containing_any requires at least one item")
        normalised = tuple(normalize_name(i) for i in items)
        return replace(self, _must_contain_any=self._must_contain_any + normalised)

    def excluding(self, items: Sequence[str]) -> "RecipeQuery":
        """Reject recipes containing any item in *items*."""
        if not items:
            raise QueryError("excluding requires at least one item")
        normalised = tuple(normalize_name(i) for i in items)
        return replace(self, _must_not_contain=self._must_not_contain + normalised)

    def with_ingredient_count(
        self, minimum: int | None = None, maximum: int | None = None
    ) -> "RecipeQuery":
        """Bound the number of ingredients."""
        if minimum is not None and minimum < 0:
            raise QueryError("minimum ingredient count must be non-negative")
        if maximum is not None and maximum < 0:
            raise QueryError("maximum ingredient count must be non-negative")
        if minimum is not None and maximum is not None and minimum > maximum:
            raise QueryError("minimum ingredient count exceeds maximum")
        return replace(self, _min_ingredients=minimum, _max_ingredients=maximum)

    def with_utensil_data(self, required: bool = True) -> "RecipeQuery":
        """Keep only recipes that do (or do not) carry utensil information."""
        return replace(self, _require_utensils=required)

    def from_source(self, *sources: str) -> "RecipeQuery":
        """Restrict to recipes from specific provenance sources."""
        if not sources:
            raise QueryError("from_source requires at least one source")
        return replace(self, _sources=self._sources + tuple(s.strip() for s in sources))

    def where(self, predicate: Predicate) -> "RecipeQuery":
        """Attach an arbitrary recipe predicate (evaluated last)."""
        return replace(self, _predicates=self._predicates + (predicate,))

    def limit(self, count: int) -> "RecipeQuery":
        """Return at most *count* recipes (ordered by recipe id)."""
        if count <= 0:
            raise QueryError("limit must be positive")
        return replace(self, _limit=count)

    # -- evaluation ----------------------------------------------------------

    def execute(self, database: "RecipeDatabase") -> QueryResult:
        """Evaluate against *database* and return the matching recipes."""
        columns = database.columns
        matched: list[Recipe] = []
        for row in np.flatnonzero(self._candidate_rows(columns)).tolist():
            recipe = columns.recipe(row)
            if self._matches(recipe):
                matched.append(recipe)
                if self._limit is not None and len(matched) >= self._limit:
                    break
        return QueryResult(tuple(matched))

    def count(self, database: "RecipeDatabase") -> int:
        """Number of matching recipes (honours :meth:`limit`)."""
        return len(self.execute(database))

    # -- internals -----------------------------------------------------------

    def _candidate_rows(self, columns: "RecipeColumns") -> np.ndarray:
        """The rows the region and containment filters keep, as a mask."""
        keep = np.ones(len(columns), dtype=bool)
        if self._regions:
            keep &= columns.region_positions(self._regions) >= 0
        for item in self._must_contain:
            keep &= columns.holds(item)
        if self._must_contain_any:
            keep &= np.logical_or.reduce(
                [columns.holds(item) for item in self._must_contain_any]
            )
        return keep

    def _matches(self, recipe: Recipe) -> bool:
        if self._must_not_contain and recipe.items() & set(self._must_not_contain):
            return False
        if self._min_ingredients is not None and recipe.n_ingredients < self._min_ingredients:
            return False
        if self._max_ingredients is not None and recipe.n_ingredients > self._max_ingredients:
            return False
        if self._require_utensils is not None and recipe.has_utensils != self._require_utensils:
            return False
        if self._sources and recipe.source not in self._sources:
            return False
        return all(predicate(recipe) for predicate in self._predicates)
