"""The in-memory RecipeDB-like store.

:class:`RecipeDatabase` is the substrate every analysis in the paper runs on.
It holds its registered regions (the 26 cuisines), its schema and the corpus
as one :class:`~repro.recipedb.columns.RecipeColumns`, the integer-id form,
and nothing else.  The synthetic generator fills it through
:meth:`~RecipeDatabase.from_columns`; :meth:`~RecipeDatabase.add_recipes`
(and :meth:`~RecipeDatabase.from_recipes`, which every corpus loader uses)
validates :class:`~repro.recipedb.models.Recipe` objects and rebuilds the
columns from them once per call, keeping no ``Recipe``.

The analyses (corpus statistics, Table I counts, prevalence, the mining CSR,
the corpus JSON) read :attr:`~RecipeDatabase.columns`.  The query surface
(:meth:`~RecipeDatabase.get`, :meth:`~RecipeDatabase.recipes_in_region`,
:class:`RecipeQuery`, the transactions and the supports) computes from the
columns on every call and keeps nothing; ``Recipe`` objects are built only
for the callers that ask for them.  The store is append-oriented (recipes
are inserted once and then read many times by the mining/clustering
layers) but supports deletion for completeness: each insert or delete
rebuilds the columns, so a corpus is best inserted in one batch.

Typical usage::

    db = RecipeDatabase()
    db.register_region(Region("Japanese", continent="Asia"))
    db.add_recipe(Recipe(0, "Teriyaki", "Japanese",
                         ingredients=("soy sauce", "mirin"),
                         processes=("heat", "add")))
    japanese = db.recipes_in_region("Japanese")
    transactions = db.transactions_for_region("Japanese")
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import (
    DuplicateRecordError,
    SchemaError,
    UnknownRecordError,
    ValidationError,
)
from repro.recipedb.columns import RecipeColumns
from repro.recipedb.models import EntityKind, Recipe, Region
from repro.recipedb.query import QueryResult, RecipeQuery
from repro.recipedb.schema import RecipeSchema

__all__ = ["RecipeDatabase"]


class RecipeDatabase:
    """In-memory recipe store: registered regions, a schema and the id form.

    Parameters
    ----------
    schema:
        Optional :class:`RecipeSchema`.  When omitted a permissive schema is
        used whose region set is populated from :meth:`register_region` calls.

    Every inserted recipe must reference a region previously registered with
    :meth:`register_region`, matching the paper's setup where the 26
    cuisines are fixed up-front.
    """

    __slots__ = ("_schema", "_regions", "_columns")

    def __init__(self, schema: RecipeSchema | None = None) -> None:
        self._schema = schema if schema is not None else RecipeSchema()
        self._regions: dict[str, Region] = {}
        self._columns = RecipeColumns.from_recipes(())

    @classmethod
    def from_columns(
        cls, columns: RecipeColumns, regions: Iterable[Region | str] = ()
    ) -> "RecipeDatabase":
        """A database holding *columns*, with *regions* registered first.

        The checks :meth:`add_recipes` runs on every recipe run over the
        arrays at once: distinct ids, registered regions, the schema's title
        and per-kind size limits, and at least one ingredient per recipe.
        No ``Recipe`` object is built unless one of them fails, to raise the
        error the per-recipe path raises.
        """
        database = cls()
        database.register_regions(regions)
        ids = columns.recipe_ids
        if len(ids) and np.any(ids[1:] <= ids[:-1]):
            repeated = np.flatnonzero(ids[1:] == ids[:-1])
            if len(repeated):
                raise DuplicateRecordError(
                    f"recipe id {int(ids[repeated[0] + 1])} already exists"
                )
            raise ValidationError("columns must hold recipes in ascending id order")
        unknown = [
            code for code, name in enumerate(columns.regions) if name not in database._regions
        ]
        rows = np.flatnonzero(np.isin(columns.region_codes, unknown))
        if len(rows):
            recipe = columns.recipe(int(rows[0]))
            raise SchemaError(
                f"recipe {recipe.recipe_id} references unregistered region "
                f"{recipe.region!r}; call register_region first"
            )
        empty = np.flatnonzero(columns.kind(EntityKind.INGREDIENT).lengths() == 0)
        if len(empty):
            row = int(empty[0])
            raise ValidationError(
                f"recipe {int(ids[row])!r} ({columns.titles[row]!r}) has no ingredients"
            )
        database._schema.validate_columns(columns)
        database._columns = columns
        return database

    # -- region management ---------------------------------------------------

    def register_region(self, region: Region | str) -> Region:
        """Register a cuisine; returns the stored :class:`Region`."""
        resolved = region if isinstance(region, Region) else Region(str(region))
        existing = self._regions.get(resolved.name)
        if existing is not None:
            return existing
        self._regions[resolved.name] = resolved
        self._schema.register_region(resolved.name)
        return resolved

    def register_regions(self, regions: Iterable[Region | str]) -> list[Region]:
        return [self.register_region(region) for region in regions]

    def regions(self) -> list[Region]:
        """All registered regions sorted by name."""
        return [self._regions[name] for name in sorted(self._regions)]

    def region_names(self) -> list[str]:
        return sorted(self._regions)

    def has_region(self, name: str) -> bool:
        return name in self._regions

    # -- recipe management -----------------------------------------------------

    def add_recipe(self, recipe: Recipe) -> None:
        """Insert *recipe*; raises on duplicate ids or schema violations."""
        self.add_recipes((recipe,))

    def add_recipes(self, recipes: Iterable[Recipe]) -> int:
        """Insert many recipes; returns the number inserted.

        Each recipe is checked in turn: a new id, a registered region and
        the schema.  The columns are then rebuilt once with every recipe
        that passed -- also when a later one raises, so the recipes before
        a failing one stay inserted.
        """
        ids = set(self._columns.recipe_ids.tolist())
        added: list[Recipe] = []
        try:
            for recipe in recipes:
                if recipe.recipe_id in ids:
                    raise DuplicateRecordError(f"recipe id {recipe.recipe_id} already exists")
                if recipe.region not in self._regions:
                    raise SchemaError(
                        f"recipe {recipe.recipe_id} references unregistered region "
                        f"{recipe.region!r}; call register_region first"
                    )
                self._schema.validate(recipe)
                ids.add(recipe.recipe_id)
                added.append(recipe)
        finally:
            if added:
                self._rebuild(chain(self._columns.recipes(), added))
        return len(added)

    def remove_recipe(self, recipe_id: int) -> Recipe:
        """Delete and return the recipe stored under *recipe_id*."""
        recipe = self.get(recipe_id)
        self._rebuild(kept for kept in self._columns.recipes() if kept.recipe_id != recipe_id)
        return recipe

    def _rebuild(self, recipes: Iterable[Recipe]) -> None:
        self._columns = RecipeColumns.from_recipes(
            sorted(recipes, key=attrgetter("recipe_id"))
        )

    def _row(self, recipe_id: object) -> int:
        """The row holding *recipe_id*, or -1."""
        ids = self._columns.recipe_ids
        if isinstance(recipe_id, (int, np.integer)):
            row = int(np.searchsorted(ids, recipe_id))
            if row < len(ids) and ids[row] == recipe_id:
                return row
        return -1

    def get(self, recipe_id: int) -> Recipe:
        """Return the recipe stored under *recipe_id*."""
        row = self._row(recipe_id)
        if row < 0:
            raise UnknownRecordError(f"unknown recipe id: {recipe_id}")
        return self._columns.recipe(row)

    def __contains__(self, recipe_id: object) -> bool:
        return self._row(recipe_id) >= 0

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self.recipes())

    def recipe_ids(self) -> list[int]:
        return self._columns.recipe_ids.tolist()

    def recipes(self) -> list[Recipe]:
        """All recipes ordered by id."""
        return self._columns.recipes()

    def next_recipe_id(self) -> int:
        """Smallest id strictly larger than every stored id (0 when empty)."""
        return max(self.recipe_ids(), default=-1) + 1

    @property
    def columns(self) -> RecipeColumns:
        """The corpus in its integer-id form (see :mod:`repro.recipedb.columns`)."""
        return self._columns

    # -- region-scoped views ------------------------------------------------------

    def recipes_in_region(self, region: str) -> list[Recipe]:
        """Every recipe of a cuisine, ordered by id."""
        rows = np.flatnonzero(self._region_mask(region))
        return [self._columns.recipe(row) for row in rows.tolist()]

    def region_recipe_counts(self) -> dict[str, int]:
        """Recipe count per registered region (zero-filled), from the id form."""
        columns = self.columns
        sizes = np.bincount(columns.region_codes, minlength=len(columns.regions))
        counts = dict.fromkeys(self._regions, 0)
        counts.update(zip(columns.regions, sizes.tolist()))
        return dict(sorted(counts.items()))

    def transactions_for_region(
        self,
        region: str,
        kinds: Iterable[EntityKind] | None = None,
    ) -> list[frozenset[str]]:
        """Mining transactions (item sets) for one cuisine."""
        self._require_region(region)
        return self._columns.item_rows([region], kinds).item_sets()

    def transactions_by_region(
        self, kinds: Iterable[EntityKind] | None = None
    ) -> dict[str, list[frozenset[str]]]:
        """Mining transactions grouped by cuisine, for all regions."""
        regions = self.region_names()
        rows = self._columns.item_rows(regions, kinds)
        sets = rows.item_sets()
        bounds = np.concatenate(([0], np.cumsum(rows.region_sizes))).tolist()
        return {
            region: sets[start:stop]
            for region, start, stop in zip(regions, bounds, bounds[1:])
        }

    @property
    def schema(self) -> RecipeSchema:
        return self._schema

    # -- convenience queries -----------------------------------------------------

    def query(self) -> RecipeQuery:
        """Start building a :class:`RecipeQuery` against this database."""
        return RecipeQuery()

    def find(self, query: RecipeQuery) -> QueryResult:
        """Execute a prepared query."""
        return query.execute(self)

    def item_support(self, item: str, region: str | None = None) -> float:
        """Support of a single item, globally or within one cuisine."""
        return self.itemset_support((item,), region)

    def itemset_support(self, items: Sequence[str], region: str | None = None) -> float:
        """Joint support of an itemset, globally or within one cuisine.

        An item counts in any entity kind; 0.0 when the scope holds no
        recipe.
        """
        if region is None:
            scope = np.ones(len(self._columns), dtype=bool)
        else:
            scope = self._region_mask(region)
        total = int(np.count_nonzero(scope))
        if not total:
            return 0.0
        for item in items:
            scope &= self._columns.holds(item)
        return int(np.count_nonzero(scope)) / total

    def ingredient_usage(self) -> dict[str, int]:
        """Document frequency of every ingredient across the whole corpus."""
        column = self._columns.kind(EntityKind.INGREDIENT)
        counts = np.bincount(column.ids, minlength=len(column.names)).tolist()
        return {name: count for name, count in zip(column.names, counts) if count}

    # -- serialisation hooks -----------------------------------------------------

    def to_dicts(self) -> list[dict[str, object]]:
        """Serialise every recipe to plain dictionaries (ordered by id)."""
        return [recipe.to_dict() for recipe in self.recipes()]

    @classmethod
    def from_recipes(
        cls,
        recipes: Iterable[Recipe],
        regions: Iterable[Region | str] | None = None,
        *,
        region_metadata: Mapping[str, str] | None = None,
    ) -> "RecipeDatabase":
        """Build a database from recipes, auto-registering their regions.

        ``region_metadata`` optionally maps region name -> continent.  The
        recipes are consumed once, each region registered as it first
        appears, and inserted in one :meth:`add_recipes` call.
        """
        database = cls()
        if regions is not None:
            database.register_regions(regions)
        metadata = dict(region_metadata or {})

        def registered(recipes: Iterable[Recipe]) -> Iterator[Recipe]:
            for recipe in recipes:
                if not database.has_region(recipe.region):
                    continent = metadata.get(recipe.region, "unknown")
                    database.register_region(Region(recipe.region, continent=continent))
                yield recipe

        database.add_recipes(registered(recipes))
        return database

    # -- internals -----------------------------------------------------------------

    def _require_region(self, region: str) -> None:
        if region not in self._regions:
            raise ValidationError(f"unknown region: {region!r}")

    def _region_mask(self, region: str) -> np.ndarray:
        """Whether each row belongs to the registered *region*."""
        self._require_region(region)
        return self._columns.region_positions([region]) == 0
