"""The in-memory RecipeDB-like store.

:class:`RecipeDatabase` is the substrate every analysis in the paper runs on.
It stores recipes keyed by integer id, keeps a region index (the 26 cuisines),
one inverted index per entity kind plus a combined index, and maintains the
entity vocabularies incrementally.  The store is append-oriented (recipes are
inserted once and then read many times by the mining/clustering layers) but
supports deletion for completeness.

A database holds its corpus in one of two forms, or both:

* :class:`~repro.recipedb.models.Recipe` objects, which recipes inserted by
  :meth:`~RecipeDatabase.add_recipe` (and loaded corpora) arrive as;
* :class:`~repro.recipedb.columns.RecipeColumns`, the integer-id form the
  synthetic generator fills through :meth:`~RecipeDatabase.from_columns`.

The analyses (corpus statistics, Table I counts, prevalence, the mining CSR,
the corpus JSON) read :attr:`~RecipeDatabase.columns`, which a database of
``Recipe`` objects derives once and keeps until the next mutation.  The
``Recipe`` objects of a columns-built database are a view, built on first
use by the query surface, an export or a mutation; the region index and the
vocabularies are built with them.

The inverted indexes serve only the query surface (:class:`RecipeQuery`,
:meth:`~RecipeDatabase.item_support` and friends); the analysis pipeline and
the serve layer never read them.  They are therefore built from the stored
recipes on first use and maintained incrementally from then on, so a corpus
that is only analysed never pays for them.

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

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import (
    DuplicateRecordError,
    SchemaError,
    UnknownRecordError,
    ValidationError,
)
from repro.recipedb.columns import RecipeColumns
from repro.recipedb.index import InvertedIndex, RegionIndex, build_entity_indexes
from repro.recipedb.models import EntityKind, Recipe, Region
from repro.recipedb.query import QueryResult, RecipeQuery
from repro.recipedb.schema import RecipeSchema
from repro.recipedb.vocabulary import EntityVocabularies

__all__ = ["RecipeDatabase"]


class RecipeDatabase:
    """In-memory recipe store with region and entity indexes.

    Parameters
    ----------
    schema:
        Optional :class:`RecipeSchema`.  When omitted a permissive schema is
        used whose region set is populated from :meth:`register_region` calls.
    validate_regions:
        When ``True`` (default) every inserted recipe must reference a region
        previously registered with :meth:`register_region`.  This matches the
        paper's setup where the 26 cuisines are fixed up-front.
    """

    def __init__(
        self,
        schema: RecipeSchema | None = None,
        *,
        validate_regions: bool = True,
    ) -> None:
        self._schema = schema if schema is not None else RecipeSchema()
        self._validate_regions = validate_regions
        # None while a columns-built corpus has no Recipe view yet; the
        # region index and the vocabularies are then None too.
        self._recipes: dict[int, Recipe] | None = {}
        self._region_index: RegionIndex | None = RegionIndex()
        self._vocabularies: EntityVocabularies | None = EntityVocabularies()
        # The id form: the authority while _recipes is None, otherwise
        # derived from the recipes on first use and dropped on mutation.
        self._columns: RecipeColumns | None = None
        self._regions: dict[str, Region] = {}
        # Entity indexes plus the ``"combined"`` one; None until first use.
        self._indexes: dict[EntityKind | str, InvertedIndex] | None = None

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
        database._recipes = None
        database._region_index = None
        database._vocabularies = None
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
        self._mutable()
        self._insert(recipe)
        self._vocabularies.observe(recipe)

    def add_recipes(self, recipes: Iterable[Recipe]) -> int:
        """Insert many recipes; returns the number inserted.

        Each recipe gets the checks :meth:`add_recipe` runs.  The
        vocabularies then observe every inserted recipe at once, each
        distinct name once, with the same ids one-at-a-time observation
        gives -- also when an insert raises part-way.
        """
        self._mutable()
        added: list[Recipe] = []
        try:
            for recipe in recipes:
                self._insert(recipe)
                added.append(recipe)
        finally:
            self._vocabularies.observe_all(added)
        return len(added)

    def _mutable(self) -> None:
        """Make the ``Recipe`` objects the authority before a mutation.

        The region index and the vocabularies are kept up incrementally from
        here on, so they are built first; the id form goes stale.
        """
        self._built_region_index()
        self._built_vocabularies()
        self._columns = None

    def _materialized(self) -> dict[int, Recipe]:
        """The recipes by id, built from the columns on first use."""
        if self._recipes is None:
            self._recipes = {
                recipe.recipe_id: recipe for recipe in self._columns.recipes()
            }
        return self._recipes

    def _insert(self, recipe: Recipe) -> None:
        """Store and index *recipe* (everything but the vocabularies)."""
        if recipe.recipe_id in self._recipes:
            raise DuplicateRecordError(f"recipe id {recipe.recipe_id} already exists")
        if self._validate_regions and recipe.region not in self._regions:
            raise SchemaError(
                f"recipe {recipe.recipe_id} references unregistered region "
                f"{recipe.region!r}; call register_region first"
            )
        self._schema.validate(recipe)
        self._recipes[recipe.recipe_id] = recipe
        self._region_index.add(recipe.recipe_id, recipe.region)
        if self._indexes is not None:
            for kind in EntityKind:
                self._indexes[kind].add(recipe.recipe_id, recipe.entities_of(kind))
            self._indexes["combined"].add(recipe.recipe_id, recipe.items())

    def remove_recipe(self, recipe_id: int) -> Recipe:
        """Delete and return the recipe stored under *recipe_id*."""
        recipe = self.get(recipe_id)
        self._mutable()
        del self._recipes[recipe_id]
        self._region_index.remove(recipe_id, recipe.region)
        if self._indexes is not None:
            for kind in EntityKind:
                self._indexes[kind].remove(recipe_id, recipe.entities_of(kind))
            self._indexes["combined"].remove(recipe_id, recipe.items())
        return recipe

    def get(self, recipe_id: int) -> Recipe:
        """Return the recipe stored under *recipe_id*."""
        try:
            return self._materialized()[recipe_id]
        except KeyError as exc:
            raise UnknownRecordError(f"unknown recipe id: {recipe_id}") from exc

    def __contains__(self, recipe_id: object) -> bool:
        return recipe_id in self._materialized()

    def __len__(self) -> int:
        if self._recipes is None:
            return len(self._columns)
        return len(self._recipes)

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self.recipes())

    def recipe_ids(self) -> list[int]:
        if self._recipes is None:
            return self._columns.recipe_ids.tolist()
        return sorted(self._recipes)

    def recipes(self) -> list[Recipe]:
        """All recipes ordered by id."""
        recipes = self._materialized()
        return [recipes[rid] for rid in sorted(recipes)]

    def next_recipe_id(self) -> int:
        """Smallest id strictly larger than every stored id (0 when empty)."""
        return max(self.recipe_ids(), default=-1) + 1

    @property
    def columns(self) -> RecipeColumns:
        """The corpus in its integer-id form (see :mod:`repro.recipedb.columns`)."""
        if self._columns is None:
            self._columns = RecipeColumns.from_recipes(self.recipes())
        return self._columns

    # -- region-scoped views ------------------------------------------------------

    def recipes_in_region(self, region: str) -> list[Recipe]:
        """Every recipe of a cuisine, ordered by id."""
        self._require_region(region)
        recipes = self._materialized()
        ids = sorted(self.region_index.recipe_ids(region))
        return [recipes[rid] for rid in ids]

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
        kinds_tuple = tuple(kinds) if kinds is not None else None
        return [r.items(kinds_tuple) for r in self.recipes_in_region(region)]

    def transactions_by_region(
        self, kinds: Iterable[EntityKind] | None = None
    ) -> dict[str, list[frozenset[str]]]:
        """Mining transactions grouped by cuisine, for all regions."""
        kinds_tuple = tuple(kinds) if kinds is not None else None
        return {
            region: self.transactions_for_region(region, kinds_tuple)
            for region in self.region_names()
        }

    # -- indexes and vocabularies ----------------------------------------------

    @property
    def region_index(self) -> RegionIndex:
        return self._built_region_index()

    def _built_region_index(self) -> RegionIndex:
        if self._region_index is None:
            index = RegionIndex()
            for recipe in self._materialized().values():
                index.add(recipe.recipe_id, recipe.region)
            self._region_index = index
        return self._region_index

    def _built_indexes(self) -> dict[EntityKind | str, InvertedIndex]:
        if self._indexes is None:
            self._indexes = build_entity_indexes(self._materialized())
        return self._indexes

    @property
    def combined_index(self) -> InvertedIndex:
        return self._built_indexes()["combined"]

    def entity_index(self, kind: EntityKind) -> InvertedIndex:
        return self._built_indexes()[kind]

    @property
    def vocabularies(self) -> EntityVocabularies:
        return self._built_vocabularies()

    def _built_vocabularies(self) -> EntityVocabularies:
        if self._vocabularies is None:
            vocabularies = EntityVocabularies()
            vocabularies.observe_all(self.recipes())
            self._vocabularies = vocabularies
        return self._vocabularies

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
        if region is None:
            return self.combined_index.support(item)
        self._require_region(region)
        region_ids = self.region_index.recipe_ids(region)
        if not region_ids:
            return 0.0
        postings = self.combined_index.postings(item)
        return len(postings & region_ids) / len(region_ids)

    def itemset_support(self, items: Sequence[str], region: str | None = None) -> float:
        """Joint support of an itemset, globally or within one cuisine."""
        if region is None:
            return self.combined_index.itemset_support(items)
        self._require_region(region)
        region_ids = self.region_index.recipe_ids(region)
        if not region_ids:
            return 0.0
        matching = self.combined_index.all_of(items)
        return len(matching & region_ids) / len(region_ids)

    def ingredient_usage(self) -> dict[str, int]:
        """Document frequency of every ingredient across the whole corpus."""
        index = self.entity_index(EntityKind.INGREDIENT)
        return {item: index.document_frequency(item) for item in sorted(index.items())}

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

        ``region_metadata`` optionally maps region name -> continent.
        """
        database = cls()
        if regions is not None:
            database.register_regions(regions)
        recipe_list = list(recipes)
        metadata = dict(region_metadata or {})
        for recipe in recipe_list:
            if not database.has_region(recipe.region):
                continent = metadata.get(recipe.region, "unknown")
                database.register_region(Region(recipe.region, continent=continent))
        database.add_recipes(recipe_list)
        return database

    # -- internals -----------------------------------------------------------------

    def _require_region(self, region: str) -> None:
        if region not in self._regions:
            raise ValidationError(f"unknown region: {region!r}")
