"""The in-memory RecipeDB-like store.

:class:`RecipeDatabase` is the substrate every analysis in the paper runs on.
It stores recipes keyed by integer id, keeps a region index (the 26 cuisines),
one inverted index per entity kind plus a combined index, and maintains the
entity vocabularies incrementally.  The store is append-oriented (recipes are
inserted once and then read many times by the mining/clustering layers) but
supports deletion for completeness.

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

from repro.errors import (
    DuplicateRecordError,
    SchemaError,
    UnknownRecordError,
    ValidationError,
)
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
        self._recipes: dict[int, Recipe] = {}
        self._regions: dict[str, Region] = {}
        self._region_index = RegionIndex()
        # Entity indexes plus the ``"combined"`` one; None until first use.
        self._indexes: dict[EntityKind | str, InvertedIndex] | None = None
        self._vocabularies = EntityVocabularies()

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
        self._vocabularies.observe(recipe)

    def add_recipes(self, recipes: Iterable[Recipe]) -> int:
        """Insert many recipes; returns the number inserted."""
        count = 0
        for recipe in recipes:
            self.add_recipe(recipe)
            count += 1
        return count

    def remove_recipe(self, recipe_id: int) -> Recipe:
        """Delete and return the recipe stored under *recipe_id*."""
        recipe = self.get(recipe_id)
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
            return self._recipes[recipe_id]
        except KeyError as exc:
            raise UnknownRecordError(f"unknown recipe id: {recipe_id}") from exc

    def __contains__(self, recipe_id: object) -> bool:
        return recipe_id in self._recipes

    def __len__(self) -> int:
        return len(self._recipes)

    def __iter__(self) -> Iterator[Recipe]:
        return iter(self._recipes[rid] for rid in sorted(self._recipes))

    def recipe_ids(self) -> list[int]:
        return sorted(self._recipes)

    def recipes(self) -> list[Recipe]:
        """All recipes ordered by id."""
        return [self._recipes[rid] for rid in sorted(self._recipes)]

    def next_recipe_id(self) -> int:
        """Smallest id strictly larger than every stored id (0 when empty)."""
        return max(self._recipes, default=-1) + 1

    # -- region-scoped views ------------------------------------------------------

    def recipes_in_region(self, region: str) -> list[Recipe]:
        """Every recipe of a cuisine, ordered by id."""
        self._require_region(region)
        ids = sorted(self._region_index.recipe_ids(region))
        return [self._recipes[rid] for rid in ids]

    def region_recipe_counts(self) -> dict[str, int]:
        """Recipe count per registered region (zero-filled)."""
        counts = {name: 0 for name in self._regions}
        counts.update(self._region_index.counts())
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
        return self._region_index

    def _built_indexes(self) -> dict[EntityKind | str, InvertedIndex]:
        if self._indexes is None:
            self._indexes = build_entity_indexes(self._recipes)
        return self._indexes

    @property
    def combined_index(self) -> InvertedIndex:
        return self._built_indexes()["combined"]

    def entity_index(self, kind: EntityKind) -> InvertedIndex:
        return self._built_indexes()[kind]

    @property
    def vocabularies(self) -> EntityVocabularies:
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
        region_ids = self._region_index.recipe_ids(region)
        if not region_ids:
            return 0.0
        postings = self.combined_index.postings(item)
        return len(postings & region_ids) / len(region_ids)

    def itemset_support(self, items: Sequence[str], region: str | None = None) -> float:
        """Joint support of an itemset, globally or within one cuisine."""
        if region is None:
            return self.combined_index.itemset_support(items)
        self._require_region(region)
        region_ids = self._region_index.recipe_ids(region)
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
