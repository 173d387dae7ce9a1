"""Entity models for the RecipeDB-like substrate.

The paper treats every recipe as an *unordered* collection of three entity
kinds -- ingredients, cooking processes and utensils -- attributed to one of 26
geo-cultural cuisines (called *regions* in Table I).  The models below mirror
that structure:

* :class:`Ingredient`, :class:`Process`, :class:`Utensil` -- catalogue entries
  with a stable integer id and a normalised name.
* :class:`Recipe` -- a recipe row: name, region and the three entity lists.
* :class:`Region` -- a cuisine/region descriptor with the recipe count that the
  database maintains.

All models are frozen dataclasses: a database hands out values, never shared
mutable state.  Names are normalised (lower-case, single-spaced) at
construction time through :func:`normalize_name` so that "Soy Sauce" and
"soy  sauce" refer to the same catalogue entry, which mirrors the paper's
pre-processing of RecipeDB dumps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from repro.errors import ValidationError

__all__ = [
    "EntityKind",
    "normalize_name",
    "Ingredient",
    "Process",
    "Utensil",
    "Recipe",
    "Region",
]

def normalize_name(name: str) -> str:
    """Normalise an entity or recipe name.

    Lower-cases, strips surrounding whitespace and collapses internal runs of
    whitespace to a single space.  Raises :class:`ValidationError` when the
    result is empty, because every catalogue entry must have a usable name.

    ``str.split()`` breaks on exactly the characters the regex whitespace
    class matches, and lower-casing never turns a space into a non-space or
    back, so the result equals collapsing regex whitespace runs in
    ``name.strip().lower()``.  The function is idempotent, which
    :class:`~repro.recipedb.vocabulary.Vocabulary` relies on.
    """
    if not isinstance(name, str):
        raise ValidationError(f"name must be a string, got {type(name).__name__}")
    normalised = " ".join(name.lower().split())
    if not normalised:
        raise ValidationError("name must not be empty")
    return normalised


class EntityKind(str, Enum):
    """The three entity kinds a recipe is composed of."""

    INGREDIENT = "ingredient"
    PROCESS = "process"
    UTENSIL = "utensil"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class _CatalogueEntry:
    """Common shape of ingredient / process / utensil catalogue rows."""

    entity_id: int
    name: str
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.entity_id < 0:
            raise ValidationError("entity_id must be non-negative")
        object.__setattr__(self, "name", normalize_name(self.name))
        object.__setattr__(
            self, "aliases", tuple(sorted({normalize_name(a) for a in self.aliases}))
        )

    @property
    def kind(self) -> EntityKind:
        raise NotImplementedError

    def matches(self, name: str) -> bool:
        """Return ``True`` when *name* equals this entry's name or an alias."""
        candidate = normalize_name(name)
        return candidate == self.name or candidate in self.aliases


@dataclass(frozen=True, slots=True)
class Ingredient(_CatalogueEntry):
    """A raw ingredient such as ``soy sauce`` or ``olive oil``."""

    category: str = "uncategorised"

    @property
    def kind(self) -> EntityKind:
        return EntityKind.INGREDIENT


@dataclass(frozen=True, slots=True)
class Process(_CatalogueEntry):
    """A cooking process such as ``add``, ``heat`` or ``bake``."""

    @property
    def kind(self) -> EntityKind:
        return EntityKind.PROCESS


@dataclass(frozen=True, slots=True)
class Utensil(_CatalogueEntry):
    """A cooking utensil such as ``skillet``, ``oven`` or ``bowl``."""

    @property
    def kind(self) -> EntityKind:
        return EntityKind.UTENSIL


@dataclass(frozen=True, slots=True)
class Region:
    """A geo-cultural cuisine as used in Table I of the paper."""

    name: str
    continent: str = "unknown"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValidationError("region name must be a non-empty string")
        object.__setattr__(self, "name", " ".join(self.name.split()))
        object.__setattr__(self, "continent", self.continent.strip() or "unknown")


@dataclass(frozen=True, slots=True)
class Recipe:
    """A single recipe row.

    Parameters
    ----------
    recipe_id:
        Primary key within a :class:`~repro.recipedb.database.RecipeDatabase`.
    title:
        Human readable recipe title (normalised).
    region:
        Cuisine name; must match a registered :class:`Region` when inserted
        into a database.
    ingredients / processes / utensils:
        Normalised entity names.  Stored as sorted, de-duplicated tuples
        because the paper treats recipes as unordered sets.
    source:
        Optional provenance label (e.g. ``allrecipes``); the paper merges four
        sources, so the field is preserved for statistics.
    """

    recipe_id: int
    title: str
    region: str
    ingredients: tuple[str, ...] = ()
    processes: tuple[str, ...] = ()
    utensils: tuple[str, ...] = ()
    source: str = "synthetic"

    def __post_init__(self) -> None:
        if self.recipe_id < 0:
            raise ValidationError("recipe_id must be non-negative")
        object.__setattr__(self, "title", normalize_name(self.title))
        if not isinstance(self.region, str) or not self.region.strip():
            raise ValidationError("recipe region must be a non-empty string")
        object.__setattr__(self, "region", " ".join(self.region.split()))
        for attr in ("ingredients", "processes", "utensils"):
            values = getattr(self, attr)
            if isinstance(values, str):
                # Iterating a lone string would store its characters as names.
                raise ValidationError(
                    f"recipe {self.recipe_id!r} {attr} must be a sequence of "
                    f"names, not the string {values!r}"
                )
            object.__setattr__(
                self, attr, tuple(sorted({normalize_name(v) for v in values}))
            )
        if not self.ingredients:
            raise ValidationError(
                f"recipe {self.recipe_id!r} ({self.title!r}) has no ingredients"
            )
        object.__setattr__(self, "source", self.source.strip() or "synthetic")

    @classmethod
    def from_normalised(
        cls,
        recipe_id: int,
        title: str,
        region: str,
        ingredients: tuple[str, ...],
        processes: tuple[str, ...],
        utensils: tuple[str, ...],
        source: str,
    ) -> "Recipe":
        """A recipe from fields that are already in their stored form.

        Skips :meth:`__post_init__`, so the caller guarantees what it would
        establish: a normalised title, a whitespace-collapsed region and a
        stripped source, and entity names that are normalised, distinct and
        sorted, with at least one ingredient.  The synthetic generator, which
        normalises each pool name once, is the only caller; every other
        producer goes through the validating constructor.
        """
        recipe = object.__new__(cls)
        for name, value in (
            ("recipe_id", recipe_id),
            ("title", title),
            ("region", region),
            ("ingredients", ingredients),
            ("processes", processes),
            ("utensils", utensils),
            ("source", source),
        ):
            object.__setattr__(recipe, name, value)
        return recipe

    # -- derived views -----------------------------------------------------

    @property
    def n_ingredients(self) -> int:
        return len(self.ingredients)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def n_utensils(self) -> int:
        return len(self.utensils)

    @property
    def has_utensils(self) -> bool:
        """Whether utensil information is available (RecipeDB is sparse here)."""
        return bool(self.utensils)

    def items(self, kinds: Iterable[EntityKind] | None = None) -> frozenset[str]:
        """Return the recipe as an unordered item set.

        This is the *transaction* view used by frequent-itemset mining: the
        concatenation of ingredients, processes and utensils (Section V-A of
        the paper).  ``kinds`` restricts the view to a subset of entity kinds.
        """
        if kinds is None:
            return frozenset((*self.ingredients, *self.processes, *self.utensils))
        selected = tuple(kinds)
        out: set[str] = set()
        if EntityKind.INGREDIENT in selected:
            out.update(self.ingredients)
        if EntityKind.PROCESS in selected:
            out.update(self.processes)
        if EntityKind.UTENSIL in selected:
            out.update(self.utensils)
        return frozenset(out)

    def entities_of(self, kind: EntityKind) -> tuple[str, ...]:
        """Return the entity names of a single *kind*."""
        if kind is EntityKind.INGREDIENT:
            return self.ingredients
        if kind is EntityKind.PROCESS:
            return self.processes
        if kind is EntityKind.UTENSIL:
            return self.utensils
        raise ValidationError(f"unknown entity kind: {kind!r}")

    def to_dict(self) -> dict[str, object]:
        """Serialise to a plain JSON-compatible dictionary."""
        return {
            "recipe_id": self.recipe_id,
            "title": self.title,
            "region": self.region,
            "ingredients": list(self.ingredients),
            "processes": list(self.processes),
            "utensils": list(self.utensils),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Recipe":
        """Reconstruct a recipe from :meth:`to_dict` output."""
        try:
            return cls(
                recipe_id=int(payload["recipe_id"]),  # type: ignore[arg-type]
                title=str(payload["title"]),
                region=str(payload["region"]),
                ingredients=payload.get("ingredients", ()),  # type: ignore[arg-type]
                processes=payload.get("processes", ()),  # type: ignore[arg-type]
                utensils=payload.get("utensils", ()),  # type: ignore[arg-type]
                source=str(payload.get("source", "synthetic")),
            )
        except KeyError as exc:  # missing required field
            raise ValidationError(f"recipe payload missing field: {exc}") from exc


def recipes_to_transactions(
    recipes: Sequence[Recipe],
    kinds: Iterable[EntityKind] | None = None,
) -> list[frozenset[str]]:
    """Convert recipes into mining transactions (list of item frozensets)."""
    kinds_tuple = tuple(kinds) if kinds is not None else None
    return [recipe.items(kinds_tuple) for recipe in recipes]
