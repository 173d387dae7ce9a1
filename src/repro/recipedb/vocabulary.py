"""Vocabularies mapping entity names to stable integer identifiers.

The paper label-encodes categorical data ("string patterns") before
vectorising it; the same mechanism is needed at the database layer to give
ingredients, processes and utensils stable integer ids.  :class:`Vocabulary`
is a tiny bidirectional mapping with deterministic id assignment (insertion
order), and :class:`EntityVocabularies` bundles one vocabulary per
:class:`~repro.recipedb.models.EntityKind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping

from repro.errors import ValidationError
from repro.recipedb.models import EntityKind, Recipe, normalize_name

__all__ = ["Vocabulary", "EntityVocabularies"]


class Vocabulary:
    """A bidirectional mapping ``name <-> id`` with insertion-order ids.

    Every key is normalised and :func:`normalize_name` is idempotent, so a
    lookup probes the dict with the raw string first: a hit is exactly the
    hit normalising first would give, and only a miss pays for normalising.
    Corpora repeat a small set of already-normalised names, so nearly every
    lookup is a single dict probe.
    """

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._name_to_id: dict[str, int] = {}
        self._id_to_name: list[str] = []
        for name in names:
            self.add(name)

    # -- mutation ----------------------------------------------------------

    def add(self, name: str) -> int:
        """Register *name* (normalised) and return its id (existing or new)."""
        if type(name) is str:  # the raw probe of _lookup, inlined: the hot path
            existing = self._name_to_id.get(name)
            if existing is not None:
                return existing
        normalised = normalize_name(name)
        existing = self._name_to_id.get(normalised)
        if existing is not None:
            return existing
        new_id = len(self._id_to_name)
        self._name_to_id[normalised] = new_id
        self._id_to_name.append(normalised)
        return new_id

    def add_all(self, names: Iterable[str]) -> list[int]:
        """Register every name in *names*; returns their ids in order."""
        return [self.add(name) for name in names]

    # -- lookups -----------------------------------------------------------

    def _lookup(self, name: str) -> int | None:
        """The id of *name* or ``None``; :class:`ValidationError` if not a name.

        Only an exact ``str`` takes the raw probe: a subclass may redefine
        hashing or equality, so it is normalised to a plain string first.
        """
        if type(name) is str:
            found = self._name_to_id.get(name)
            if found is not None:
                return found
        return self._name_to_id.get(normalize_name(name))

    def id_of(self, name: str) -> int:
        """Return the id of *name*; raises :class:`ValidationError` if unknown."""
        found = self._lookup(name)
        if found is None:
            raise ValidationError(f"unknown vocabulary entry: {name!r}")
        return found

    def name_of(self, entity_id: int) -> str:
        """Return the name registered under *entity_id*."""
        if not 0 <= entity_id < len(self._id_to_name):
            raise ValidationError(f"unknown vocabulary id: {entity_id}")
        return self._id_to_name[entity_id]

    def get(self, name: str, default: int | None = None) -> int | None:
        try:
            found = self._lookup(name)
        except ValidationError:
            return default
        return default if found is None else found

    def __contains__(self, name: object) -> bool:
        return self.get(name) is not None  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self._id_to_name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self._id_to_name == other._id_to_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(size={len(self)})"

    # -- encoding ----------------------------------------------------------

    def encode(self, names: Iterable[str]) -> list[int]:
        """Encode names to ids, raising on unknown names."""
        return [self.id_of(name) for name in names]

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Decode ids back to names."""
        return [self.name_of(i) for i in ids]

    def to_dict(self) -> dict[str, int]:
        """Return a name -> id mapping snapshot."""
        return dict(self._name_to_id)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, int]) -> "Vocabulary":
        """Rebuild a vocabulary from a name -> id mapping (ids must be dense)."""
        if not mapping:
            return cls()
        expected = set(range(len(mapping)))
        if set(mapping.values()) != expected:
            raise ValidationError("vocabulary ids must be dense, starting at zero")
        ordered = sorted(mapping.items(), key=lambda kv: kv[1])
        return cls(name for name, _ in ordered)


@dataclass(slots=True)
class EntityVocabularies:
    """One :class:`Vocabulary` per entity kind, plus a combined item space.

    The combined vocabulary assigns ids over the union of all entity names and
    is what the mining / feature layers consume when the paper concatenates
    ingredients, processes and utensils into a single transaction.
    """

    ingredients: Vocabulary = field(default_factory=Vocabulary)
    processes: Vocabulary = field(default_factory=Vocabulary)
    utensils: Vocabulary = field(default_factory=Vocabulary)
    combined: Vocabulary = field(default_factory=Vocabulary)

    def vocabulary_for(self, kind: EntityKind) -> Vocabulary:
        if kind is EntityKind.INGREDIENT:
            return self.ingredients
        if kind is EntityKind.PROCESS:
            return self.processes
        if kind is EntityKind.UTENSIL:
            return self.utensils
        raise ValidationError(f"unknown entity kind: {kind!r}")

    def observe(self, recipe: Recipe) -> None:
        """Register every entity that appears in *recipe*."""
        combined = self.combined.add
        for vocab, names in (
            (self.ingredients, recipe.ingredients),
            (self.processes, recipe.processes),
            (self.utensils, recipe.utensils),
        ):
            add = vocab.add
            for name in names:
                add(name)
                combined(name)

    def observe_all(self, recipes: Iterable[Recipe]) -> None:
        """Register every entity of *recipes*, each distinct name once.

        Names are added in first-seen order, so every id equals the one
        :meth:`observe` assigns recipe by recipe.
        """
        recipes = list(recipes)
        for vocab, rows in (
            (self.ingredients, (recipe.ingredients for recipe in recipes)),
            (self.processes, (recipe.processes for recipe in recipes)),
            (self.utensils, (recipe.utensils for recipe in recipes)),
            (
                self.combined,
                (
                    (*recipe.ingredients, *recipe.processes, *recipe.utensils)
                    for recipe in recipes
                ),
            ),
        ):
            add = vocab.add
            for name in dict.fromkeys(chain.from_iterable(rows)):
                add(name)

    def sizes(self) -> dict[str, int]:
        """Return the vocabulary sizes (matches the paper's corpus stats)."""
        return {
            "ingredients": len(self.ingredients),
            "processes": len(self.processes),
            "utensils": len(self.utensils),
            "combined": len(self.combined),
        }
