"""A recipe corpus held as integer ids: the form every analysis reads.

:class:`RecipeColumns` stores a corpus column-wise, one row per recipe in
recipe-id order: the ids, titles, region and source codes, and per entity
kind a compressed sparse row (CSR) of each recipe's sorted, distinct name
ids into that kind's sorted name table (:class:`KindColumn`).  It is the
only form a :class:`~repro.recipedb.database.RecipeDatabase` holds its
corpus in.  The synthetic generator produces it directly; inserted or
loaded :class:`~repro.recipedb.models.Recipe` objects are turned into it
once per insert (:meth:`RecipeColumns.from_recipes`) and not kept.  The
corpus statistics, the Table I counts, prevalence, the mining CSR, the
corpus JSON, the supports and the queries are all computed from these
arrays, and ``Recipe`` objects are a view built only for callers that ask
for them (:meth:`RecipeColumns.recipes`, :meth:`RecipeColumns.recipe`).

The kinds keep separate name tables, so a name that is both an ingredient
and a process stays one of each for statistics; :meth:`RecipeColumns.item_rows`
merges the selected kinds into one item space, where such a name is a
single item, as a recipe's transaction view has it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from repro.recipedb.models import EntityKind, Recipe

__all__ = ["KindColumn", "ItemRows", "RecipeColumns", "kind_column"]


@dataclass(frozen=True, slots=True, eq=False)
class KindColumn:
    """One entity kind of every recipe.

    ``names`` is sorted and distinct; recipe ``r`` holds the names
    ``names[i] for i in ids[offsets[r]:offsets[r + 1]]``, ids ascending, so
    the names come out sorted.  ``names`` may hold names no recipe uses.
    """

    names: tuple[str, ...]
    ids: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more than there are recipes

    def lengths(self) -> np.ndarray:
        """How many names of this kind each recipe holds."""
        return np.diff(self.offsets)

    def n_used(self) -> int:
        """How many distinct names at least one recipe uses."""
        return int(np.count_nonzero(np.bincount(self.ids, minlength=len(self.names))))

    def rows(self) -> list[tuple[str, ...]]:
        """Every recipe's name tuple."""
        flat = list(map(self.names.__getitem__, self.ids.tolist()))
        bounds = self.offsets.tolist()
        return [tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])]


def kind_column(
    rows: np.ndarray, ranks: np.ndarray, names: Sequence[str], n_recipes: int
) -> KindColumn:
    """A kind column from unordered ``(recipe row, name rank)`` pairs.

    *names* is sorted and distinct; a pair may repeat.  One sort of the
    ``row * len(names) + rank`` keys orders every recipe's ranks, and equal
    neighbouring keys are its repeats.
    """
    width = max(1, len(names))
    keys = np.sort(np.asarray(rows, dtype=np.int64) * width + ranks)
    distinct = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    row_of = keys // width
    offsets = np.zeros(n_recipes + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=n_recipes), out=offsets[1:])
    return KindColumn(tuple(names), (keys - row_of * width).astype(np.int32), offsets)


@dataclass(frozen=True, slots=True, eq=False)
class ItemRows:
    """Recipes as rows of merged item ids, grouped by region.

    ``items`` is sorted and holds exactly the names the rows use; row ``t``
    is ``tids[offsets[t]:offsets[t + 1]]``, ascending and distinct.  Rows are
    grouped in the order of the regions asked for, ``region_sizes`` of them
    each, recipe ids ascending within a region.
    """

    items: tuple[str, ...]
    region_sizes: np.ndarray  # int64
    tids: np.ndarray  # int32
    offsets: np.ndarray  # int64

    def region_of_ids(self) -> np.ndarray:
        """The region position of every entry of ``tids``."""
        rows = np.repeat(np.arange(len(self.region_sizes)), self.region_sizes)
        return np.repeat(rows, np.diff(self.offsets))

    def item_sets(self) -> list[frozenset[str]]:
        """Every row as the set of its item names."""
        flat = list(map(self.items.__getitem__, self.tids.tolist()))
        bounds = self.offsets.tolist()
        return [frozenset(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])]


@dataclass(frozen=True, slots=True, eq=False)
class RecipeColumns:
    """A corpus as arrays, one row per recipe in recipe-id order.

    * ``recipe_ids`` -- int64, ascending and distinct;
    * ``titles`` -- each recipe's normalised title;
    * ``regions`` / ``region_codes`` -- sorted region names, and each
      recipe's index into them (int32); ``sources`` / ``source_codes`` the
      same for provenance labels;
    * ``kinds`` -- one :class:`KindColumn` per :class:`EntityKind`, in
      declaration order (ingredients, processes, utensils).
    """

    recipe_ids: np.ndarray
    titles: Sequence[str]
    regions: tuple[str, ...]
    region_codes: np.ndarray
    sources: tuple[str, ...]
    source_codes: np.ndarray
    kinds: tuple[KindColumn, KindColumn, KindColumn]

    @classmethod
    def from_recipes(cls, recipes: Iterable[Recipe]) -> "RecipeColumns":
        """The id form of *recipes*, which must come in ascending id order.

        A stored recipe's name tuples are sorted and distinct, so each row's
        ids come out ascending with no sort.
        """
        recipes = list(recipes)
        regions, region_codes = _encode([recipe.region for recipe in recipes])
        sources, source_codes = _encode([recipe.source for recipe in recipes])
        kinds = []
        for field in ("ingredients", "processes", "utensils"):
            rows = list(map(attrgetter(field), recipes))
            names = tuple(sorted(set(chain.from_iterable(rows))))
            index = {name: position for position, name in enumerate(names)}
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            ids = np.fromiter(
                map(index.__getitem__, chain.from_iterable(rows)),
                dtype=np.int32,
                count=int(offsets[-1]),
            )
            kinds.append(KindColumn(names, ids, offsets))
        return cls(
            np.fromiter(
                (recipe.recipe_id for recipe in recipes), dtype=np.int64, count=len(recipes)
            ),
            [recipe.title for recipe in recipes],
            regions,
            region_codes,
            sources,
            source_codes,
            tuple(kinds),  # type: ignore[arg-type]
        )

    # -- views -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.recipe_ids)

    def kind(self, kind: EntityKind) -> KindColumn:
        return self.kinds[list(EntityKind).index(kind)]

    def recipes(self) -> list[Recipe]:
        """Every row as a :class:`Recipe`, in id order.

        The fields are already in their stored form, so each recipe is made
        by :meth:`Recipe.from_normalised`, without re-validating.
        """
        ingredients, processes, utensils = (kind.rows() for kind in self.kinds)
        regions = [self.regions[code] for code in self.region_codes.tolist()]
        sources = [self.sources[code] for code in self.source_codes.tolist()]
        return list(
            map(
                Recipe.from_normalised,
                self.recipe_ids.tolist(),
                self.titles,
                regions,
                ingredients,
                processes,
                utensils,
                sources,
            )
        )

    def recipe(self, row: int) -> Recipe:
        """Row *row* as a :class:`Recipe`."""
        names = []
        for kind in self.kinds:
            ids = kind.ids[kind.offsets[row] : kind.offsets[row + 1]].tolist()
            names.append(tuple(map(kind.names.__getitem__, ids)))
        return Recipe.from_normalised(
            int(self.recipe_ids[row]),
            self.titles[row],
            self.regions[self.region_codes[row]],
            *names,
            self.sources[self.source_codes[row]],
        )

    def holds(self, name: str) -> np.ndarray:
        """Whether each recipe holds *name*, in any entity kind."""
        held = np.zeros(len(self), dtype=bool)
        for column in self.kinds:
            position = bisect_left(column.names, name)
            if position < len(column.names) and column.names[position] == name:
                entries = np.flatnonzero(column.ids == position)
                held[np.searchsorted(column.offsets, entries, side="right") - 1] = True
        return held

    # -- region grouping ---------------------------------------------------------

    def region_positions(self, regions: Sequence[str]) -> np.ndarray:
        """Each recipe's position in *regions*, -1 for a region not among them."""
        position = {name: index for index, name in enumerate(regions)}
        by_code = np.array([position.get(name, -1) for name in self.regions], dtype=np.int64)
        return by_code[self.region_codes]

    def item_rows(
        self, regions: Sequence[str], kinds: Iterable[EntityKind] | None = None
    ) -> ItemRows:
        """The recipes of *regions* as rows of merged item ids.

        *kinds* selects entity kinds as :meth:`Recipe.items` does (``None``
        is all three); a name held by two selected kinds is one item.  Each
        kind's ids map to the merged sorted name table, one sort of the
        ``(row, item)`` keys orders every row, and equal neighbouring keys
        are a name the row holds in two kinds.  Recipes of other regions are
        left out, and ``items`` keeps only the names the rows use.
        """
        selected = tuple(kinds) if kinds is not None else tuple(EntityKind)
        columns = [self.kind(kind) for kind in EntityKind if kind in selected]
        merged = sorted(set().union(*(column.names for column in columns)))
        index = {name: position for position, name in enumerate(merged)}
        width = max(1, len(merged))

        positions = self.region_positions(regions)
        order = np.argsort(positions, kind="stable")
        order = order[positions[order] >= 0]
        new_row = np.full(len(self), -1, dtype=np.int64)
        new_row[order] = np.arange(len(order), dtype=np.int64)
        region_sizes = np.bincount(positions[order], minlength=len(regions))

        keys = []
        for column in columns:
            to_merged = np.fromiter(
                map(index.__getitem__, column.names), dtype=np.int64, count=len(column.names)
            )
            row_of = np.repeat(new_row, column.lengths())
            kept = row_of >= 0
            keys.append(row_of[kept] * width + to_merged[column.ids[kept]])
        flat = np.sort(np.concatenate(keys)) if keys else np.zeros(0, dtype=np.int64)
        distinct = np.ones(len(flat), dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=distinct[1:])
        flat = flat[distinct]
        rows = flat // width
        item_ids = flat - rows * width
        used = np.bincount(item_ids, minlength=len(merged)) > 0
        renumber = np.cumsum(used) - 1
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=len(order)), out=offsets[1:])
        return ItemRows(
            tuple(compress(merged, used.tolist())),
            region_sizes,
            renumber[item_ids].astype(np.int32),
            offsets,
        )


def _encode(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """``(sorted distinct values, each value's index into them)``."""
    table = tuple(sorted(set(values)))
    index = {value: position for position, value in enumerate(table)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32, count=len(values))
    return table, codes
