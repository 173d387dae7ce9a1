"""Synthetic RecipeDB corpus generator.

The real RecipeDB extract used by the paper is not redistributable, so the
reproduction generates a synthetic corpus whose *sufficient statistics* match
what the downstream analyses consume:

* 26 cuisines with Table I recipe counts (scaled by ``scale``);
* per-recipe entity counts of ~10 ingredients, ~12 processes, ~3 utensils;
* ~12.4% of recipes carrying no utensil information (14,601 / 118,071);
* a heavy-tailed global vocabulary whose size grows with ``scale`` towards
  the paper's 20,280 / 268 / 69 unique entities;
* per-cuisine signature items drawn with the calibrated probabilities from
  :mod:`repro.datagen.profiles`, so the Table I headline patterns re-emerge
  from mining at support 0.2 and the authenticity analysis recovers the
  expected cuisine fingerprints.

Everything is driven by a single seed; two generators constructed with the
same configuration produce byte-identical corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import lt as less
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.errors import GenerationError
from repro.datagen.pantry import (
    expanded_ingredient_pool,
    expanded_process_pool,
    expanded_utensil_pool,
)
from repro.datagen.profiles import CuisineProfile, default_profiles
from repro.datagen.random_utils import make_rng, poisson_clamped, zipf_weights
from repro.recipedb.columns import KindColumn, RecipeColumns, kind_column
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import Region, normalize_name

__all__ = ["GeneratorConfig", "SyntheticRecipeDBGenerator", "generate_corpus"]

# Paper corpus constants used to derive defaults.
_PAPER_RECIPES = 118_071
_PAPER_NO_UTENSIL_RECIPES = 14_601
_PAPER_INGREDIENT_VOCAB = 20_280
_PAPER_PROCESS_VOCAB = 268
_PAPER_UTENSIL_VOCAB = 69
#: Provenance label of every generated recipe.
_SOURCE = "synthetic-recipedb"


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Configuration of the synthetic corpus generator.

    Parameters
    ----------
    seed:
        Seed of the deterministic random generator.
    scale:
        Fraction of the paper's per-cuisine recipe counts to generate.
        ``scale=1.0`` reproduces the full 118k-recipe corpus;  the default of
        ``0.05`` keeps unit tests and CI fast while remaining large enough for
        every experiment to be meaningful (about 6k recipes).
    mean_ingredients / mean_processes / mean_utensils:
        Mean per-recipe entity counts (paper: ~10 / ~12 / ~3).
    utensil_missing_rate:
        Probability that a recipe carries no utensil information
        (paper: 14,601 / 118,071 ≈ 0.124).
    ingredient_vocabulary / process_vocabulary / utensil_vocabulary:
        Sizes of the global entity pools.  ``None`` derives them from *scale*
        so the vocabulary grows with the corpus, approaching the paper's
        numbers at ``scale=1.0``.
    zipf_exponent:
        Exponent of the power-law popularity distribution used for *filler*
        items (everything that is not a calibrated signature item).  The
        default of 0.35 is deliberately gentle: it keeps the most common
        filler items below ~0.45 within-cuisine support, so the calibrated
        signature items -- not generic filler -- dominate the mined headline
        patterns, matching the support range reported in Table I (0.20-0.46).
    traditional_recipe_rate / signature_boost:
        Real recipes of a cuisine are stylistically correlated: a "traditional"
        dish tends to use several of the cuisine's signature items *together*
        (the paper's compound patterns such as ``soy sauce + add + heat``).
        Each synthetic recipe is marked traditional with probability
        ``traditional_recipe_rate``; traditional recipes draw signature items
        with probability ``min(0.95, signature_boost * p)`` and the remaining
        recipes with a compensating lower probability so the *marginal*
        within-cuisine support stays at the calibrated value ``p`` while the
        joint support of signature combinations rises enough to clear the 0.2
        mining threshold.
    """

    seed: int = 2020
    scale: float = 0.05
    mean_ingredients: float = 10.0
    mean_processes: float = 12.0
    mean_utensils: float = 3.0
    utensil_missing_rate: float = _PAPER_NO_UTENSIL_RECIPES / _PAPER_RECIPES
    ingredient_vocabulary: int | None = None
    process_vocabulary: int | None = None
    utensil_vocabulary: int | None = None
    zipf_exponent: float = 0.35
    traditional_recipe_rate: float = 0.35
    signature_boost: float = 2.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise GenerationError("seed must be non-negative")
        if self.scale <= 0:
            raise GenerationError("scale must be positive")
        for name in ("mean_ingredients", "mean_processes", "mean_utensils"):
            if getattr(self, name) <= 0:
                raise GenerationError(f"{name} must be positive")
        if not 0.0 <= self.utensil_missing_rate < 1.0:
            raise GenerationError("utensil_missing_rate must be in [0, 1)")
        for name in ("ingredient_vocabulary", "process_vocabulary", "utensil_vocabulary"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise GenerationError(f"{name} must be positive when provided")
        if self.zipf_exponent <= 0:
            raise GenerationError("zipf_exponent must be positive")
        if not 0.0 <= self.traditional_recipe_rate < 1.0:
            raise GenerationError("traditional_recipe_rate must be in [0, 1)")
        if self.signature_boost < 1.0:
            raise GenerationError("signature_boost must be at least 1.0")

    # -- derived vocabulary sizes -------------------------------------------

    def resolved_ingredient_vocabulary(self) -> int:
        if self.ingredient_vocabulary is not None:
            return self.ingredient_vocabulary
        # Vocabulary grows sub-linearly with corpus size (Heaps'-law flavour).
        derived = int(_PAPER_INGREDIENT_VOCAB * min(1.0, self.scale) ** 0.6)
        return max(220, derived)

    def resolved_process_vocabulary(self) -> int:
        if self.process_vocabulary is not None:
            return self.process_vocabulary
        derived = int(_PAPER_PROCESS_VOCAB * min(1.0, self.scale) ** 0.3)
        return max(115, derived)

    def resolved_utensil_vocabulary(self) -> int:
        if self.utensil_vocabulary is not None:
            return self.utensil_vocabulary
        derived = int(_PAPER_UTENSIL_VOCAB * min(1.0, self.scale) ** 0.2)
        return max(40, min(_PAPER_UTENSIL_VOCAB, derived))


class _WeightedPool:
    """A vocabulary pool with precomputed Zipf weights for fast filler draws.

    Draws are pool indices.  Each name is normalised once, here, so a recipe
    maps its indices to finished names without normalising any occurrence.
    A pool depends on its names and exponent alone, so generators share one
    (:func:`_shared_pool`); its arrays and its name map are read-only.
    """

    def __init__(self, names: Sequence[str], exponent: float) -> None:
        self.names: tuple[str, ...] = tuple(names)
        #: Raw name -> pool index; rejecting drawn indices equals rejecting
        #: drawn names only while the raw names are distinct.
        self.index_of: Mapping[str, int] = MappingProxyType(
            {name: index for index, name in enumerate(self.names)}
        )
        if len(self.index_of) != len(self.names):
            raise GenerationError("a generator pool must not repeat a name")
        self.normalised: tuple[str, ...] = tuple(map(normalize_name, self.names))
        #: The sorted distinct normalised names, and each pool index's
        #: position among them: two names that normalise alike are one name,
        #: as in a ``Recipe``.
        self.table: tuple[str, ...] = tuple(sorted(set(self.normalised)))
        rank = {name: position for position, name in enumerate(self.table)}
        self.ranks = np.fromiter(
            map(rank.__getitem__, self.normalised), dtype=np.int64, count=len(self.names)
        )
        weights = zipf_weights(len(self.names), exponent)
        self.cumulative = np.cumsum(weights)
        # Guard against floating point drift in the final bucket.
        self.cumulative[-1] = 1.0
        # [0, 1) cut into a power of two of equal buckets, so u * buckets is
        # exact and floors to u's bucket; a bucket no cumulative bound falls
        # inside has one searchsorted answer for all of it.
        buckets = 1 << max(10, (8 * len(self.names) - 1).bit_length())
        edges = np.arange(buckets + 1, dtype=np.float64) / buckets
        lower = self.cumulative.searchsorted(edges[:-1])
        upper = self.cumulative.searchsorted(edges[1:])
        self._bucket_index = np.where(lower == upper, lower, -1)
        for shared in (self.ranks, self.cumulative, self._bucket_index):
            shared.flags.writeable = False

    def indices(self, draws: np.ndarray) -> np.ndarray:
        """``self.cumulative.searchsorted(draws)`` for uniforms in [0, 1).

        Searchsorted is monotone, so a draw's index lies between those of
        its bucket's edges; where they agree that is the answer, and only
        the draws in buckets holding a cumulative bound are searched.
        """
        found = self._bucket_index[(draws * len(self._bucket_index)).astype(np.intp)]
        unresolved = np.flatnonzero(found < 0)
        found[unresolved] = self.cumulative.searchsorted(draws[unresolved])
        return found

    def draw(
        self, rng: np.random.Generator, count: int, exclude: frozenset[int]
    ) -> list[int]:
        """Draw up to *count* distinct pool indices not already in *exclude*."""
        if count <= 0:
            return []
        chosen: list[int] = []
        seen = set(exclude)
        # Rejection sampling against the cumulative distribution; the pools are
        # much larger than per-recipe counts so this converges immediately.
        # Draws lie in [0, 1) and the last cumulative bucket is exactly 1.0,
        # so every searchsorted index is a valid position in the pool.
        attempts = 0
        max_attempts = max(50, count * 20)
        while len(chosen) < count and attempts < max_attempts:
            remaining = count - len(chosen)
            draws = rng.random(remaining * 2 + 4)
            for index in self.cumulative.searchsorted(draws).tolist():
                if index not in seen:
                    seen.add(index)
                    chosen.append(index)
                    if len(chosen) == count:
                        break
            attempts += 1
        return chosen


#: How many pools the process keeps; the oldest unused one goes first.
_SHARED_POOLS = 16


@lru_cache(maxsize=_SHARED_POOLS)
def _shared_pool(names: tuple[str, ...], exponent: float) -> _WeightedPool:
    """The process's one pool for *names* and *exponent*.

    A pool's names follow from the scale (the vocabulary size) and the
    profiles' signature entities, not the seed, so every generator at one
    scale after the first builds nothing here.
    """
    return _WeightedPool(names, exponent)


class _SignatureTable:
    """One profile's signature entities of one kind, tabulated once per profile.

    Each entity is included with a boosted probability in traditional recipes
    and a reduced one in the rest, chosen so the mixture keeps its marginal
    inclusion probability at the calibrated target (up to the 0.95 cap on
    boosted probabilities).  Entities are held as indices into the kind's
    pool.  Filler draws exclude every signature entity, hit or not, so
    ``excluded`` is the whole index set.
    """

    def __init__(
        self, signatures: Mapping[str, float], rate: float, boost: float, pool: _WeightedPool
    ) -> None:
        names = tuple(signatures)
        self.ids: tuple[int, ...] = tuple(pool.index_of[name] for name in names)
        self.excluded: frozenset[int] = frozenset(self.ids)
        boosted = [min(0.95, boost * signatures[name]) for name in names]
        if rate > 0.0:
            reduced = [
                max(0.0, (signatures[name] - rate * high) / (1.0 - rate))
                for name, high in zip(names, boosted)
            ]
        else:
            reduced = [signatures[name] for name in names]
        self.boosted = np.array(boosted, dtype=np.float64)
        self.reduced = np.array(reduced, dtype=np.float64)

    def draw(self, rng: np.random.Generator, traditional: bool) -> list[int]:
        """The pool indices of the entities this recipe includes, in signature order."""
        if not self.ids:
            return []
        probabilities = self.boosted if traditional else self.reduced
        hits = rng.random(len(self.ids)) < probabilities
        return list(compress(self.ids, hits.tolist()))


@dataclass(frozen=True, slots=True)
class _RegionDraws:
    """One region's recipes as pool indices.

    ``picks`` holds, per kind, the ``(recipe row, pool index)`` pairs of
    every entity drawn (row local to the region, pairs in any order, a pair
    never repeated); ``anchors`` is each recipe's first ingredient draw,
    which names its title.
    """

    picks: tuple[tuple[np.ndarray, np.ndarray], ...]
    anchors: list[int]


def _fill(
    stream: np.ndarray,
    starts: np.ndarray,
    needs: np.ndarray,
    pool: _WeightedPool,
    excluded: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Decode every recipe's first filler attempt of one kind at once.

    Recipe ``r`` asked for ``needs[r]`` entities (none when not positive)
    and drew ``2 * needs[r] + 4`` uniforms at ``stream[starts[r]:]``.
    :meth:`_WeightedPool.draw` walks those draws in order and keeps an
    index that is neither *excluded* nor kept already, until it has enough.
    Here that is: ``searchsorted`` every draw, mark the first occurrence of
    each ``(recipe, index)`` key, drop excluded indices, and keep each
    recipe's first ``needs[r]`` survivors.  Returns ``(rows, indices)`` in
    draw order, or ``None`` when a recipe found too few -- the exact draw
    would have asked the RNG for more, so the stream after it differs.
    """
    active = np.flatnonzero(needs > 0)
    needs = needs[active]
    lengths = 2 * needs + 4
    ends = np.cumsum(lengths)
    begins = ends - lengths
    segment = np.repeat(np.arange(len(active)), lengths)
    positions = np.arange(int(ends[-1]) if len(ends) else 0)
    positions += np.repeat(starts[active] - begins, lengths)
    indices = pool.indices(stream[positions])
    keys = segment * len(pool.names) + indices
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first_in_order = np.ones(len(keys), dtype=bool)
    first_in_order[1:] = ordered[1:] != ordered[:-1]
    valid = np.empty(len(keys), dtype=bool)
    valid[order] = first_in_order
    valid &= ~excluded[indices]
    seen = np.cumsum(valid)
    before = seen[begins] - valid[begins]
    if np.any(seen[ends - 1] - before < needs):
        return None
    keep = valid & (seen <= np.repeat(before + needs, lengths))
    return active[segment[keep]], indices[keep]


def _region_name(name: str) -> str:
    """A region name as :class:`~repro.recipedb.models.Region` stores it."""
    return " ".join(name.split())


class SyntheticRecipeDBGenerator:
    """Generates a synthetic RecipeDB-like corpus from cuisine profiles.

    :meth:`generate` returns the corpus in its integer-id form
    (:class:`~repro.recipedb.columns.RecipeColumns`); no
    :class:`~repro.recipedb.models.Recipe` object is built.  The corpus is
    defined by drawing one recipe at a time (:meth:`_draw_recipe`); each
    region is drawn by a faster pass over the same RNG stream
    (:meth:`_stream_region`) and is redrawn one recipe at a time
    (:meth:`_exact_region`) when that pass cannot decode it.
    """

    def __init__(
        self,
        config: GeneratorConfig | None = None,
        profiles: Mapping[str, CuisineProfile] | None = None,
    ) -> None:
        self.config = config if config is not None else GeneratorConfig()
        self.profiles: dict[str, CuisineProfile] = dict(
            profiles if profiles is not None else default_profiles()
        )
        if not self.profiles:
            raise GenerationError("at least one cuisine profile is required")
        # Regions are registered by key and recipes filed by profile name, so
        # each key must name its own profile's region, and no two alike.
        regions = [_region_name(profile.name) for profile in self.profiles.values()]
        for key, region in zip(self.profiles, regions):
            if _region_name(key) != region:
                raise GenerationError(
                    f"profile key {key!r} differs from its profile's region name {region!r}"
                )
        if len(set(regions)) != len(regions):
            raise GenerationError("two profile keys name the same region")
        self._rng = make_rng(self.config.seed)
        self._ingredient_pool = self._build_ingredient_pool()
        self._process_pool = self._build_process_pool()
        self._utensil_pool = self._build_utensil_pool()

    # -- pool construction -----------------------------------------------------

    def _build_ingredient_pool(self) -> _WeightedPool:
        size = self.config.resolved_ingredient_vocabulary()
        names = list(expanded_ingredient_pool(size))
        self._ensure_signatures_present(names, "signature_items")
        return _shared_pool(tuple(names), self.config.zipf_exponent)

    def _build_process_pool(self) -> _WeightedPool:
        size = self.config.resolved_process_vocabulary()
        names = list(expanded_process_pool(size))
        self._ensure_signatures_present(names, "signature_processes")
        return _shared_pool(tuple(names), self.config.zipf_exponent)

    def _build_utensil_pool(self) -> _WeightedPool:
        size = self.config.resolved_utensil_vocabulary()
        names = list(expanded_utensil_pool(size))
        self._ensure_signatures_present(names, "signature_utensils")
        return _shared_pool(tuple(names), self.config.zipf_exponent)

    def _ensure_signatures_present(self, names: list[str], attribute: str) -> None:
        """Append any profile signature entity missing from a pool."""
        present = set(names)
        for profile in self.profiles.values():
            for item in getattr(profile, attribute):
                if item not in present:
                    names.append(item)
                    present.add(item)

    # -- public API --------------------------------------------------------------

    @property
    def ingredient_pool(self) -> tuple[str, ...]:
        return self._ingredient_pool.names

    @property
    def process_pool(self) -> tuple[str, ...]:
        return self._process_pool.names

    @property
    def utensil_pool(self) -> tuple[str, ...]:
        return self._utensil_pool.names

    def region_recipe_counts(self) -> dict[str, int]:
        """Planned recipe count per region at the configured scale."""
        return {
            _region_name(name): profile.scaled_recipe_count(self.config.scale)
            for name, profile in sorted(self.profiles.items())
        }

    def generate(self) -> RecipeDatabase:
        """Generate the corpus into a fresh :class:`RecipeDatabase`, as ids."""
        regions = [
            Region(name, continent=profile.continent)
            for name, profile in sorted(self.profiles.items())
        ]
        return RecipeDatabase.from_columns(self._columns(), regions)

    # -- the id form ----------------------------------------------------------------

    def _columns(self) -> RecipeColumns:
        """Draw every region in name order and assemble the corpus columns.

        Recipe ids run 0, 1, ... in that order.  Each kind's pool indices map
        to the pool's sorted table of distinct normalised names
        (``_WeightedPool.table``).  Each region's ids are sorted as soon as
        it is drawn, so only its int32 ids stay until the regions are joined.
        """
        tables_of_names = [
            (pool.table, pool.ranks)
            for pool in (self._ingredient_pool, self._process_pool, self._utensil_pool)
        ]
        parts: list[list[KindColumn]] = [[], [], []]
        titles: list[str] = []
        regions: list[str] = []
        sizes: list[int] = []
        for name in sorted(self.profiles):
            profile = self.profiles[name]
            tables = self._signature_tables(profile)
            count = profile.scaled_recipe_count(self.config.scale)
            state = self._rng.bit_generator.state
            drawn = self._decode_region(tables, *self._stream_region(count, tables))
            if drawn is None:
                self._rng.bit_generator.state = state
                drawn = self._exact_region(count, tables)
            for kind, ((names, ranks), (rows, picks)) in enumerate(
                zip(tables_of_names, drawn.picks)
            ):
                parts[kind].append(kind_column(rows, ranks[picks], names, count))
            # normalize_name(f"{profile.name} {anchor} dish {serial}"), with
            # each part normalised once: the profile name here, every
            # ingredient name in its pool.
            title = normalize_name(profile.name)
            anchor_names = self._ingredient_pool.normalised
            titles.extend(
                f"{title} {anchor_names[anchor]} dish {serial}"
                for serial, anchor in enumerate(drawn.anchors)
            )
            regions.append(_region_name(profile.name))
            sizes.append(count)

        n = len(titles)
        kinds = []
        for (names, _ranks), columns in zip(tables_of_names, parts):
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.concatenate([column.lengths() for column in columns]), out=offsets[1:])
            kinds.append(
                KindColumn(tuple(names), np.concatenate([c.ids for c in columns]), offsets)
            )
        region_table = sorted(set(regions))
        codes = [region_table.index(region) for region in regions]
        return RecipeColumns(
            np.arange(n, dtype=np.int64),
            titles,
            tuple(region_table),
            np.repeat(np.array(codes, dtype=np.int32), sizes),
            (_SOURCE,),
            np.zeros(n, dtype=np.int32),
            tuple(kinds),  # type: ignore[arg-type]
        )

    def _signature_tables(
        self, profile: CuisineProfile
    ) -> tuple[_SignatureTable, _SignatureTable, _SignatureTable]:
        """The profile's ingredient, process and utensil signature tables."""
        rate = self.config.traditional_recipe_rate
        boost = self.config.signature_boost
        return (
            _SignatureTable(profile.signature_items, rate, boost, self._ingredient_pool),
            _SignatureTable(profile.signature_processes, rate, boost, self._process_pool),
            _SignatureTable(profile.signature_utensils, rate, boost, self._utensil_pool),
        )

    # -- the per-recipe path ---------------------------------------------------------

    def _exact_region(
        self,
        count: int,
        tables: tuple[_SignatureTable, _SignatureTable, _SignatureTable],
    ) -> _RegionDraws:
        """Draw *count* recipes one at a time; this fixes the RNG stream."""
        drawn = [self._draw_recipe(tables) for _ in range(count)]
        picks = []
        for kind in range(3):
            lengths = [len(recipe[kind]) for recipe in drawn]
            picks.append(
                (
                    np.repeat(np.arange(count, dtype=np.int64), lengths),
                    np.fromiter(
                        (index for recipe in drawn for index in recipe[kind]),
                        dtype=np.int64,
                        count=sum(lengths),
                    ),
                )
            )
        return _RegionDraws(tuple(picks), [recipe[0][0] for recipe in drawn])

    def _draw_recipe(
        self, tables: tuple[_SignatureTable, _SignatureTable, _SignatureTable]
    ) -> tuple[list[int], list[int], list[int]]:
        """One recipe's ingredient, process and utensil pool indices."""
        rng = self._rng
        item_table, process_table, utensil_table = tables
        # One flag per recipe correlates signature usage across entity kinds,
        # so compound signature patterns (soy sauce + add + heat, ...) occur
        # together often enough to be mined at the paper's 0.2 threshold.
        traditional = rng.random() < self.config.traditional_recipe_rate
        ingredients = item_table.draw(rng, traditional)
        processes = process_table.draw(rng, traditional)
        utensils = utensil_table.draw(rng, traditional)

        target_ingredients = poisson_clamped(rng, self.config.mean_ingredients, 1, 60)
        target_processes = poisson_clamped(rng, self.config.mean_processes, 1, 80)

        # Filler draws exclude the profile's signature entities entirely (not
        # just the ones that hit this recipe), so the within-cuisine support of
        # every signature item stays exactly at its calibrated probability.
        ingredients += self._ingredient_pool.draw(
            rng, target_ingredients - len(ingredients), item_table.excluded
        )
        processes += self._process_pool.draw(
            rng, target_processes - len(processes), process_table.excluded
        )

        if rng.random() < self.config.utensil_missing_rate:
            utensils = []
        else:
            target_utensils = poisson_clamped(rng, self.config.mean_utensils, 1, 15)
            utensils += self._utensil_pool.draw(
                rng, target_utensils - len(utensils), utensil_table.excluded
            )

        if not ingredients:
            # Degenerate draw (tiny mean + no signature hit): force one staple.
            ingredients = [0]
        return ingredients, processes, utensils

    # -- the same-stream pass ----------------------------------------------------------

    def _stream_region(
        self,
        count: int,
        tables: tuple[_SignatureTable, _SignatureTable, _SignatureTable],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw *count* recipes by the RNG calls :meth:`_draw_recipe` makes.

        One sequential pass makes the same ``random``/``poisson`` calls in
        the same order, merging neighbours into one call of the summed size
        (the same stream): the traditional flag with the three signature
        draws, the ingredient filler with the process filler and the utensil
        flag, and the utensil filler with the next recipe's flag and
        signature draws.  Each filler call draws only its first attempt.
        Returns the uniforms drawn and one record per recipe for
        :meth:`_decode_region`, which decodes the whole region at once and
        reports whether any recipe needed a second attempt -- after one,
        the stream is no longer the per-recipe path's.
        """
        rng, config = self._rng, self.config
        random, poisson = rng.random, rng.poisson
        item_table, process_table, utensil_table = tables
        end_i = 1 + len(item_table.ids)
        end_p = end_i + len(process_table.ids)
        width = end_p + len(utensil_table.ids)
        boosted = np.concatenate([table.boosted for table in tables])
        reduced = np.concatenate([table.reduced for table in tables])
        # Element 0 lines up with the traditional flag and is never counted.
        boosted_list, reduced_list = [0.0, *boosted.tolist()], [0.0, *reduced.tolist()]
        rate, missing_rate = config.traditional_recipe_rate, config.utensil_missing_rate
        mean_i, mean_p = config.mean_ingredients, config.mean_processes
        mean_u = config.mean_utensils
        # The most uniforms one recipe draws (targets are clamped), plus the
        # next recipe's head drawn along with its utensil filler.
        most = 2 * width + (2 * 60 + 4) + (2 * 80 + 4) + 1 + (2 * 15 + 4)
        stream = np.empty(count * (width + 100) + most)
        limit = len(stream) - most
        records = []
        record = records.append
        at = 0
        head_drawn = False
        for row in range(count):
            if at > limit:
                stream = np.concatenate((stream, np.empty(len(stream))))
                limit = len(stream) - most
            if not head_drawn:
                random(out=stream[at : at + width])
            head = at
            values = stream[at : at + width].tolist()
            at += width
            hits = list(map(less, values, boosted_list if values[0] < rate else reduced_list))
            target = poisson(mean_i)
            need_i = (1 if target < 1 else 60 if target > 60 else target) - hits[
                1:end_i
            ].count(True)
            target = poisson(mean_p)
            need_p = (1 if target < 1 else 80 if target > 80 else target) - hits[
                end_i:end_p
            ].count(True)
            at += (2 * need_i + 4 if need_i > 0 else 0) + (2 * need_p + 4 if need_p > 0 else 0) + 1
            random(out=stream[head + width : at])
            head_drawn = False
            if stream[at - 1] < missing_rate:
                record((head, need_i, need_p, 0, True))
                continue
            target = poisson(mean_u)
            need_u = (1 if target < 1 else 15 if target > 15 else target) - hits[end_p:].count(
                True
            )
            record((head, need_i, need_p, need_u, False))
            if need_u > 0:
                # The next recipe's head follows in the same call.
                head_drawn = row + 1 < count
                size = 2 * need_u + 4
                random(out=stream[at : at + size + (width if head_drawn else 0)])
                at += size
        return stream, np.array(records, dtype=np.int64).reshape(-1, 5)

    def _decode_region(
        self,
        tables: tuple[_SignatureTable, _SignatureTable, _SignatureTable],
        stream: np.ndarray,
        records: np.ndarray,
    ) -> _RegionDraws | None:
        """Turn one region's recorded stream into pool indices (see :func:`_fill`).

        *records* holds one ``(head, need_i, need_p, need_u, missing)`` row
        per recipe: where its head (flag and signature draws) starts, its
        three filler counts and its utensil flag.  Its fillers and flag
        follow the head in the stream.
        """
        head_at, needs_i, needs_p, needs_u, missing = records.T
        missing = missing.astype(bool)
        boosted = np.concatenate([table.boosted for table in tables])
        reduced = np.concatenate([table.reduced for table in tables])
        fill_at = head_at + 1 + len(boosted)
        process_at = fill_at + np.where(needs_i > 0, 2 * needs_i + 4, 0)
        utensil_at = process_at + np.where(needs_p > 0, 2 * needs_p + 4, 0) + 1
        count = len(head_at)
        pools = (self._ingredient_pool, self._process_pool, self._utensil_pool)
        fills = []
        for pool, table, starts, needs in zip(
            pools, tables, (fill_at, process_at, utensil_at), (needs_i, needs_p, needs_u)
        ):
            excluded = np.zeros(len(pool.names), dtype=bool)
            excluded[list(table.ids)] = True
            filled = _fill(stream, starts, needs, pool, excluded)
            if filled is None:
                return None
            fills.append(filled)

        width = 1 + len(boosted)
        heads = stream[head_at[:, None] + np.arange(width)]
        traditional = heads[:, :1] < self.config.traditional_recipe_rate
        hits = heads[:, 1:] < np.where(traditional, boosted, reduced)
        hits[missing, width - 1 - len(tables[2].ids) :] = False
        picks = []
        column = 0
        for table, (fill_rows, fill_indices) in zip(tables, fills):
            sig_rows, sig_columns = np.nonzero(hits[:, column : column + len(table.ids)])
            column += len(table.ids)
            ids = np.array(table.ids, dtype=np.int64)
            picks.append(
                (
                    np.concatenate((sig_rows, fill_rows)),
                    np.concatenate((ids[sig_columns], fill_indices)),
                )
            )
        # A title names the first ingredient drawn: the recipe's first
        # signature hit, else its first filler.  Both lists are row-ordered
        # (the signature pairs first), so writing the fillers' firsts and
        # then the signatures' leaves the right one.
        n_signature = len(picks[0][0]) - len(fills[0][0])
        anchors = np.zeros(count, dtype=np.int64)
        for rows, indices in (fills[0], (picks[0][0][:n_signature], picks[0][1][:n_signature])):
            first = np.ones(len(rows), dtype=bool)
            first[1:] = rows[1:] != rows[:-1]
            anchors[rows[first]] = indices[first]
        return _RegionDraws(tuple(picks), anchors.tolist())


def generate_corpus(
    seed: int = 2020,
    scale: float = 0.05,
    *,
    profiles: Mapping[str, CuisineProfile] | None = None,
    config: GeneratorConfig | None = None,
) -> RecipeDatabase:
    """Convenience wrapper: build a generator and return the generated database.

    Either pass a fully-formed *config* or the common ``seed`` / ``scale``
    shortcuts (ignored when *config* is provided).
    """
    resolved = config if config is not None else GeneratorConfig(seed=seed, scale=scale)
    return SyntheticRecipeDBGenerator(resolved, profiles=profiles).generate()
