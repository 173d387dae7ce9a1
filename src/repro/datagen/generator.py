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
from itertools import compress
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import GenerationError
from repro.datagen.pantry import (
    expanded_ingredient_pool,
    expanded_process_pool,
    expanded_utensil_pool,
)
from repro.datagen.profiles import CuisineProfile, default_profiles
from repro.datagen.random_utils import make_rng, poisson_clamped, zipf_weights
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import Recipe, Region

__all__ = ["GeneratorConfig", "SyntheticRecipeDBGenerator", "generate_corpus"]

# Paper corpus constants used to derive defaults.
_PAPER_RECIPES = 118_071
_PAPER_NO_UTENSIL_RECIPES = 14_601
_PAPER_INGREDIENT_VOCAB = 20_280
_PAPER_PROCESS_VOCAB = 268
_PAPER_UTENSIL_VOCAB = 69


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
    """A vocabulary pool with precomputed Zipf weights for fast filler draws."""

    def __init__(self, names: Sequence[str], exponent: float) -> None:
        self.names: tuple[str, ...] = tuple(names)
        weights = zipf_weights(len(self.names), exponent)
        self._cumulative = np.cumsum(weights)
        # Guard against floating point drift in the final bucket.
        self._cumulative[-1] = 1.0

    def draw(
        self, rng: np.random.Generator, count: int, exclude: frozenset[str]
    ) -> list[str]:
        """Draw up to *count* distinct names not already in *exclude*."""
        if count <= 0:
            return []
        names = self.names
        chosen: list[str] = []
        seen = set(exclude)
        # Rejection sampling against the cumulative distribution; the pools are
        # much larger than per-recipe counts so this converges immediately.
        # Draws lie in [0, 1) and the last cumulative bucket is exactly 1.0,
        # so every searchsorted index is a valid position in *names*.
        attempts = 0
        max_attempts = max(50, count * 20)
        while len(chosen) < count and attempts < max_attempts:
            remaining = count - len(chosen)
            draws = rng.random(remaining * 2 + 4)
            for index in np.searchsorted(self._cumulative, draws, side="left").tolist():
                name = names[index]
                if name not in seen:
                    seen.add(name)
                    chosen.append(name)
                    if len(chosen) == count:
                        break
            attempts += 1
        return chosen


class _SignatureTable:
    """One profile's signature entities of one kind, tabulated once per profile.

    Each entity is included with a boosted probability in traditional recipes
    and a reduced one in the rest, chosen so the mixture keeps its marginal
    inclusion probability at the calibrated target (up to the 0.95 cap on
    boosted probabilities).  Filler draws exclude every signature entity, hit
    or not, so ``excluded`` is the whole name set.
    """

    def __init__(self, signatures: Mapping[str, float], rate: float, boost: float) -> None:
        self.names: tuple[str, ...] = tuple(signatures)
        self.excluded: frozenset[str] = frozenset(self.names)
        boosted = [min(0.95, boost * signatures[name]) for name in self.names]
        if rate > 0.0:
            reduced = [
                max(0.0, (signatures[name] - rate * high) / (1.0 - rate))
                for name, high in zip(self.names, boosted)
            ]
        else:
            reduced = [signatures[name] for name in self.names]
        self._boosted = np.array(boosted, dtype=np.float64)
        self._reduced = np.array(reduced, dtype=np.float64)

    def draw(self, rng: np.random.Generator, traditional: bool) -> list[str]:
        """The signature entities this recipe includes, in signature order."""
        if not self.names:
            return []
        probabilities = self._boosted if traditional else self._reduced
        hits = rng.random(len(self.names)) < probabilities
        return list(compress(self.names, hits.tolist()))


class SyntheticRecipeDBGenerator:
    """Generates a synthetic RecipeDB-like corpus from cuisine profiles."""

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
        self._rng = make_rng(self.config.seed)
        self._ingredient_pool = self._build_ingredient_pool()
        self._process_pool = self._build_process_pool()
        self._utensil_pool = self._build_utensil_pool()

    # -- pool construction -----------------------------------------------------

    def _build_ingredient_pool(self) -> _WeightedPool:
        size = self.config.resolved_ingredient_vocabulary()
        names = list(expanded_ingredient_pool(size))
        self._ensure_signatures_present(names, "signature_items")
        return _WeightedPool(names, self.config.zipf_exponent)

    def _build_process_pool(self) -> _WeightedPool:
        size = self.config.resolved_process_vocabulary()
        names = list(expanded_process_pool(size))
        self._ensure_signatures_present(names, "signature_processes")
        return _WeightedPool(names, self.config.zipf_exponent)

    def _build_utensil_pool(self) -> _WeightedPool:
        size = self.config.resolved_utensil_vocabulary()
        names = list(expanded_utensil_pool(size))
        self._ensure_signatures_present(names, "signature_utensils")
        return _WeightedPool(names, self.config.zipf_exponent)

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
            name: profile.scaled_recipe_count(self.config.scale)
            for name, profile in sorted(self.profiles.items())
        }

    def iter_recipes(self) -> Iterator[Recipe]:
        """Yield every synthetic recipe, region by region, id-ordered."""
        recipe_id = 0
        for region_name in sorted(self.profiles):
            profile = self.profiles[region_name]
            tables = self._signature_tables(profile)
            count = profile.scaled_recipe_count(self.config.scale)
            for serial in range(count):
                yield self._generate_recipe(recipe_id, serial, profile, tables)
                recipe_id += 1

    def generate(self) -> RecipeDatabase:
        """Generate the corpus and load it into a fresh :class:`RecipeDatabase`."""
        database = RecipeDatabase()
        for name in sorted(self.profiles):
            profile = self.profiles[name]
            database.register_region(Region(name, continent=profile.continent))
        database.add_recipes(self.iter_recipes())
        return database

    # -- recipe construction --------------------------------------------------------

    def _signature_tables(
        self, profile: CuisineProfile
    ) -> tuple[_SignatureTable, _SignatureTable, _SignatureTable]:
        """The profile's ingredient, process and utensil signature tables."""
        rate = self.config.traditional_recipe_rate
        boost = self.config.signature_boost
        return (
            _SignatureTable(profile.signature_items, rate, boost),
            _SignatureTable(profile.signature_processes, rate, boost),
            _SignatureTable(profile.signature_utensils, rate, boost),
        )

    def _generate_recipe(
        self,
        recipe_id: int,
        serial: int,
        profile: CuisineProfile,
        tables: tuple[_SignatureTable, _SignatureTable, _SignatureTable],
    ) -> Recipe:
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
            ingredients = [self._ingredient_pool.names[0]]

        title = self._title_for(profile, serial, ingredients)
        return Recipe(
            recipe_id=recipe_id,
            title=title,
            region=profile.name,
            ingredients=tuple(ingredients),
            processes=tuple(processes),
            utensils=tuple(utensils),
            source="synthetic-recipedb",
        )

    @staticmethod
    def _title_for(profile: CuisineProfile, serial: int, ingredients: Sequence[str]) -> str:
        anchor = ingredients[0] if ingredients else "house"
        return f"{profile.name} {anchor} dish {serial}"


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
