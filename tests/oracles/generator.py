"""The synthetic corpus drawn one recipe at a time, by name.

A standalone reference for :class:`repro.datagen.generator.SyntheticRecipeDBGenerator`,
sharing only its configuration, profiles, pantry pools and RNG helpers.  It
draws every recipe with the RNG calls the corpus is defined by, in order:

1. the traditional flag, then each kind's signature draws;
2. the ingredient and process targets (clamped Poisson);
3. the ingredient and process fillers, each a rejection loop over Zipf draws
   that skips the profile's signature names and names already drawn;
4. the utensil-missing flag, then (unless missing) the utensil target and
   filler.

Fillers are rejected by raw name, and each recipe is built through the
validating ``Recipe(...)`` constructor, which normalises, de-duplicates and
sorts its names.  The production generator draws pool indices, decodes
whole regions at once and never builds a ``Recipe``; its materialised
recipes must equal these one for one
(``tests/datagen/test_generator_oracle.py``).
"""

from __future__ import annotations

from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from repro.datagen.generator import GeneratorConfig
from repro.datagen.pantry import (
    expanded_ingredient_pool,
    expanded_process_pool,
    expanded_utensil_pool,
)
from repro.datagen.profiles import CuisineProfile, default_profiles
from repro.datagen.random_utils import make_rng, poisson_clamped, zipf_weights
from repro.recipedb.models import Recipe

__all__ = ["NameDrawingGenerator", "UNNORMALISED_PROFILES"]

#: Profiles whose signature names need normalising, two of which collide.
UNNORMALISED_PROFILES = {
    "Test  Cuisine": CuisineProfile(
        name="Test  Cuisine",
        continent="Asia",
        paper_recipe_count=40,
        # "Soy  Sauce" is not a pool name, so it is appended raw beside the
        # pool's own "soy sauce"; both normalise to one recipe entry.
        signature_items={"Soy  Sauce": 0.6, "soy sauce": 0.3, "Ginger": 0.4},
        signature_processes={"Stir Fry": 0.5},
        signature_utensils={"Wok ": 0.5},
    ),
    "Japanese": default_profiles()["Japanese"],
}


class _NamePool:
    """One kind's pool: raw names and their cumulative Zipf weights."""

    def __init__(self, names: Sequence[str], exponent: float) -> None:
        self.names = tuple(names)
        self.cumulative = np.cumsum(zipf_weights(len(self.names), exponent))
        self.cumulative[-1] = 1.0

    def draw(self, rng: np.random.Generator, count: int, exclude) -> list[str]:
        """Up to *count* distinct names, none in *exclude*."""
        if count <= 0:
            return []
        chosen: list[str] = []
        seen = set(exclude)
        attempts, max_attempts = 0, max(50, count * 20)
        while len(chosen) < count and attempts < max_attempts:
            draws = rng.random((count - len(chosen)) * 2 + 4)
            for index in np.searchsorted(self.cumulative, draws, side="left").tolist():
                name = self.names[index]
                if name not in seen:
                    seen.add(name)
                    chosen.append(name)
                    if len(chosen) == count:
                        break
            attempts += 1
        return chosen


class NameDrawingGenerator:
    """Draws the corpus of ``(config, profiles)`` recipe by recipe."""

    def __init__(
        self,
        config: GeneratorConfig,
        profiles: Mapping[str, CuisineProfile] | None = None,
    ) -> None:
        self.config = config
        self.profiles = dict(profiles if profiles is not None else default_profiles())
        self.rng = make_rng(config.seed)
        self.pools = (
            self._pool(
                expanded_ingredient_pool(config.resolved_ingredient_vocabulary()),
                "signature_items",
            ),
            self._pool(
                expanded_process_pool(config.resolved_process_vocabulary()),
                "signature_processes",
            ),
            self._pool(
                expanded_utensil_pool(config.resolved_utensil_vocabulary()),
                "signature_utensils",
            ),
        )

    def _pool(self, names: Sequence[str], attribute: str) -> _NamePool:
        """The pantry pool plus every profile signature it lacks, appended."""
        names = list(names)
        present = set(names)
        for profile in self.profiles.values():
            for name in getattr(profile, attribute):
                if name not in present:
                    names.append(name)
                    present.add(name)
        return _NamePool(names, self.config.zipf_exponent)

    def recipes(self) -> list[Recipe]:
        """Every recipe, region by region in key order, ids from 0."""
        recipes: list[Recipe] = []
        for key in sorted(self.profiles):
            profile = self.profiles[key]
            for serial in range(profile.scaled_recipe_count(self.config.scale)):
                recipes.append(self._recipe(len(recipes), serial, profile))
        return recipes

    def _probabilities(self, signatures: Mapping[str, float], traditional: bool) -> list[float]:
        """Each signature's inclusion probability for one kind of recipe."""
        rate, boost = self.config.traditional_recipe_rate, self.config.signature_boost
        boosted = [min(0.95, boost * p) for p in signatures.values()]
        if traditional:
            return boosted
        if rate == 0.0:
            return list(signatures.values())
        return [
            max(0.0, (p - rate * high) / (1.0 - rate))
            for p, high in zip(signatures.values(), boosted)
        ]

    def _recipe(self, recipe_id: int, serial: int, profile: CuisineProfile) -> Recipe:
        rng, config = self.rng, self.config
        signatures = (
            profile.signature_items,
            profile.signature_processes,
            profile.signature_utensils,
        )
        traditional = rng.random() < config.traditional_recipe_rate
        drawn = []
        for names in signatures:
            if names:
                probabilities = np.array(self._probabilities(names, traditional))
                hits = (rng.random(len(names)) < probabilities).tolist()
                drawn.append(list(compress(tuple(names), hits)))
            else:
                drawn.append([])
        ingredients, processes, utensils = drawn
        ingredient_pool, process_pool, utensil_pool = self.pools
        target_ingredients = poisson_clamped(rng, config.mean_ingredients, 1, 60)
        target_processes = poisson_clamped(rng, config.mean_processes, 1, 80)
        ingredients += ingredient_pool.draw(
            rng, target_ingredients - len(ingredients), signatures[0]
        )
        processes += process_pool.draw(rng, target_processes - len(processes), signatures[1])
        if rng.random() < config.utensil_missing_rate:
            utensils = []
        else:
            target_utensils = poisson_clamped(rng, config.mean_utensils, 1, 15)
            utensils += utensil_pool.draw(rng, target_utensils - len(utensils), signatures[2])
        if not ingredients:
            ingredients = [ingredient_pool.names[0]]
        return Recipe(
            recipe_id=recipe_id,
            title=f"{profile.name} {ingredients[0]} dish {serial}",
            region=profile.name,
            ingredients=tuple(ingredients),
            processes=tuple(processes),
            utensils=tuple(utensils),
            source="synthetic-recipedb",
        )
