"""Unit tests for the synthetic RecipeDB generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator, generate_corpus
from repro.datagen.profiles import default_profiles, profile_for
from tests.oracles.generator import UNNORMALISED_PROFILES


@pytest.fixture(scope="module")
def small_generator() -> SyntheticRecipeDBGenerator:
    profiles = {name: default_profiles()[name] for name in ("Japanese", "Greek", "UK")}
    return SyntheticRecipeDBGenerator(GeneratorConfig(seed=11, scale=0.05), profiles=profiles)


@pytest.fixture(scope="module")
def small_db(small_generator):
    return small_generator.generate()


class TestGeneratorConfig:
    def test_defaults_valid(self):
        config = GeneratorConfig()
        assert config.scale == 0.05
        assert 0.10 <= config.utensil_missing_rate <= 0.15

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", -1),
            ("scale", 0),
            ("mean_ingredients", 0),
            ("utensil_missing_rate", 1.0),
            ("ingredient_vocabulary", 0),
            ("zipf_exponent", 0),
            ("traditional_recipe_rate", 1.0),
            ("signature_boost", 0.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(GenerationError):
            GeneratorConfig(**{field: value})

    def test_vocabulary_sizes_grow_with_scale(self):
        small = GeneratorConfig(scale=0.02)
        large = GeneratorConfig(scale=1.0)
        assert small.resolved_ingredient_vocabulary() < large.resolved_ingredient_vocabulary()
        assert large.resolved_ingredient_vocabulary() == 20280
        assert large.resolved_process_vocabulary() == 268
        assert large.resolved_utensil_vocabulary() == 69

    def test_explicit_vocabulary_wins(self):
        config = GeneratorConfig(ingredient_vocabulary=333)
        assert config.resolved_ingredient_vocabulary() == 333


class TestGenerator:
    def test_requires_profiles(self):
        with pytest.raises(GenerationError):
            SyntheticRecipeDBGenerator(GeneratorConfig(), profiles={})

    @pytest.mark.parametrize(
        "keys,bad_key",
        [(("Other",), "Other"), (("Japanese", "Other"), "Other"), (("Left", "Right"), "Left")],
    )
    def test_profile_keyed_apart_from_its_region_is_rejected(self, keys, bad_key):
        # Regions are registered by key and recipes filed by profile name, so
        # a key other than the name would file recipes under no region.
        profiles = {key: profile_for("Japanese") for key in keys}
        with pytest.raises(GenerationError) as raised:
            SyntheticRecipeDBGenerator(GeneratorConfig(seed=1, scale=0.01), profiles=profiles)
        assert f"{bad_key!r}" in str(raised.value)
        assert "'Japanese'" in str(raised.value)

    def test_keys_naming_one_region_twice_are_rejected(self):
        profiles = {key: profile_for("Japanese") for key in ("Japanese", "Japanese ")}
        with pytest.raises(GenerationError):
            SyntheticRecipeDBGenerator(GeneratorConfig(seed=1, scale=0.01), profiles=profiles)

    def test_region_recipe_counts_match_the_corpus(self):
        generator = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=17, scale=0.01), profiles=UNNORMALISED_PROFILES
        )
        assert generator.region_recipe_counts() == generator.generate().region_recipe_counts()

    def test_region_recipe_counts_scale(self, small_generator):
        counts = small_generator.region_recipe_counts()
        assert counts["Japanese"] == round(profile_for("Japanese").paper_recipe_count * 0.05)
        assert set(counts) == {"Japanese", "Greek", "UK"}

    def test_generated_database_shape(self, small_db):
        assert set(small_db.region_names()) == {"Greek", "Japanese", "UK"}
        assert len(small_db) == sum(small_db.region_recipe_counts().values())
        assert small_db.recipe_ids() == list(range(len(small_db)))

    def test_signature_supports_near_calibration(self, small_db):
        """Within-cuisine supports should track the calibrated probabilities."""
        checks = [
            ("Japanese", "soy sauce", profile_for("Japanese").signature_items["soy sauce"]),
            ("Greek", "olive oil", profile_for("Greek").signature_items["olive oil"]),
            ("UK", "butter", profile_for("UK").signature_items["butter"]),
        ]
        for region, item, target in checks:
            measured = small_db.item_support(item, region=region)
            assert measured == pytest.approx(target, abs=0.12), (region, item)

    def test_signature_items_are_cuisine_specific(self, small_db):
        assert small_db.item_support("soy sauce", region="Japanese") > \
            small_db.item_support("soy sauce", region="UK") + 0.2
        assert small_db.item_support("olive oil", region="Greek") > \
            small_db.item_support("olive oil", region="Japanese") + 0.2

    def test_recipe_sizes_track_means(self, small_db):
        recipes = small_db.recipes()
        mean_ingredients = np.mean([r.n_ingredients for r in recipes])
        mean_processes = np.mean([r.n_processes for r in recipes])
        assert 7.0 <= mean_ingredients <= 13.0
        assert 9.0 <= mean_processes <= 15.0

    def test_some_recipes_lack_utensils(self, small_db):
        missing = sum(1 for r in small_db.recipes() if not r.has_utensils)
        assert 0 < missing < len(small_db)

    def test_determinism(self):
        profiles = {name: default_profiles()[name] for name in ("Japanese", "UK")}
        first = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=5, scale=0.02), profiles=profiles
        ).generate()
        second = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=5, scale=0.02), profiles=profiles
        ).generate()
        assert first.to_dicts() == second.to_dicts()

    def test_different_seeds_differ(self):
        profiles = {name: default_profiles()[name] for name in ("Japanese", "UK")}
        first = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=5, scale=0.02), profiles=profiles
        ).generate()
        second = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=6, scale=0.02), profiles=profiles
        ).generate()
        assert first.to_dicts() != second.to_dicts()

    def test_pools_contain_every_signature(self, small_generator):
        for profile in small_generator.profiles.values():
            for item in profile.signature_items:
                assert item in small_generator.ingredient_pool
            for process in profile.signature_processes:
                assert process in small_generator.process_pool
            for utensil in profile.signature_utensils:
                assert utensil in small_generator.utensil_pool


class TestGenerateCorpusHelper:
    def test_generate_corpus_shortcut(self):
        profiles = {name: default_profiles()[name] for name in ("Thai", "Korean")}
        db = generate_corpus(seed=3, scale=0.03, profiles=profiles)
        assert set(db.region_names()) == {"Korean", "Thai"}

    def test_explicit_config_overrides_shortcuts(self):
        profiles = {name: default_profiles()[name] for name in ("Thai",)}
        config = GeneratorConfig(seed=1, scale=0.03)
        db = generate_corpus(seed=999, scale=0.5, profiles=profiles, config=config)
        assert len(db) == round(profile_for("Thai").paper_recipe_count * 0.03)
