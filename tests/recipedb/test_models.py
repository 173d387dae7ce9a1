"""Unit tests for recipe / entity models."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, strategies as st

from repro.errors import ValidationError
from repro.recipedb.models import EntityKind, Recipe, Region, normalize_name


class TestNormalizeName:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize_name("  Soy   Sauce ") == "soy sauce"

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            normalize_name("   ")

    def test_rejects_non_string(self):
        with pytest.raises(ValidationError):
            normalize_name(42)  # type: ignore[arg-type]

    @given(st.text())
    def test_idempotent(self, name: str):
        # Vocabulary lookups probe the raw string first, which is exact only
        # because normalising a normalised name changes nothing.
        assume(name.strip())
        once = normalize_name(name)
        assert normalize_name(once) == once


class TestRegion:
    def test_name_normalisation_preserves_case(self):
        region = Region("  Indian   Subcontinent ")
        assert region.name == "Indian Subcontinent"
        assert region.continent == "unknown"

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Region("   ")


class TestRecipe:
    def test_entities_sorted_and_deduplicated(self):
        recipe = Recipe(
            0, "Test", "Japanese",
            ingredients=("Soy Sauce", "mirin", "soy sauce"),
            processes=("Heat", "add", "heat"),
            utensils=("Wok",),
        )
        assert recipe.ingredients == ("mirin", "soy sauce")
        assert recipe.processes == ("add", "heat")
        assert recipe.utensils == ("wok",)
        assert recipe.n_ingredients == 2
        assert recipe.n_processes == 2
        assert recipe.n_utensils == 1

    def test_requires_at_least_one_ingredient(self):
        with pytest.raises(ValidationError):
            Recipe(0, "empty", "Japanese", ingredients=())

    def test_items_concatenates_all_kinds(self):
        recipe = Recipe(0, "t", "X", ingredients=("a",), processes=("b",), utensils=("c",))
        assert recipe.items() == frozenset({"a", "b", "c"})
        assert recipe.items([EntityKind.INGREDIENT]) == frozenset({"a"})
        assert recipe.items([EntityKind.PROCESS, EntityKind.UTENSIL]) == frozenset({"b", "c"})

    def test_entities_of_unknown_kind_rejected(self):
        recipe = Recipe(0, "t", "X", ingredients=("a",))
        with pytest.raises(ValidationError):
            recipe.entities_of("not-a-kind")  # type: ignore[arg-type]

    def test_has_utensils_flag(self):
        with_utensils = Recipe(0, "t", "X", ingredients=("a",), utensils=("bowl",))
        without = Recipe(1, "t", "X", ingredients=("a",))
        assert with_utensils.has_utensils
        assert not without.has_utensils

    def test_roundtrip_through_dict(self):
        recipe = Recipe(
            5, "Roundtrip", "Thai",
            ingredients=("fish sauce", "lime juice"),
            processes=("pound",),
            utensils=("mortar and pestle",),
            source="unit-test",
        )
        assert Recipe.from_dict(recipe.to_dict()) == recipe

    def test_from_dict_missing_field(self):
        with pytest.raises(ValidationError):
            Recipe.from_dict({"title": "x", "region": "Y"})

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            Recipe(-3, "t", "X", ingredients=("a",))

    @pytest.mark.parametrize("field", ["ingredients", "processes", "utensils"])
    def test_string_entity_field_rejected(self, field):
        # A lone string would otherwise be split into one-character names.
        entities = {"ingredients": ("salt",), field: "salt"}
        with pytest.raises(ValidationError, match=field):
            Recipe(0, "t", "X", **entities)
        with pytest.raises(ValidationError, match=field):
            Recipe.from_dict({"recipe_id": 0, "title": "t", "region": "X", **entities})

