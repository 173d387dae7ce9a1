"""Unit tests for the in-memory recipe database."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DuplicateRecordError,
    SchemaError,
    UnknownRecordError,
    ValidationError,
)
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind, Recipe, Region


class TestRegionManagement:
    def test_register_region_idempotent(self):
        db = RecipeDatabase()
        first = db.register_region(Region("Japanese", continent="Asia"))
        second = db.register_region("Japanese")
        assert first is second
        assert db.region_names() == ["Japanese"]
        assert db.has_region("Japanese")

    def test_register_regions_bulk(self):
        db = RecipeDatabase()
        db.register_regions(["A", "B", Region("C")])
        assert db.region_names() == ["A", "B", "C"]


class TestRecipeManagement:
    def test_add_and_get(self, toy_db):
        assert len(toy_db) == 9
        recipe = toy_db.get(0)
        assert recipe.region == "Japanese"
        assert 0 in toy_db
        assert toy_db.recipe_ids() == list(range(9))

    def test_duplicate_id_rejected(self, toy_db):
        with pytest.raises(DuplicateRecordError):
            toy_db.add_recipe(Recipe(0, "dup", "Japanese", ingredients=("x",)))

    def test_unregistered_region_rejected(self, toy_db):
        with pytest.raises(SchemaError):
            toy_db.add_recipe(Recipe(100, "new", "Atlantis", ingredients=("x",)))

    def test_unknown_get(self, toy_db):
        with pytest.raises(UnknownRecordError):
            toy_db.get(999)

    def test_remove_recipe_updates_indexes(self, toy_db):
        toy_db.remove_recipe(0)
        assert len(toy_db) == 8
        assert 0 not in toy_db
        assert toy_db.item_support("mirin", region="Japanese") == pytest.approx(0.5)

    def test_next_recipe_id(self, toy_db):
        assert toy_db.next_recipe_id() == 9
        assert RecipeDatabase().next_recipe_id() == 0

    def test_iteration_is_id_ordered(self, toy_db):
        ids = [recipe.recipe_id for recipe in toy_db]
        assert ids == sorted(ids)

    def test_remove_returns_the_stored_recipe(self, toy_db):
        stored = toy_db.get(4)
        assert toy_db.remove_recipe(4) == stored
        assert toy_db.recipe_ids() == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_remove_unknown_id_rejected_and_keeps_the_corpus(self, toy_db):
        with pytest.raises(UnknownRecordError, match="unknown recipe id: 99"):
            toy_db.remove_recipe(99)
        assert len(toy_db) == 9

    def test_removing_the_last_holder_drops_the_name(self, toy_db):
        toy_db.remove_recipe(8)  # the only recipe with bread crumbs
        assert "bread crumbs" not in toy_db.ingredient_usage()
        assert toy_db.item_support("bread crumbs") == 0.0
        assert "bread crumbs" not in toy_db.columns.kind(EntityKind.INGREDIENT).names
        assert toy_db.ingredient_usage()["butter"] == 2

    def test_a_removed_id_can_be_inserted_again(self, toy_db):
        toy_db.remove_recipe(3)
        toy_db.add_recipe(Recipe(3, "minestrone", "Italian", ingredients=("bean", "tomato")))
        assert toy_db.get(3).title == "minestrone"
        assert toy_db.recipe_ids() == list(range(9))

    def test_inserts_out_of_id_order_read_back_in_id_order(self):
        db = RecipeDatabase()
        db.register_region("East")
        db.add_recipe(Recipe(5, "late", "East", ingredients=("salt",)))
        db.add_recipes([Recipe(2, "early", "East", ingredients=("rice",))])
        assert db.recipe_ids() == [2, 5]
        assert [recipe.title for recipe in db] == ["early", "late"]
        assert db.get(5).ingredients == ("salt",)
        assert db.next_recipe_id() == 6

    def test_contains_takes_integer_ids_only(self, toy_db):
        assert np.int64(3) in toy_db
        assert toy_db.get(np.int64(3)).title == "spaghetti al pomodoro"
        assert "3" not in toy_db
        assert None not in toy_db
        assert -1 not in toy_db

    def test_a_failing_insert_keeps_the_recipes_before_it(self, toy_db):
        batch = [
            Recipe(9, "miso soup", "Japanese", ingredients=("miso",)),
            Recipe(9, "miso again", "Japanese", ingredients=("miso",)),
            Recipe(10, "never reached", "Japanese", ingredients=("miso",)),
        ]
        with pytest.raises(DuplicateRecordError, match="recipe id 9 already exists"):
            toy_db.add_recipes(batch)
        assert toy_db.recipe_ids() == list(range(10))
        assert toy_db.get(9).title == "miso soup"
        assert toy_db.ingredient_usage()["miso"] == 1

    def test_a_schema_violation_leaves_the_columns_alone(self, toy_db):
        columns = toy_db.columns
        with pytest.raises(SchemaError, match="title: longer than 300 characters"):
            toy_db.add_recipe(Recipe(9, "x" * 301, "Japanese", ingredients=("miso",)))
        assert toy_db.columns is columns
        assert len(toy_db) == 9


class TestRegionViews:
    def test_recipes_in_region(self, toy_db):
        japanese = toy_db.recipes_in_region("Japanese")
        assert len(japanese) == 3
        assert all(r.region == "Japanese" for r in japanese)

    def test_unknown_region_rejected(self, toy_db):
        with pytest.raises(ValidationError):
            toy_db.recipes_in_region("Atlantis")

    def test_region_recipe_counts(self, toy_db):
        assert toy_db.region_recipe_counts() == {"Italian": 3, "Japanese": 3, "UK": 3}

    def test_region_counts_include_empty_regions(self):
        db = RecipeDatabase()
        db.register_region("Empty")
        assert db.region_recipe_counts() == {"Empty": 0}

    def test_transactions_for_region(self, toy_db):
        transactions = toy_db.transactions_for_region("Japanese")
        assert len(transactions) == 3
        assert all("soy sauce" in t for t in transactions)
        ingredient_only = toy_db.transactions_for_region(
            "Japanese", kinds=[EntityKind.INGREDIENT]
        )
        assert all("heat" not in t for t in ingredient_only)

    def test_transactions_by_region(self, toy_db):
        grouped = toy_db.transactions_by_region()
        assert set(grouped) == {"Italian", "Japanese", "UK"}
        assert sum(len(v) for v in grouped.values()) == 9

    def test_region_counts_follow_inserts_and_removals(self, toy_db):
        toy_db.add_recipe(Recipe(9, "ramen", "Japanese", ingredients=("noodles", "soy sauce")))
        toy_db.remove_recipe(4)
        assert toy_db.region_recipe_counts() == {"Italian": 2, "Japanese": 4, "UK": 3}

    def test_an_emptied_region_stays_registered(self, toy_db):
        for recipe_id in (0, 1, 2):
            toy_db.remove_recipe(recipe_id)
        assert toy_db.region_names() == ["Italian", "Japanese", "UK"]
        assert toy_db.recipes_in_region("Japanese") == []
        assert toy_db.transactions_for_region("Japanese") == []
        assert toy_db.region_recipe_counts()["Japanese"] == 0
        assert toy_db.item_support("soy sauce", region="Japanese") == 0.0

    def test_transactions_for_unknown_region_rejected(self, toy_db):
        with pytest.raises(ValidationError, match="unknown region: 'Atlantis'"):
            toy_db.transactions_for_region("Atlantis")

    def test_transactions_by_region_lists_regions_without_recipes(self, toy_db):
        toy_db.register_region("Empty")
        grouped = toy_db.transactions_by_region()
        assert list(grouped) == ["Empty", "Italian", "Japanese", "UK"]
        assert grouped["Empty"] == []
        assert grouped["UK"] == toy_db.transactions_for_region("UK")

    def test_a_name_held_by_two_kinds_is_one_item(self):
        db = RecipeDatabase()
        db.register_region("East")
        db.add_recipe(
            Recipe(0, "smoked fish", "East", ("smoke", "fish"), ("smoke", "grill"), ("grill",))
        )
        assert db.transactions_for_region("East") == [frozenset({"smoke", "fish", "grill"})]
        processes = db.transactions_for_region("East", kinds=[EntityKind.PROCESS])
        assert processes == [frozenset({"smoke", "grill"})]

    def test_recipes_in_region_are_the_stored_recipes_in_id_order(self, toy_db):
        uk = toy_db.recipes_in_region("UK")
        assert [recipe.recipe_id for recipe in uk] == [6, 7, 8]
        assert uk == [toy_db.get(recipe_id) for recipe_id in (6, 7, 8)]


class TestSupports:
    def test_item_support_global_and_regional(self, toy_db):
        assert toy_db.item_support("soy sauce") == pytest.approx(3 / 9)
        assert toy_db.item_support("soy sauce", region="Japanese") == pytest.approx(1.0)
        assert toy_db.item_support("soy sauce", region="UK") == 0.0

    def test_itemset_support(self, toy_db):
        assert toy_db.itemset_support(["butter", "flour"], region="UK") == pytest.approx(2 / 3)
        assert toy_db.itemset_support(["butter", "flour"]) == pytest.approx(2 / 9)

    def test_ingredient_usage(self, toy_db):
        usage = toy_db.ingredient_usage()
        assert usage["soy sauce"] == 3
        assert usage["butter"] == 3

    def test_unknown_items_have_zero_support(self, toy_db):
        assert toy_db.item_support("unknown") == 0.0
        assert toy_db.itemset_support(["unknown"]) == 0.0
        assert toy_db.itemset_support(["soy sauce", "unknown"], region="Japanese") == 0.0

    def test_supports_over_no_recipes_are_zero(self):
        db = RecipeDatabase()
        assert db.item_support("salt") == 0.0
        db.register_region("Empty")
        assert db.item_support("salt", region="Empty") == 0.0
        assert db.itemset_support([], region="Empty") == 0.0

    def test_supports_count_processes_and_utensils(self, toy_db):
        assert toy_db.item_support("bake") == pytest.approx(2 / 9)
        assert toy_db.item_support("oven", region="UK") == pytest.approx(2 / 3)
        assert toy_db.itemset_support(["butter", "bake", "oven"]) == pytest.approx(2 / 9)
        assert toy_db.item_support("add") == pytest.approx(4 / 9)

    def test_the_empty_itemset_has_full_support(self, toy_db):
        assert toy_db.itemset_support([]) == 1.0
        assert toy_db.itemset_support([], region="UK") == 1.0

    def test_support_in_unknown_region_rejected(self, toy_db):
        with pytest.raises(ValidationError, match="unknown region"):
            toy_db.item_support("salt", region="Atlantis")

    def test_ingredient_usage_counts_ingredients_only(self, toy_db):
        usage = toy_db.ingredient_usage()
        assert list(usage) == sorted(usage)
        assert usage["white rice"] == 2
        assert "heat" not in usage and "oven" not in usage
        assert sum(usage.values()) == sum(recipe.n_ingredients for recipe in toy_db)
        assert RecipeDatabase().ingredient_usage() == {}

    def test_supports_follow_inserts_and_removals(self, toy_db):
        toy_db.add_recipe(Recipe(99, "extra", "Japanese", ("wasabi", "soy sauce")))
        assert toy_db.item_support("wasabi") == pytest.approx(1 / 10)
        assert toy_db.item_support("soy sauce", region="Japanese") == 1.0
        assert toy_db.ingredient_usage()["wasabi"] == 1
        toy_db.remove_recipe(99)
        assert toy_db.item_support("wasabi") == 0.0
        assert "wasabi" not in toy_db.ingredient_usage()


class TestFromRecipes:
    def test_auto_registers_regions(self, toy_recipes):
        db = RecipeDatabase.from_recipes(
            toy_recipes, region_metadata={"Japanese": "Asia"}
        )
        assert db.region_names() == ["Italian", "Japanese", "UK"]
        japanese = [r for r in db.regions() if r.name == "Japanese"][0]
        assert japanese.continent == "Asia"

    def test_explicit_region_list(self, toy_recipes):
        db = RecipeDatabase.from_recipes(toy_recipes, regions=["Japanese", "Italian", "UK"])
        assert len(db) == 9

    def test_regions_without_metadata_get_an_unknown_continent(self, toy_recipes):
        db = RecipeDatabase.from_recipes(toy_recipes, region_metadata={"UK": "Europe"})
        continents = {region.name: region.continent for region in db.regions()}
        assert continents == {"Italian": "unknown", "Japanese": "unknown", "UK": "Europe"}

    def test_consumes_a_one_shot_iterable(self, toy_recipes):
        db = RecipeDatabase.from_recipes(iter(toy_recipes), regions=["Korean"])
        assert db.recipe_ids() == list(range(9))
        assert db.region_recipe_counts() == {"Italian": 3, "Japanese": 3, "Korean": 0, "UK": 3}

    def test_a_repeated_id_is_rejected(self, toy_recipes):
        repeated = [*toy_recipes, Recipe(0, "again", "UK", ingredients=("salt",))]
        with pytest.raises(DuplicateRecordError, match="recipe id 0 already exists"):
            RecipeDatabase.from_recipes(repeated)

    def test_name_tables_track_inserts(self, toy_db):
        ingredients = toy_db.columns.kind(EntityKind.INGREDIENT).names
        processes = toy_db.columns.kind(EntityKind.PROCESS).names
        assert list(ingredients) == sorted(set(ingredients))
        assert "soy sauce" in ingredients and "heat" in processes
        toy_db.add_recipe(Recipe(9, "wasabi dip", "Japanese", ("Wasabi", "soy sauce"), ("mix",)))
        grown = toy_db.columns.kind(EntityKind.INGREDIENT).names
        assert set(grown) == set(ingredients) | {"wasabi"}
        assert list(grown) == sorted(grown)
        assert toy_db.columns.kind(EntityKind.PROCESS).names == processes
