"""Unit tests for the recipe query builder."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind, Recipe
from repro.recipedb.query import RecipeQuery


class TestBuilderValidation:
    def test_in_region_requires_argument(self):
        with pytest.raises(QueryError):
            RecipeQuery().in_region()

    def test_containing_all_requires_items(self):
        with pytest.raises(QueryError):
            RecipeQuery().containing_all([])

    def test_limit_must_be_positive(self):
        with pytest.raises(QueryError):
            RecipeQuery().limit(0)

    def test_ingredient_count_bounds_validated(self):
        with pytest.raises(QueryError):
            RecipeQuery().with_ingredient_count(minimum=5, maximum=2)
        with pytest.raises(QueryError):
            RecipeQuery().with_ingredient_count(minimum=-1)

    @pytest.mark.parametrize("step", ["containing_any", "excluding"])
    def test_item_steps_require_items(self, step):
        with pytest.raises(QueryError, match=f"{step} requires at least one item"):
            getattr(RecipeQuery(), step)([])

    def test_from_source_requires_argument(self):
        with pytest.raises(QueryError, match="from_source requires at least one source"):
            RecipeQuery().from_source()

    def test_builder_is_immutable(self):
        base = RecipeQuery()
        refined = base.in_region("Japanese")
        assert base is not refined
        assert base._regions == ()


class TestExecution:
    def test_region_filter(self, toy_db):
        result = RecipeQuery().in_region("Japanese").execute(toy_db)
        assert len(result) == 3
        assert result.regions() == ["Japanese"]

    def test_multiple_regions(self, toy_db):
        result = RecipeQuery().in_region("Japanese", "UK").execute(toy_db)
        assert len(result) == 6

    def test_containing_all(self, toy_db):
        result = RecipeQuery().containing_all(["butter", "flour"]).execute(toy_db)
        assert len(result) == 2
        assert all("butter" in r.ingredients for r in result)

    def test_containing_any(self, toy_db):
        result = RecipeQuery().containing_any(["mirin", "basil"]).execute(toy_db)
        assert len(result) == 3

    def test_excluding(self, toy_db):
        result = RecipeQuery().in_region("Japanese").excluding(["mirin"]).execute(toy_db)
        assert len(result) == 1
        assert result[0].title == "soy rice bowl"

    def test_ingredient_count_filter(self, toy_db):
        result = RecipeQuery().with_ingredient_count(minimum=4).execute(toy_db)
        assert all(r.n_ingredients >= 4 for r in result)
        assert len(result) == 2

    def test_utensil_data_filter(self, toy_db):
        with_utensils = RecipeQuery().with_utensil_data(True).execute(toy_db)
        without = RecipeQuery().with_utensil_data(False).execute(toy_db)
        assert len(with_utensils) + len(without) == len(toy_db.recipes())
        assert all(r.has_utensils for r in with_utensils)

    def test_source_filter(self, toy_db):
        assert len(RecipeQuery().from_source("synthetic").execute(toy_db)) == 9
        assert len(RecipeQuery().from_source("other").execute(toy_db)) == 0

    def test_custom_predicate(self, toy_db):
        result = RecipeQuery().where(lambda r: "sugar" in r.ingredients).execute(toy_db)
        assert {r.title for r in result} == {"victoria sponge", "shortbread"}

    def test_limit(self, toy_db):
        result = RecipeQuery().limit(4).execute(toy_db)
        assert len(result) == 4
        assert result.ids() == [0, 1, 2, 3]

    def test_count(self, toy_db):
        assert RecipeQuery().in_region("Italian").count(toy_db) == 3

    def test_combined_filters(self, toy_db):
        query = (
            RecipeQuery()
            .in_region("UK")
            .containing_all(["butter"])
            .excluding(["bread crumbs"])
        )
        result = query.execute(toy_db)
        assert {r.title for r in result} == {"victoria sponge", "shortbread"}

    def test_result_transactions(self, toy_db):
        result = RecipeQuery().in_region("Japanese").execute(toy_db)
        transactions = result.transactions(kinds=[EntityKind.INGREDIENT])
        assert len(transactions) == 3
        assert all("heat" not in t for t in transactions)

    def test_database_query_helpers(self, toy_db):
        query = toy_db.query().in_region("Italian")
        assert len(toy_db.find(query)) == 3

    def test_excluding_alone(self, toy_db):
        result = RecipeQuery().excluding(["soy sauce", "butter"]).execute(toy_db)
        assert result.ids() == [3, 4, 5]

    def test_containment_matches_every_entity_kind(self, toy_db):
        assert RecipeQuery().containing_all(["bake"]).execute(toy_db).ids() == [6, 7]
        assert RecipeQuery().containing_all(["oven", "egg"]).execute(toy_db).ids() == [6]
        assert RecipeQuery().containing_any(["pot", "pan"]).execute(toy_db).ids() == [1, 3]
        assert RecipeQuery().excluding(["toast"]).in_region("UK").execute(toy_db).ids() == [6, 7]

    def test_unknown_items_match_nothing(self, toy_db):
        assert len(RecipeQuery().containing_all(["unknown"]).execute(toy_db)) == 0
        assert RecipeQuery().containing_any(["unknown", "mirin"]).execute(toy_db).ids() == [0, 1]
        assert len(RecipeQuery().excluding(["unknown"]).execute(toy_db)) == 9

    def test_item_names_are_normalised(self, toy_db):
        result = RecipeQuery().containing_all(["  Soy\tSAUCE "]).execute(toy_db)
        assert result.ids() == [0, 1, 2]

    def test_unknown_region_matches_nothing(self, toy_db):
        assert len(RecipeQuery().in_region("Atlantis").execute(toy_db)) == 0

    def test_query_sees_inserts_and_removals(self, toy_db):
        query = RecipeQuery().containing_all(["mirin"])
        assert query.execute(toy_db).ids() == [0, 1]
        toy_db.add_recipe(Recipe(9, "mirin glaze", "Japanese", ingredients=("mirin", "sugar")))
        toy_db.remove_recipe(0)
        assert query.execute(toy_db).ids() == [1, 9]

    def test_empty_database_matches_nothing(self):
        database = RecipeDatabase()
        assert len(RecipeQuery().execute(database)) == 0
        assert RecipeQuery().containing_all(["salt"]).count(database) == 0

    def test_limit_counts_recipes_that_pass_every_filter(self, toy_db):
        query = RecipeQuery().where(lambda r: r.n_ingredients == 3).limit(2)
        assert query.execute(toy_db).ids() == [0, 1]
        assert query.excluding(["mirin"]).execute(toy_db).ids() == [2, 4]
