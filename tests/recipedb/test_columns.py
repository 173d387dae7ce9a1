"""The integer-id corpus form against the ``Recipe`` objects it stands for.

Every job that reads :class:`~repro.recipedb.columns.RecipeColumns` is checked
against the formulation over ``Recipe`` objects it replaced, on databases
drawn by Hypothesis (names shared between kinds, registered regions without
recipes, recipes inserted out of id order):

* the id form round-trips to the same recipes;
* the mining CSR equals ``CorpusMatrix.from_transactions`` over names;
* prevalence equals ``prevalence_from_transactions`` over frozensets;
* corpus and region statistics equal a walk over the recipes;
* the corpus JSON equals ``json.dumps`` of the recipe dictionaries;
* ``holds`` and ``item_rows`` equal a walk over the recipes, and
  ``kind_column`` orders each row and drops repeated pairs.

Then the columns-built database: the checks ``add_recipes`` runs, run over
the arrays, and mutation, which rebuilds the columns.  A database holds its
regions, its schema and the columns, and its reads keep nothing.  Last, a
loaded corpus: it goes through ``RecipeColumns.from_recipes`` once, keeps
no ``Recipe`` and analyses as the generated corpus it was saved from.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.authenticity.prevalence import prevalence_matrix
from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.datagen.generator import generate_corpus
from repro.errors import DuplicateRecordError, FeatureError, SchemaError, ValidationError
from repro.mining.shm import CorpusMatrix
from repro.recipedb.columns import KindColumn, RecipeColumns, kind_column
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.io_json import load_json, save_json
from repro.recipedb.models import EntityKind, Recipe, Region
from repro.recipedb.query import RecipeQuery
from repro.recipedb.schema import RecipeSchema
from repro.recipedb.stats import corpus_statistics, region_statistics
from repro.serve import codec
from tests.oracles.prevalence import prevalence_from_transactions

_REGIONS = ("East", "North", "West")
_INGREDIENTS = ("salt", "cream", "soy sauce", "olive oil", "Ünïcode leaf")
_PROCESSES = ("heat", "cream", "boil", "smoke")
_UTENSILS = ("pan", "smoke", "pot")

_recipes = st.lists(
    st.builds(
        lambda rid, region, ingredients, processes, utensils, source: Recipe(
            rid, f"dish {rid}", region, ingredients, processes, utensils, source
        ),
        st.integers(0, 40),
        st.sampled_from(_REGIONS[:2]),
        st.lists(st.sampled_from(_INGREDIENTS), min_size=1, max_size=4),
        st.lists(st.sampled_from(_PROCESSES), max_size=3),
        st.lists(st.sampled_from(_UTENSILS), max_size=2),
        st.sampled_from(["synthetic", "book"]),
    ),
    max_size=14,
    unique_by=lambda recipe: recipe.recipe_id,
)

_KIND_CHOICES = (
    (EntityKind.INGREDIENT,),
    (EntityKind.PROCESS, EntityKind.UTENSIL),
    None,
)


def _database(recipes) -> RecipeDatabase:
    database = RecipeDatabase()
    database.register_regions(_REGIONS)  # "West" never holds a recipe
    database.add_recipes(recipes)
    return database


def _statistics_by_walking(database: RecipeDatabase):
    """Corpus statistics the way they were computed over ``Recipe`` objects."""
    recipes = database.recipes()

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "n_recipes": len(recipes),
        "n_regions": len(database.region_names()),
        "n_unique_ingredients": len({n for r in recipes for n in r.ingredients}),
        "n_unique_processes": len({n for r in recipes for n in r.processes}),
        "n_unique_utensils": len({n for r in recipes for n in r.utensils}),
        "mean_ingredients_per_recipe": mean([r.n_ingredients for r in recipes]),
        "mean_processes_per_recipe": mean([r.n_processes for r in recipes]),
        "mean_utensils_per_recipe": mean([r.n_utensils for r in recipes]),
        "recipes_without_utensils": sum(1 for r in recipes if not r.has_utensils),
        "region_recipe_counts": {
            region: sum(1 for r in recipes if r.region == region)
            for region in database.region_names()
        },
    }


@settings(max_examples=120, deadline=None)
@given(_recipes)
def test_id_form_round_trips_to_the_recipes(recipes):
    database = _database(recipes)
    columns = database.columns
    assert columns.recipes() == database.recipes()
    assert [columns.recipe(row) for row in range(len(columns))] == database.recipes()


@settings(max_examples=120, deadline=None)
@given(_recipes)
def test_csr_equals_the_build_over_names(recipes):
    database = _database(recipes)
    built = CuisineClusteringPipeline().build_transactions(database)
    named = CorpusMatrix.from_transactions(
        {
            region: [
                (*r.ingredients, *r.processes, *r.utensils)
                for r in database.recipes_in_region(region)
            ]
            for region in database.region_names()
        }
    )
    assert built.items == named.items
    assert built.spans == named.spans
    assert np.array_equal(built.tids, named.tids) and built.tids.dtype == np.int32
    assert np.array_equal(built.offsets, named.offsets) and built.offsets.dtype == np.int64


@settings(max_examples=120, deadline=None)
@given(_recipes, st.sampled_from(_KIND_CHOICES), st.integers(1, 3))
def test_prevalence_equals_the_count_over_frozensets(recipes, kinds, min_document_frequency):
    database = _database(recipes)

    def outcome(compute):
        try:
            matrix = compute()
        except FeatureError as exc:
            return str(exc)
        return matrix.cuisines, matrix.items, matrix.values.tolist()

    assert outcome(
        lambda: prevalence_matrix(
            database, kinds=kinds, min_document_frequency=min_document_frequency
        )
    ) == outcome(
        lambda: prevalence_from_transactions(
            database.transactions_by_region(kinds),
            min_document_frequency=min_document_frequency,
        )
    )


@settings(max_examples=120, deadline=None)
@given(_recipes)
def test_statistics_equal_a_walk_over_the_recipes(recipes):
    database = _database(recipes)
    measured = corpus_statistics(database).to_dict()
    measured.pop("utensil_sparsity")
    assert measured == _statistics_by_walking(database)
    for region in database.region_names():
        in_region = database.recipes_in_region(region)
        stats = region_statistics(database, region)
        assert stats.n_recipes == len(in_region)
        assert stats.n_unique_ingredients == len({n for r in in_region for n in r.ingredients})
        assert stats.n_unique_utensils == len({n for r in in_region for n in r.utensils})
        assert stats.recipes_without_utensils == sum(1 for r in in_region if not r.utensils)
        assert stats.mean_processes_per_recipe == (
            sum(r.n_processes for r in in_region) / len(in_region) if in_region else 0.0
        )


@settings(max_examples=120, deadline=None)
@given(recipes=_recipes)
def test_corpus_json_equals_dumping_the_dictionaries(tmp_path_factory, recipes):
    database = _database(recipes)
    path = save_json(database, tmp_path_factory.mktemp("json") / "corpus.json")
    payload = {
        "format_version": 1,
        "n_recipes": len(database),
        "regions": [
            {"name": region.name, "continent": region.continent}
            for region in database.regions()
        ],
        "recipes": database.to_dicts(),
    }
    assert path.read_text(encoding="utf-8") == json.dumps(payload)


@settings(max_examples=120, deadline=None)
@given(_recipes, st.sampled_from(_INGREDIENTS + _PROCESSES + _UTENSILS + ("unknown",)))
def test_holds_equals_a_walk_over_the_recipes(recipes, name):
    database = _database(recipes)
    held = database.columns.holds(name)
    assert held.dtype == bool
    assert held.tolist() == [name in recipe.items() for recipe in database.recipes()]


@settings(max_examples=120, deadline=None)
@given(_recipes, st.lists(st.sampled_from(_REGIONS), unique=True), st.sampled_from(_KIND_CHOICES))
def test_item_rows_keep_only_the_asked_regions(recipes, regions, kinds):
    database = _database(recipes)
    rows = database.columns.item_rows(regions, kinds)
    grouped = [
        (position, recipe.items(kinds))
        for position, region in enumerate(regions)
        for recipe in database.recipes()
        if recipe.region == region
    ]
    expected = [items for _position, items in grouped]
    assert rows.item_sets() == expected
    assert rows.items == tuple(sorted(set().union(*expected)))
    assert rows.region_sizes.tolist() == [
        sum(recipe.region == region for recipe in database.recipes()) for region in regions
    ]
    assert rows.region_of_ids().tolist() == [
        position for position, items in grouped for _item in items
    ]


def test_kind_column_orders_each_row_and_drops_repeats():
    names = ("cream", "heat", "salt")
    column = kind_column(np.array([2, 0, 2, 2, 0]), np.array([2, 1, 0, 2, 1]), names, 4)
    assert column.names == names
    assert column.rows() == [("heat",), (), ("cream", "salt"), ()]
    assert column.lengths().tolist() == [1, 0, 2, 0]
    assert column.ids.dtype == np.int32 and column.offsets.dtype == np.int64
    assert column.n_used() == 3


# -- a database built from columns ---------------------------------------------------


def _columns(*recipes: Recipe) -> RecipeColumns:
    return RecipeColumns.from_recipes(recipes)


_RECIPE = Recipe(0, "dish", "East", ("salt", "cream"), ("heat",), ("pan",))


def test_from_columns_builds_no_recipe_until_asked():
    database = RecipeDatabase.from_columns(
        _columns(_RECIPE, replace(_RECIPE, recipe_id=3)), _REGIONS
    )
    assert len(database) == 2 and database.recipe_ids() == [0, 3]
    assert database.region_recipe_counts() == {"East": 2, "North": 0, "West": 0}
    assert database.get(3) == replace(_RECIPE, recipe_id=3)


def test_from_columns_rejects_what_add_recipes_rejects():
    many = tuple(f"step {index}" for index in range(161))
    cases = [
        (replace(_RECIPE, region="Atlantis"), "unregistered region"),
        (replace(_RECIPE, title="x" * 301), "title: longer than 300"),
        (replace(_RECIPE, processes=many), "processes: 161 entries exceed limit 160"),
    ]
    for recipe, message in cases:
        with pytest.raises(SchemaError, match=message):
            RecipeDatabase.from_columns(_columns(recipe), _REGIONS)
        reference = RecipeDatabase()
        reference.register_regions(_REGIONS)
        with pytest.raises(SchemaError, match=message):
            reference.add_recipe(recipe)

    repeated = _columns(_RECIPE)
    repeated = RecipeColumns(
        np.array([0, 0]),
        ["a", "b"],
        repeated.regions,
        np.zeros(2, dtype=np.int32),
        repeated.sources,
        np.zeros(2, dtype=np.int32),
        tuple(
            KindColumn(
                kind.names,
                np.concatenate((kind.ids, kind.ids)),
                np.array([0, len(kind.ids), 2 * len(kind.ids)]),
            )
            for kind in repeated.kinds
        ),
    )
    with pytest.raises(DuplicateRecordError, match="recipe id 0 already exists"):
        RecipeDatabase.from_columns(repeated, _REGIONS)

    empty = _columns(_RECIPE)
    ingredients = empty.kinds[0]
    empty = RecipeColumns(
        empty.recipe_ids,
        empty.titles,
        empty.regions,
        empty.region_codes,
        empty.sources,
        empty.source_codes,
        (KindColumn(ingredients.names, ingredients.ids[:0], np.array([0, 0])), *empty.kinds[1:]),
    )
    with pytest.raises(ValidationError, match="has no ingredients"):
        RecipeDatabase.from_columns(empty, _REGIONS)


@settings(max_examples=80, deadline=None)
@given(_recipes, _recipes)
def test_mutating_a_columns_built_database_matches_a_recipe_built_one(first, more):
    ids = {recipe.recipe_id for recipe in first}
    more = [recipe for recipe in more if recipe.recipe_id not in ids]
    columns_built = RecipeDatabase.from_columns(
        RecipeColumns.from_recipes(sorted(first, key=lambda r: r.recipe_id)), _REGIONS
    )
    recipe_built = _database(sorted(first, key=lambda r: r.recipe_id))
    for database in (columns_built, recipe_built):
        database.add_recipes(more)
        if first:
            database.remove_recipe(first[0].recipe_id)
    assert columns_built.recipes() == recipe_built.recipes()
    assert columns_built.region_recipe_counts() == recipe_built.region_recipe_counts()
    assert columns_built.columns.recipes() == recipe_built.recipes()
    assert corpus_statistics(columns_built) == corpus_statistics(recipe_built)


def test_regions_registered_by_region_objects_keep_their_continent():
    regions = [Region("East", continent="Asia")]
    database = RecipeDatabase.from_columns(_columns(_RECIPE), regions)
    assert [region.continent for region in database.regions()] == ["Asia"]


def test_a_database_holds_its_regions_schema_and_columns_and_reads_keep_nothing(toy_db):
    columns = toy_db.columns
    assert toy_db.get(3).title == "spaghetti al pomodoro"
    assert len(toy_db.recipes_in_region("Japanese")) == 3
    assert len(toy_db.transactions_by_region()["UK"]) == 3
    assert toy_db.item_support("soy sauce", region="Japanese") == 1.0
    assert toy_db.ingredient_usage()["butter"] == 3
    assert len(toy_db.find(RecipeQuery().containing_all(["soy sauce"]))) == 3
    assert toy_db.columns is columns
    assert not hasattr(toy_db, "__dict__")
    assert {name: type(getattr(toy_db, name)) for name in RecipeDatabase.__slots__} == {
        "_schema": RecipeSchema,
        "_regions": dict,
        "_columns": RecipeColumns,
    }


# -- a loaded corpus -----------------------------------------------------------------


def _analysis_digest(corpus: RecipeDatabase, config: AnalysisConfig) -> str:
    results = CuisineClusteringPipeline(config).run(corpus)
    return hashlib.sha256(codec.dumps(codec.results_to_dict(results)).encode("utf-8")).hexdigest()


def test_a_loaded_corpus_keeps_no_recipe_and_analyses_like_the_generated_one(tmp_path):
    config = AnalysisConfig(scale=0.02)
    generated = generate_corpus(config.seed, config.scale)
    saved = save_json(generated, tmp_path / "generated.json")

    gc.collect()
    before = [obj for obj in gc.get_objects() if isinstance(obj, Recipe)]  # held: ids stay unique
    known = {id(obj) for obj in before}
    loaded = load_json(saved)
    gc.collect()
    alive = sum(isinstance(obj, Recipe) and id(obj) not in known for obj in gc.get_objects())

    resaved = save_json(loaded, tmp_path / "loaded.json")
    assert resaved.read_bytes() == saved.read_bytes()
    assert _analysis_digest(loaded, config) == _analysis_digest(generated, config)
    assert alive == 0
