"""Equivalence tests for the corpus stage's fast paths.

Each fast path is checked against the slower formulation it replaced, kept
here only as a test oracle:

* :func:`normalize_name` against the regex formulation, exhaustively over
  every code point and with Hypothesis over arbitrary text;
* :class:`RecipeDatabase`'s supports and queries, computed from its id form
  on every call, against a walk over the recipes, through any sequence of
  adds and removes;
* the generator's recipe view against validating it through
  ``Recipe(...)``;
* a bulk ``add_recipes`` against inserting one recipe at a time, including
  after a failing insert;
* ``prevalence_matrix``'s count over the generated corpus's id form against
  ``prevalence_from_transactions`` over the frozenset transactions.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.authenticity.prevalence import prevalence_matrix
from repro.datagen.generator import (
    GeneratorConfig,
    SyntheticRecipeDBGenerator,
    _WeightedPool,
    generate_corpus,
)
from repro.errors import (
    DuplicateRecordError,
    GenerationError,
    UnknownRecordError,
    ValidationError,
)
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind, Recipe, normalize_name
from repro.recipedb.query import RecipeQuery
from tests.oracles.generator import UNNORMALISED_PROFILES
from tests.oracles.prevalence import prevalence_from_transactions

# -- normalize_name ------------------------------------------------------------------

_ORACLE_WHITESPACE = re.compile(r"\s+")


def _oracle_normalize(name: str) -> str:
    """The regex formulation ``normalize_name`` used before its fast path."""
    if not isinstance(name, str):
        raise ValidationError("name must be a string")
    normalised = _ORACLE_WHITESPACE.sub(" ", name.strip().lower())
    if not normalised:
        raise ValidationError("name must not be empty")
    return normalised


def _outcome(normalise, name):
    """The normalised name, or the exception type the call raised."""
    try:
        return normalise(name)
    except ValidationError:
        return ValidationError


@pytest.mark.parametrize("template", ["{}", "  {}  ", "a{}b"], ids=["alone", "padded", "inner"])
def test_normalize_name_matches_regex_on_every_code_point(template):
    names = (template.format(chr(code_point)) for code_point in range(0x110000))
    mismatches = [
        name
        for name in names
        if _outcome(normalize_name, name) != _outcome(_oracle_normalize, name)
    ]
    assert mismatches == []


@given(st.text())
def test_normalize_name_matches_regex_on_text(name):
    assert _outcome(normalize_name, name) == _outcome(_oracle_normalize, name)


# -- supports and queries over the id form ------------------------------------------------

_REGIONS = ("East", "West")
_INGREDIENTS = ("salt", "soy sauce", "olive oil", "tomato", "smoke")
_PROCESSES = ("heat", "boil", "smoke")
_UTENSILS = ("pan", "pot")
_UNIVERSE = sorted({*_INGREDIENTS, *_PROCESSES, *_UTENSILS, "unknown"})
_QUERIES = (
    "item_support",
    "itemset_support",
    "ingredient_usage",
    "recipe_query",
)

_add = st.builds(
    lambda rid, region, ingredients, processes, utensils: (
        "add",
        Recipe(rid, f"dish {rid}", region, ingredients, processes, utensils),
    ),
    st.integers(0, 7),
    st.sampled_from(_REGIONS),
    st.lists(st.sampled_from(_INGREDIENTS), min_size=1, max_size=4),
    st.lists(st.sampled_from(_PROCESSES), max_size=3),
    st.lists(st.sampled_from(_UTENSILS), max_size=2),
)
_remove = st.tuples(st.just("remove"), st.integers(0, 7))
_query = st.tuples(st.just("query"), st.sampled_from(_QUERIES))
_index_ops = st.lists(st.one_of(_add, _remove, _query), max_size=30)


class _WalkReference:
    """The recipes by id; every expected value is a walk over them."""

    def __init__(self) -> None:
        self.recipes: dict[int, Recipe] = {}

    def add(self, recipe: Recipe) -> None:
        self.recipes[recipe.recipe_id] = recipe

    def remove(self, recipe_id: int) -> None:
        del self.recipes[recipe_id]

    def matching_ids(self, keep) -> list[int]:
        return sorted(rid for rid, recipe in self.recipes.items() if keep(recipe))

    def support(self, keep) -> float:
        return len(self.matching_ids(keep)) / len(self.recipes) if self.recipes else 0.0


def _run_query(database: RecipeDatabase, name: str) -> object:
    """One call of the supports and query surface, run between mutations."""
    if name == "item_support":
        return database.item_support("salt")
    if name == "itemset_support":
        return database.itemset_support(["salt", "heat"], region="East")
    if name == "ingredient_usage":
        return database.ingredient_usage()
    return database.find(RecipeQuery().containing_all(["smoke"])).ids()


def _assert_matches(database: RecipeDatabase, reference: _WalkReference) -> None:
    usage = Counter(name for r in reference.recipes.values() for name in r.ingredients)
    assert database.ingredient_usage() == dict(sorted(usage.items()))
    for item in _UNIVERSE:
        assert database.item_support(item) == reference.support(
            lambda r, item=item: item in r.items()
        )
        assert database.itemset_support([item, "salt"]) == reference.support(
            lambda r, item=item: {item, "salt"} <= r.items()
        )
        for region in _REGIONS:
            in_region = reference.matching_ids(lambda r, region=region: r.region == region)
            with_item = reference.matching_ids(
                lambda r, region=region, item=item: r.region == region and item in r.items()
            )
            expected = len(with_item) / len(in_region) if in_region else 0.0
            assert database.item_support(item, region=region) == expected

        for query, keep in (
            (RecipeQuery().containing_all([item]), lambda r, item=item: item in r.items()),
            (
                RecipeQuery().containing_any([item, "pan"]),
                lambda r, item=item: bool({item, "pan"} & r.items()),
            ),
            (
                RecipeQuery().in_region("West").containing_all([item, "heat"]),
                lambda r, item=item: r.region == "West" and {item, "heat"} <= r.items(),
            ),
            (
                RecipeQuery().containing_any(["salt"]).excluding([item]),
                lambda r, item=item: "salt" in r.items() and item not in r.items(),
            ),
        ):
            assert database.find(query).ids() == reference.matching_ids(keep)


@settings(max_examples=150, deadline=None)
@given(_index_ops)
def test_queries_match_a_walk_over_the_recipes(ops):
    database, reference = RecipeDatabase(), _WalkReference()
    database.register_regions(_REGIONS)
    for op, argument in ops:
        if op == "add":
            if argument.recipe_id in reference.recipes:
                with pytest.raises(DuplicateRecordError):
                    database.add_recipe(argument)
            else:
                database.add_recipe(argument)
                reference.add(argument)
        elif op == "remove":
            if argument in reference.recipes:
                assert database.remove_recipe(argument) == reference.recipes[argument]
                reference.remove(argument)
            else:
                with pytest.raises(UnknownRecordError):
                    database.remove_recipe(argument)
        else:
            assert _run_query(database, argument) is not None
            _assert_matches(database, reference)
    _assert_matches(database, reference)


# -- generator id form -----------------------------------------------------------


@pytest.mark.parametrize(
    "profiles",
    [None, UNNORMALISED_PROFILES],
    ids=["default-profiles", "unnormalised-signatures"],
)
def test_generator_recipes_match_validating_construction(profiles):
    """The generator's recipe view holds exactly what ``Recipe(...)`` stores.

    The view is built by ``Recipe.from_normalised``, which skips validation;
    re-validating each recipe must change nothing.  Equality with the
    per-recipe oracle is ``tests/datagen/test_generator_oracle.py``.
    """
    database = SyntheticRecipeDBGenerator(GeneratorConfig(seed=17, scale=0.01), profiles).generate()
    recipes = database.recipes()
    for recipe in recipes:
        validated = Recipe(
            recipe.recipe_id,
            recipe.title,
            recipe.region,
            recipe.ingredients,
            recipe.processes,
            recipe.utensils,
            recipe.source,
        )
        assert validated == recipe
    if profiles is not None:
        assert any("soy sauce" in recipe.ingredients for recipe in recipes)
        assert {recipe.region for recipe in recipes} == {"Japanese", "Test Cuisine"}


def test_generator_pool_rejects_repeated_names():
    with pytest.raises(GenerationError):
        _WeightedPool(["salt", "pepper", "salt"], 0.35)


# -- bulk inserts -----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(_add, max_size=12), st.integers(0, 12))
def test_bulk_add_observes_like_a_loop(adds, split):
    recipes = [recipe for _op, recipe in adds]
    bulk, loop = RecipeDatabase(), RecipeDatabase()
    outcomes = []
    for database, insert_rest in (
        (bulk, lambda db, rest: db.add_recipes(rest)),
        (loop, lambda db, rest: [db.add_recipe(recipe) for recipe in rest]),
    ):
        database.register_regions(_REGIONS)
        try:
            # One-at-a-time inserts first, so the bulk path extends a
            # corpus that already holds recipes.
            for recipe in recipes[:split]:
                database.add_recipe(recipe)
            insert_rest(database, recipes[split:])
        except DuplicateRecordError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    assert bulk.recipe_ids() == loop.recipe_ids()


def test_bulk_add_returns_the_inserted_count():
    database = RecipeDatabase()
    database.register_regions(_REGIONS)
    recipes = [Recipe(rid, f"dish {rid}", "East", ("salt",)) for rid in range(3)]
    assert database.add_recipes(recipes) == 3


# -- prevalence ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kinds",
    [(EntityKind.INGREDIENT,), (EntityKind.INGREDIENT, EntityKind.PROCESS), None],
    ids=["one-kind", "two-kinds", "all-kinds"],
)
@pytest.mark.parametrize("min_document_frequency", [1, 4])
def test_prevalence_matrix_matches_transactions(kinds, min_document_frequency):
    corpus = generate_corpus(seed=5, scale=0.01)
    fast = prevalence_matrix(
        corpus, kinds=kinds, min_document_frequency=min_document_frequency
    )
    slow = prevalence_from_transactions(
        corpus.transactions_by_region(kinds),
        min_document_frequency=min_document_frequency,
    )
    assert fast.cuisines == slow.cuisines
    assert fast.items == slow.items
    assert np.array_equal(fast.values, slow.values)
