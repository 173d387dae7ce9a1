"""Equivalence tests for the corpus stage's fast paths.

Each fast path is checked against the slower formulation it replaced, kept
here only as a test oracle:

* :func:`normalize_name` against the regex formulation, exhaustively over
  every code point and with Hypothesis over arbitrary text;
* :class:`Vocabulary`'s raw-first probes against normalise-first lookups,
  including unnormalised duplicates, non-strings and unhashable input;
* :class:`RecipeDatabase`'s lazily built inverted indexes against indexes
  maintained eagerly on every add and remove, wherever the first query
  falls in the sequence;
* the analysis pipeline never materialising those indexes at all;
* the generator's recipe view against validating it through
  ``Recipe(...)``;
* bulk vocabulary observation in ``add_recipes`` against observing one
  recipe at a time, including after a failing insert;
* ``prevalence_matrix``'s count over the generated corpus's id form against
  ``prevalence_from_transactions`` over the frozenset transactions.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.authenticity.prevalence import prevalence_from_transactions, prevalence_matrix
from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
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
from repro.recipedb.index import InvertedIndex, build_entity_indexes
from repro.recipedb.models import EntityKind, Recipe, normalize_name
from repro.recipedb.query import RecipeQuery
from repro.recipedb.vocabulary import Vocabulary
from tests.oracles.generator import UNNORMALISED_PROFILES

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


# -- Vocabulary ------------------------------------------------------------------------


class _NormaliseFirstVocabulary:
    """The lookup semantics before the raw-first probe: normalise, then probe."""

    def __init__(self) -> None:
        self.name_to_id: dict[str, int] = {}
        self.names: list[str] = []

    def add(self, name) -> int:
        normalised = normalize_name(name)
        if normalised not in self.name_to_id:
            self.name_to_id[normalised] = len(self.names)
            self.names.append(normalised)
        return self.name_to_id[normalised]

    def id_of(self, name) -> int:
        try:
            return self.name_to_id[normalize_name(name)]
        except KeyError as exc:
            raise ValidationError(f"unknown vocabulary entry: {name!r}") from exc

    def get(self, name, default=None):
        try:
            return self.name_to_id[normalize_name(name)]
        except (KeyError, ValidationError):
            return default

    def contains(self, name) -> bool:
        if not isinstance(name, str):
            return False
        try:
            return normalize_name(name) in self.name_to_id
        except ValidationError:
            return False


class _UnhashableStr(str):
    """A str subclass that cannot be hashed: must never reach a dict probe."""

    __hash__ = None  # type: ignore[assignment]


_vocabulary_inputs = st.one_of(
    st.sampled_from(
        ["soy sauce", "Soy Sauce", " soy  sauce ", "SOY\tSAUCE", "salt", "Salt\n", "", "  "]
    ),
    st.text(alphabet="aB \t  ", max_size=6),
    st.builds(_UnhashableStr, st.sampled_from(["salt", " Salt", "pepper", ""])),
    st.integers(),
    st.none(),
    st.binary(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)

_vocabulary_ops = st.lists(
    st.tuples(st.sampled_from(["add", "id_of", "get", "contains"]), _vocabulary_inputs),
    max_size=40,
)


def _call(method, *args):
    try:
        return method(*args)
    except ValidationError:
        return ValidationError


@given(_vocabulary_ops)
def test_vocabulary_raw_first_probe_matches_normalise_first(ops):
    vocab, reference = Vocabulary(), _NormaliseFirstVocabulary()
    for op, name in ops:
        if op == "add":
            assert _call(vocab.add, name) == _call(reference.add, name)
        elif op == "id_of":
            assert _call(vocab.id_of, name) == _call(reference.id_of, name)
        elif op == "get":
            assert vocab.get(name, -1) == reference.get(name, -1)
        else:
            assert (name in vocab) == reference.contains(name)
    assert list(vocab) == reference.names


def test_vocabulary_unhashable_input_is_a_validation_error():
    vocab = Vocabulary(["salt"])
    for name in ([1], {"a": 1}, _UnhashableStr(" SALT ")):
        assert vocab.get(name, -1) == (0 if isinstance(name, str) else -1)
        assert (name in vocab) is isinstance(name, str)
    with pytest.raises(ValidationError):
        vocab.add([1])  # type: ignore[arg-type]
    with pytest.raises(ValidationError):
        vocab.id_of({"a": 1})  # type: ignore[arg-type]
    assert vocab.add(_UnhashableStr("Pepper")) == 1
    assert vocab.id_of(_UnhashableStr(" pepper ")) == 1


# -- lazily built inverted indexes ------------------------------------------------------

_REGIONS = ("East", "West")
_INGREDIENTS = ("salt", "soy sauce", "olive oil", "tomato", "smoke")
_PROCESSES = ("heat", "boil", "smoke")
_UTENSILS = ("pan", "pot")
_UNIVERSE = sorted({*_INGREDIENTS, *_PROCESSES, *_UTENSILS, "unknown"})
_QUERIES = (
    "item_support",
    "itemset_support",
    "ingredient_usage",
    "entity_index",
    "combined_index",
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


class _EagerReference:
    """Recipes plus inverted indexes maintained eagerly on every mutation."""

    def __init__(self) -> None:
        self.recipes: dict[int, Recipe] = {}
        self.indexes: dict[object, InvertedIndex] = {
            **{kind: InvertedIndex() for kind in EntityKind},
            "combined": InvertedIndex(),
        }

    def add(self, recipe: Recipe) -> None:
        self.recipes[recipe.recipe_id] = recipe
        for kind in EntityKind:
            self.indexes[kind].add(recipe.recipe_id, recipe.entities_of(kind))
        self.indexes["combined"].add(recipe.recipe_id, recipe.items())

    def remove(self, recipe_id: int) -> None:
        recipe = self.recipes.pop(recipe_id)
        for kind in EntityKind:
            self.indexes[kind].remove(recipe_id, recipe.entities_of(kind))
        self.indexes["combined"].remove(recipe_id, recipe.items())

    def matching_ids(self, keep) -> list[int]:
        return sorted(rid for rid, recipe in self.recipes.items() if keep(recipe))


def _index_view(index: InvertedIndex) -> dict[str, object]:
    return {
        "items": sorted(index.items()),
        "postings": {item: index.postings(item) for item in _UNIVERSE},
        "frequencies": {item: index.document_frequency(item) for item in _UNIVERSE},
        "ids": index.indexed_ids,
        "size": len(index),
        "top": index.top_items(3),
    }


def _run_query(database: RecipeDatabase, name: str) -> object:
    """One query of the lazily indexed surface, run as a possible first use."""
    if name == "item_support":
        return database.item_support("salt")
    if name == "itemset_support":
        return database.itemset_support(["salt", "heat"], region="East")
    if name == "ingredient_usage":
        return database.ingredient_usage()
    if name == "entity_index":
        return _index_view(database.entity_index(EntityKind.PROCESS))
    if name == "combined_index":
        return _index_view(database.combined_index)
    return database.find(RecipeQuery().containing_all(["smoke"])).ids()


def _assert_matches(database: RecipeDatabase, reference: _EagerReference) -> None:
    for kind in EntityKind:
        assert _index_view(database.entity_index(kind)) == _index_view(reference.indexes[kind])
    assert _index_view(database.combined_index) == _index_view(reference.indexes["combined"])
    rebuilt = build_entity_indexes(reference.recipes)
    assert _index_view(database.combined_index) == _index_view(rebuilt["combined"])

    combined = reference.indexes["combined"]
    ingredients = reference.indexes[EntityKind.INGREDIENT]
    assert database.ingredient_usage() == {
        item: ingredients.document_frequency(item) for item in sorted(ingredients.items())
    }
    for item in _UNIVERSE:
        assert database.item_support(item) == combined.support(item)
        assert database.itemset_support([item, "salt"]) == combined.itemset_support(
            [item, "salt"]
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
def test_lazy_indexes_match_eager_reference(ops):
    database, reference = RecipeDatabase(), _EagerReference()
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


def test_index_handles_stay_live_after_first_use(toy_db):
    index = toy_db.combined_index
    assert toy_db.combined_index is index
    toy_db.add_recipe(Recipe(99, "extra", "Japanese", ("wasabi", "soy sauce")))
    assert index.postings("wasabi") == {99}
    toy_db.remove_recipe(99)
    assert "wasabi" not in index


def test_pipeline_run_leaves_indexes_unbuilt():
    corpus = generate_corpus(seed=5, scale=0.01)
    CuisineClusteringPipeline(AnalysisConfig(seed=5, scale=0.01)).run(corpus)
    assert corpus._indexes is None
    assert corpus.item_support("soy sauce") > 0.0  # first use builds them
    assert corpus._indexes is not None


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


# -- bulk vocabulary observation -----------------------------------------------------


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
            # One-at-a-time inserts first, so the bulk path extends
            # vocabularies that already hold names.
            for recipe in recipes[:split]:
                database.add_recipe(recipe)
            insert_rest(database, recipes[split:])
        except DuplicateRecordError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    assert bulk.recipe_ids() == loop.recipe_ids()
    assert bulk.vocabularies == loop.vocabularies
    for kind in ("ingredients", "processes", "utensils", "combined"):
        assert list(getattr(bulk.vocabularies, kind)) == list(getattr(loop.vocabularies, kind))


def test_bulk_add_returns_the_inserted_count():
    database = RecipeDatabase()
    database.register_regions(_REGIONS)
    recipes = [Recipe(rid, f"dish {rid}", "East", ("salt",)) for rid in range(3)]
    assert database.add_recipes(recipes) == 3
    assert list(database.vocabularies.combined) == ["salt"]


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
