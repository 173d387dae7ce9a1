"""Shared fixtures for the test suite.

Three corpora at different sizes back the tests:

* ``toy_db`` -- a hand-written 3-cuisine database with known patterns, used by
  the unit tests that need exact, human-checkable numbers;
* ``mini_corpus`` -- a generated corpus restricted to six culinarily distinct
  cuisines at a small scale (fast, still realistic);
* ``full_corpus`` -- the full 26-cuisine synthetic corpus at a small scale,
  session-scoped because generation plus mining takes a couple of seconds.
"""

from __future__ import annotations

import pytest

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
from repro.datagen.profiles import default_profiles
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import Recipe, Region


MINI_REGIONS = (
    "Japanese",
    "Korean",
    "Italian",
    "Greek",
    "Mexican",
    "UK",
)


def _toy_recipes() -> list[Recipe]:
    """Nine recipes over three cuisines with fully predictable supports."""
    rows = [
        # Japanese: soy sauce in 3/3, mirin in 2/3.
        (0, "teriyaki chicken", "Japanese",
         ("soy sauce", "mirin", "chicken"), ("heat", "add"), ("saucepan",)),
        (1, "salmon glaze", "Japanese",
         ("soy sauce", "mirin", "salmon"), ("heat", "simmer"), ("pan",)),
        (2, "soy rice bowl", "Japanese",
         ("soy sauce", "white rice", "green onion"), ("boil", "add"), ()),
        # Italian: olive oil in 3/3, parmesan in 2/3.
        (3, "spaghetti al pomodoro", "Italian",
         ("olive oil", "tomato", "pasta", "parmesan cheese"), ("boil", "add"), ("pot",)),
        (4, "bruschetta", "Italian",
         ("olive oil", "tomato", "basil"), ("toast", "chop"), ()),
        (5, "risotto", "Italian",
         ("olive oil", "parmesan cheese", "white rice"), ("stir", "add"), ("saucepan",)),
        # UK: butter in 3/3, flour in 2/3.
        (6, "victoria sponge", "UK",
         ("butter", "flour", "sugar", "egg"), ("bake", "mix"), ("oven", "bowl")),
        (7, "shortbread", "UK",
         ("butter", "flour", "sugar"), ("bake", "mix"), ("oven",)),
        (8, "buttered toast", "UK",
         ("butter", "bread crumbs"), ("toast",), ()),
    ]
    return [
        Recipe(recipe_id=rid, title=title, region=region,
               ingredients=ing, processes=proc, utensils=uten)
        for rid, title, region, ing, proc, uten in rows
    ]


@pytest.fixture()
def toy_recipes() -> list[Recipe]:
    return _toy_recipes()


@pytest.fixture()
def toy_db(toy_recipes: list[Recipe]) -> RecipeDatabase:
    database = RecipeDatabase()
    database.register_regions(
        [Region("Japanese", continent="Asia"),
         Region("Italian", continent="Europe"),
         Region("UK", continent="Europe")]
    )
    database.add_recipes(toy_recipes)
    return database


@pytest.fixture(scope="session")
def mini_corpus() -> RecipeDatabase:
    profiles = {name: p for name, p in default_profiles().items() if name in MINI_REGIONS}
    generator = SyntheticRecipeDBGenerator(
        GeneratorConfig(seed=7, scale=0.02), profiles=profiles
    )
    return generator.generate()


@pytest.fixture(scope="session")
def full_corpus() -> RecipeDatabase:
    generator = SyntheticRecipeDBGenerator(GeneratorConfig(seed=2020, scale=0.02))
    return generator.generate()


@pytest.fixture(scope="session")
def full_results(full_corpus: RecipeDatabase):
    """Full pipeline results over the session corpus (computed once)."""
    config = AnalysisConfig(seed=2020, scale=0.02, elbow_k_max=10)
    return CuisineClusteringPipeline(config).run(full_corpus)
