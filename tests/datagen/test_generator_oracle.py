"""The generator's id form against the per-recipe oracle, recipe by recipe.

:class:`~repro.datagen.generator.SyntheticRecipeDBGenerator` draws each region
in one same-stream pass, decodes its fillers in numpy, and reruns a region by
the exact per-recipe path when a filler needed a second attempt.
:class:`tests.oracles.generator.NameDrawingGenerator` draws every recipe the
defining way.  The materialised recipes of ``generate()`` must equal the
oracle's for three inputs:

* the default profiles, where no region needs the fallback;
* profiles with unnormalised and colliding signature names;
* ``zipf_exponent=3.0``, where every region takes the fallback.
"""

from __future__ import annotations

import pytest

from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
from tests.oracles.generator import UNNORMALISED_PROFILES, NameDrawingGenerator

CASES = {
    "default-profiles": (GeneratorConfig(seed=17, scale=0.01), None, 0),
    "unnormalised-signatures": (GeneratorConfig(seed=17, scale=0.01), UNNORMALISED_PROFILES, 0),
    "zipf-3-fallback": (GeneratorConfig(seed=11, scale=0.01, zipf_exponent=3.0), None, 26),
}


@pytest.fixture
def exact_regions(monkeypatch):
    """Count the regions drawn by the per-recipe fallback."""
    calls = []
    original = SyntheticRecipeDBGenerator._exact_region

    def counting(self, count, tables):
        calls.append(count)
        return original(self, count, tables)

    monkeypatch.setattr(SyntheticRecipeDBGenerator, "_exact_region", counting)
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_generate_matches_per_recipe_oracle(case, exact_regions):
    config, profiles, fallbacks = CASES[case]
    database = SyntheticRecipeDBGenerator(config, profiles).generate()
    assert len(exact_regions) == fallbacks
    expected = NameDrawingGenerator(config, profiles).recipes()
    recipes = database.recipes()
    assert len(recipes) == len(expected)
    for recipe, oracle in zip(recipes, expected):
        assert recipe == oracle
    if profiles is not None:
        assert any("soy sauce" in recipe.ingredients for recipe in recipes)
        assert {recipe.region for recipe in recipes} == {"Japanese", "Test Cuisine"}


@pytest.mark.parametrize("zipf_exponent", [0.35, 3.0], ids=["same-stream", "fallback"])
def test_generate_leaves_the_stream_where_the_oracle_does(zipf_exponent):
    """Both paths end at the per-recipe path's stream position."""
    config = GeneratorConfig(seed=3, scale=0.01, zipf_exponent=zipf_exponent)
    generator = SyntheticRecipeDBGenerator(config)
    generator.generate()
    oracle = NameDrawingGenerator(config)
    oracle.recipes()
    assert generator._rng.random(4).tolist() == oracle.rng.random(4).tolist()
