#!/usr/bin/env python3
"""Working with the RecipeDB substrate directly: build, query, persist.

The analysis layers sit on an in-memory recipe store (:mod:`repro.recipedb`)
that holds its corpus as integer ids.  This example shows the substrate on
its own, without the synthetic generator:

1. register cuisines and insert hand-written recipes in one batch (each
   insert rebuilds the id form, so a corpus goes in with one
   ``add_recipes`` call);
2. run queries through the composable :class:`RecipeQuery` builder;
3. inspect item supports, counted over the id form;
4. persist to JSON / CSV and load the corpus back.

Run with::

    python examples/build_recipe_database.py [output_dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.recipedb import (
    Recipe,
    RecipeDatabase,
    RecipeQuery,
    Region,
    corpus_statistics,
    load_json,
    save_csv,
    save_json,
)


def build_database() -> RecipeDatabase:
    db = RecipeDatabase()
    db.register_regions(
        [
            Region("Japanese", continent="Asia"),
            Region("Italian", continent="Europe"),
            Region("Mexican", continent="North America"),
        ]
    )
    recipes = [
        Recipe(0, "Teriyaki chicken", "Japanese",
               ingredients=("soy sauce", "mirin", "chicken", "ginger"),
               processes=("marinate", "heat", "simmer"), utensils=("saucepan",)),
        Recipe(1, "Miso soup", "Japanese",
               ingredients=("miso paste", "dashi", "tofu", "green onion"),
               processes=("boil", "simmer"), utensils=("pot",)),
        Recipe(2, "Salmon nigiri", "Japanese",
               ingredients=("white rice", "salmon", "rice vinegar", "wasabi"),
               processes=("boil", "shape"), utensils=()),
        Recipe(3, "Spaghetti al pomodoro", "Italian",
               ingredients=("pasta", "tomato", "olive oil", "basil", "garlic clove"),
               processes=("boil", "simmer", "toss"), utensils=("pot",)),
        Recipe(4, "Margherita pizza", "Italian",
               ingredients=("flour", "tomato", "mozzarella", "basil", "olive oil"),
               processes=("knead", "bake"), utensils=("oven",)),
        Recipe(5, "Risotto ai funghi", "Italian",
               ingredients=("white rice", "mushroom", "parmesan cheese", "butter", "olive oil"),
               processes=("saute", "stir", "simmer"), utensils=("saucepan",)),
        Recipe(6, "Tacos al pastor", "Mexican",
               ingredients=("tortilla", "pork", "pineapple", "cilantro", "onion"),
               processes=("marinate", "grill", "chop"), utensils=("grill",)),
        Recipe(7, "Guacamole", "Mexican",
               ingredients=("avocado", "lime juice", "cilantro", "onion", "jalapeno"),
               processes=("mash", "mix"), utensils=("bowl",)),
        Recipe(8, "Pozole", "Mexican",
               ingredients=("corn", "pork", "chili powder", "onion", "garlic clove"),
               processes=("simmer", "season"), utensils=("stockpot",)),
    ]
    db.add_recipes(recipes)
    return db


def main() -> int:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    db = build_database()

    print("--- corpus statistics -------------------------------------------------")
    stats = corpus_statistics(db)
    print(f"{stats.n_recipes} recipes across {stats.n_regions} cuisines; "
          f"{stats.n_unique_ingredients} distinct ingredients")
    print("recipes per cuisine:", stats.region_recipe_counts)

    print("\n--- queries -----------------------------------------------------------")
    with_olive_oil = RecipeQuery().containing_all(["olive oil"]).execute(db)
    print("recipes with olive oil        :", [r.title for r in with_olive_oil])
    italian_baked = (
        RecipeQuery().in_region("Italian").containing_any(["oven", "bake"]).execute(db)
    )
    print("Italian recipes that are baked:", [r.title for r in italian_baked])
    hearty = RecipeQuery().with_ingredient_count(minimum=5).execute(db)
    print("recipes with >= 5 ingredients :", [r.title for r in hearty])

    print("\n--- item supports -------------------------------------------------------")
    for item in ("olive oil", "cilantro", "soy sauce"):
        print(f"global support of {item!r:14s}: {db.item_support(item):.2f}")
    print(f"support of olive oil within Italian: "
          f"{db.item_support('olive oil', region='Italian'):.2f}")

    print("\n--- persistence ---------------------------------------------------------")
    json_path = save_json(db, output_dir / "corpus.json", indent=2)
    csv_path = save_csv(db, output_dir / "corpus.csv")
    print("wrote", json_path)
    print("wrote", csv_path)
    reloaded = load_json(json_path)
    print("reloaded recipes:", len(reloaded), "- round trip OK" if len(reloaded) == len(db) else "- MISMATCH")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
