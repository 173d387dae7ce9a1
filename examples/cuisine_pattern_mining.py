#!/usr/bin/env python3
"""Deep dive into one cuisine: mining and the support ablation.

The paper's Section IV-V workflow for a single cuisine:

1. extract the cuisine's recipes as unordered item sets (ingredients +
   processes + utensils);
2. mine frequent patterns at support 0.20 -- the paper used FP-Growth; the
   pipeline's miner is Eclat over packed bitsets, which finds the same
   itemsets;
3. sweep the support threshold to see how the pattern count behaves -- the
   trade-off the paper cites for choosing 0.20.

Run with::

    python examples/cuisine_pattern_mining.py [region] [scale]

Defaults: region "Japanese", scale 0.05.
"""

from __future__ import annotations

import sys
import time

from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
from repro.mining.eclat import EclatMiner
from repro.viz.tables import format_table


def main() -> int:
    region = sys.argv[1] if len(sys.argv) > 1 else "Japanese"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05

    print(f"Generating synthetic RecipeDB corpus (scale={scale}) ...")
    corpus = SyntheticRecipeDBGenerator(GeneratorConfig(seed=2020, scale=scale)).generate()
    if region not in corpus.region_names():
        print(f"unknown region {region!r}; available: {', '.join(corpus.region_names())}")
        return 1

    transactions = corpus.transactions_for_region(region)
    print(f"{region}: {len(transactions)} recipes, "
          f"{len(frozenset().union(*transactions))} distinct items")

    # -- mine at the paper's threshold ------------------------------------------
    print("\n--- mining at the paper's 0.20 support threshold --------------------")
    start = time.perf_counter()
    mined = EclatMiner(0.20, max_length=3).mine(transactions)
    seconds = time.perf_counter() - start
    print(
        f"{len(mined)} patterns ({len(mined.non_singletons())} compound) "
        f"in {seconds:.3f}s"
    )
    print(f"\ntop patterns of {region}:")
    for pattern in mined.top(10):
        print(f"  {pattern.as_string():45s} support={pattern.support:.3f}")

    # -- support threshold sweep -----------------------------------------------
    print("\n--- support threshold sweep (the paper's 0.20 trade-off) -------------")
    rows = []
    for support in (0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5):
        swept = EclatMiner(support, max_length=3).mine(transactions)
        rows.append(
            {
                "min_support": support,
                "patterns": len(swept),
                "compound_patterns": len(swept.non_singletons()),
            }
        )
    print(format_table(rows, ["min_support", "patterns", "compound_patterns"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
