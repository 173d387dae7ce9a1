"""E1 — Table I: significant patterns mined per cuisine.

Regenerates the paper's Table I (region, number of recipes, top pattern, its
support, number of patterns at support 0.20) from the synthetic corpus and
prints it next to the paper's published values.  The benchmarked operation is
the per-cuisine mining pass (Eclat; the paper used FP-Growth), which is the
computation behind the table.
"""

from __future__ import annotations

from repro.core.table1 import build_table1, compare_with_paper
from repro.mining.eclat import EclatMiner
from repro.viz.tables import format_table


def _mine_all(pipeline, corpus):
    return pipeline.mine_patterns(corpus)


def test_table1_mining(benchmark, pipeline, corpus):
    """Time the mining pass over all 26 cuisines and print Table I."""
    mining_results = benchmark.pedantic(_mine_all, args=(pipeline, corpus), rounds=1, iterations=1)
    table = build_table1(corpus, mining_results)

    print()
    print(
        format_table(
            table.to_dicts(),
            ["region", "n_recipes", "top_pattern", "support", "n_patterns"],
            title="Table I (reproduced)",
        )
    )
    print()
    print(
        format_table(
            compare_with_paper(table),
            [
                "region",
                "paper_top_pattern",
                "measured_top_pattern",
                "paper_support",
                "measured_support",
                "paper_n_patterns",
                "measured_n_patterns",
                "headline_item_overlap",
            ],
            title="Table I — paper vs measured",
        )
    )

    # Shape assertions: supports in the paper's band, at least one pattern per
    # cuisine, headline item agreement for the large majority of cuisines.
    assert len(table.rows) == 26
    for row in table.rows:
        assert row.n_patterns >= 1
        assert 0.15 <= row.support <= 0.70
    overlap = sum(1 for row in compare_with_paper(table) if row["headline_item_overlap"])
    assert overlap >= 20


def test_table1_single_cuisine_mining(benchmark, corpus, config):
    """Time Eclat on the largest single cuisine (Italian in the paper)."""
    transactions = corpus.transactions_for_region("Italian")
    miner = EclatMiner(min_support=config.min_support, max_length=config.max_pattern_length)
    result = benchmark(miner.mine, transactions)
    assert len(result) >= 1
