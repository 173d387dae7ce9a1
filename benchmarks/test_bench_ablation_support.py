"""E9 — support-threshold ablation.

The paper motivates its 0.20 support threshold as a trade-off: higher
thresholds yield few, highly generic patterns; lower thresholds admit noise.
This benchmark sweeps the threshold and reports, per value, the total number
of mined patterns, the number of compound (multi-item) patterns and the
stability of the resulting cosine cuisine tree against the 0.20 reference
tree (Baker's gamma).
"""

from __future__ import annotations

from repro.cluster.validation import bakers_gamma
from repro.core.figures import build_figure3
from repro.features.vectorize import pattern_membership_matrix
from repro.mining.eclat import EclatMiner
from repro.viz.tables import format_table

SUPPORT_GRID = (0.10, 0.15, 0.20, 0.30, 0.40, 0.50)


def _mine_at(corpus, support, max_length):
    miner = EclatMiner(min_support=support, max_length=max_length)
    return {
        region: miner.mine(corpus.transactions_for_region(region))
        for region in corpus.region_names()
    }


def test_support_threshold_sweep(benchmark, corpus, config):
    def _sweep():
        return {
            support: _mine_at(corpus, support, config.max_pattern_length)
            for support in SUPPORT_GRID
        }

    mined_by_support = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    # Reference tree at the paper's threshold.
    reference_features, _ = pattern_membership_matrix(mined_by_support[0.20])
    reference_tree = build_figure3(reference_features, config).dendrogram

    rows = []
    for support in SUPPORT_GRID:
        results = mined_by_support[support]
        total = sum(len(r) for r in results.values())
        compound = sum(len(r.non_singletons()) for r in results.values())
        cuisines_without_patterns = sum(1 for r in results.values() if len(r) == 0)
        if cuisines_without_patterns == 0:
            features, _ = pattern_membership_matrix(results)
            tree = build_figure3(features, config).dendrogram
            stability = bakers_gamma(tree, reference_tree)
        else:
            stability = float("nan")
        rows.append(
            {
                "min_support": support,
                "total_patterns": total,
                "compound_patterns": compound,
                "cuisines_without_patterns": cuisines_without_patterns,
                "tree_gamma_vs_0.20": stability,
            }
        )

    print()
    print(
        format_table(
            rows,
            [
                "min_support",
                "total_patterns",
                "compound_patterns",
                "cuisines_without_patterns",
                "tree_gamma_vs_0.20",
            ],
            title="E9 — support threshold ablation",
        )
    )

    by_support = {row["min_support"]: row for row in rows}
    # Monotonicity: pattern counts shrink as the threshold grows.
    counts = [by_support[s]["total_patterns"] for s in SUPPORT_GRID]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    # At 0.20 every cuisine still has patterns (the paper's working point)...
    assert by_support[0.20]["cuisines_without_patterns"] == 0
    # ... and the tree at the paper's threshold is identical to itself.
    assert by_support[0.20]["tree_gamma_vs_0.20"] >= 0.999
