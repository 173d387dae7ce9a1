"""Unit tests for Frequent-Itemset-based Hierarchical Clustering (FIHC)."""

from __future__ import annotations

import pytest

from repro.errors import ClusteringError
from repro.cluster.fihc import FIHCClustering
from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import MiningResult, Pattern


def _result(patterns: dict[str, float], n: int = 10) -> MiningResult:
    return MiningResult(
        [
            Pattern(frozenset(items.split(" + ")), support, max(1, int(support * n)))
            for items, support in patterns.items()
        ],
        n_transactions=n,
        min_support=0.2,
    )


@pytest.fixture()
def synthetic_results() -> dict[str, MiningResult]:
    """Two Asian-style cuisines sharing patterns, two European-style ones."""
    return {
        "Japan": _result({"soy sauce": 0.5, "soy sauce + rice": 0.3, "rice": 0.4}),
        "Korea": _result({"soy sauce": 0.45, "soy sauce + rice": 0.25, "sesame": 0.3}),
        "Italy": _result({"olive oil": 0.5, "olive oil + tomato": 0.3, "tomato": 0.4}),
        "Spain": _result({"olive oil": 0.45, "olive oil + tomato": 0.28, "garlic": 0.3}),
    }


class TestFIHC:
    def test_requires_two_cuisines(self, synthetic_results):
        with pytest.raises(ClusteringError):
            FIHCClustering().fit({"Japan": synthetic_results["Japan"]})

    def test_invalid_min_cluster_support(self):
        with pytest.raises(ClusteringError):
            FIHCClustering(min_cluster_support=0.0)
        with pytest.raises(ClusteringError):
            FIHCClustering(min_cluster_support=1.5)

    def test_related_cuisines_grouped(self, synthetic_results):
        result = FIHCClustering(min_cluster_support=0.5).fit(synthetic_results)
        assignment = result.cluster_assignment
        assert assignment["Japan"] == assignment["Korea"]
        assert assignment["Italy"] == assignment["Spain"]
        assert assignment["Japan"] != assignment["Italy"]
        assert result.n_clusters == 2

    def test_members_listing(self, synthetic_results):
        result = FIHCClustering(min_cluster_support=0.5).fit(synthetic_results)
        cluster_of_japan = result.cluster_assignment["Japan"]
        assert result.members(cluster_of_japan) == ["Japan", "Korea"]

    def test_merge_tree_reflects_pattern_overlap(self, synthetic_results):
        result = FIHCClustering(min_cluster_support=0.5).fit(synthetic_results)
        cophenetic = result.dendrogram.cophenetic_distances()
        assert cophenetic.distance("Japan", "Korea") < cophenetic.distance("Japan", "Italy")
        assert cophenetic.distance("Italy", "Spain") < cophenetic.distance("Italy", "Korea")

    def test_cluster_patterns_are_global_patterns(self, synthetic_results):
        result = FIHCClustering(min_cluster_support=0.5).fit(synthetic_results)
        for patterns in result.cluster_patterns.values():
            for pattern in patterns:
                count = sum(
                    1
                    for mining in synthetic_results.values()
                    if pattern in mining.string_patterns()
                )
                assert count >= 2

    def test_no_shared_patterns_gives_singletons(self):
        results = {
            "A": _result({"alpha": 0.5}),
            "B": _result({"beta": 0.5}),
            "C": _result({"gamma": 0.5}),
        }
        result = FIHCClustering(min_cluster_support=0.5).fit(results)
        assert result.n_clusters == 3

    def test_on_real_mined_patterns(self, toy_db):
        results = {
            region: EclatMiner(0.6).mine(toy_db.transactions_for_region(region))
            for region in toy_db.region_names()
        }
        fihc = FIHCClustering().fit(results)
        assert set(fihc.cluster_assignment) == set(toy_db.region_names())
        assert len(fihc.dendrogram.leaf_order()) == 3
