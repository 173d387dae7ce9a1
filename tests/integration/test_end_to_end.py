"""Integration tests: whole-pipeline behaviour on the generated corpus."""

from __future__ import annotations

import pytest

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
from repro.datagen.profiles import default_profiles
from repro.mining.eclat import EclatMiner
from tests.oracles.fpgrowth import FPGrowthMiner


class TestCorpusToMiningIntegration:
    def test_miners_agree_on_generated_cuisine(self, mini_corpus):
        transactions = mini_corpus.transactions_for_region("Japanese")
        ec = EclatMiner(0.25, max_length=2).mine(transactions)
        fp = FPGrowthMiner(0.25, max_length=2).mine(transactions)
        assert ec.patterns == fp.patterns
        assert len(ec) > 0

    def test_signature_pattern_mined_at_paper_threshold(self, mini_corpus):
        transactions = mini_corpus.transactions_for_region("Japanese")
        result = EclatMiner(0.2, max_length=3).mine(transactions)
        assert frozenset({"soy sauce"}) in result.itemsets()

    def test_mining_respects_support_threshold(self, mini_corpus):
        transactions = mini_corpus.transactions_for_region("Greek")
        result = EclatMiner(0.3, max_length=3).mine(transactions)
        for pattern in result:
            assert pattern.support >= 0.3
            holding = sum(1 for transaction in transactions if pattern.items <= transaction)
            assert holding / len(transactions) == pytest.approx(pattern.support)


class TestSupportThresholdAblation:
    def test_lower_support_yields_more_patterns(self, mini_corpus):
        transactions = mini_corpus.transactions_for_region("Italian")
        counts = []
        for support in (0.4, 0.3, 0.2):
            counts.append(len(EclatMiner(support, max_length=3).mine(transactions)))
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[-1] > counts[0]


class TestDeterminism:
    def test_pipeline_is_deterministic(self):
        profiles = {
            name: profile
            for name, profile in default_profiles().items()
            if name in ("Japanese", "Korean", "Italian", "Greek")
        }
        config = AnalysisConfig(seed=99, scale=0.02, elbow_k_max=4)

        def run_once():
            corpus = SyntheticRecipeDBGenerator(
                GeneratorConfig(seed=99, scale=0.02), profiles=profiles
            ).generate()
            return CuisineClusteringPipeline(config).run(corpus)

        first = run_once()
        second = run_once()
        assert first.table1.to_dicts() == second.table1.to_dicts()
        assert first.elbow.wcss_values() == second.elbow.wcss_values()
        assert (
            first.figure3_cosine.dendrogram.to_newick()
            == second.figure3_cosine.dendrogram.to_newick()
        )
        assert first.summary() == second.summary()


class TestScaleEnvironmentOverride:
    def test_env_scale_changes_corpus_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        config = AnalysisConfig.from_environment()
        small = CuisineClusteringPipeline(config).build_corpus()
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        larger = CuisineClusteringPipeline(AnalysisConfig.from_environment()).build_corpus()
        assert len(larger) > len(small)
