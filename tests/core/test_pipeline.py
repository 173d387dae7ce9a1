"""Unit tests for the end-to-end pipeline and the results container."""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline, run_full_analysis
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import Recipe, Region


class TestPipelineStages:
    def test_build_corpus_uses_config(self):
        pipeline = CuisineClusteringPipeline(AnalysisConfig(seed=1, scale=0.02))
        corpus = pipeline.build_corpus()
        assert len(corpus.region_names()) == 26
        assert len(corpus) > 500

    def test_mine_patterns_per_region(self, mini_corpus):
        pipeline = CuisineClusteringPipeline(AnalysisConfig(scale=0.02))
        mining = pipeline.mine_patterns(mini_corpus)
        assert set(mining) == set(mini_corpus.region_names())
        assert all(len(result) > 0 for result in mining.values())
        assert all(result.min_support == 0.2 for result in mining.values())

    def test_mine_patterns_rejects_empty_region(self):
        db = RecipeDatabase()
        db.register_region(Region("Full"))
        db.register_region(Region("Empty"))
        db.add_recipe(Recipe(0, "dish", "Full", ingredients=("salt",)))
        pipeline = CuisineClusteringPipeline()
        with pytest.raises(PipelineError):
            pipeline.mine_patterns(db)

    def test_pattern_features_shape(self, mini_corpus):
        pipeline = CuisineClusteringPipeline(AnalysisConfig(scale=0.02))
        mining = pipeline.mine_patterns(mini_corpus)
        features = pipeline.build_pattern_features(mining)
        assert features.n_rows == len(mini_corpus.region_names())
        assert features.n_columns >= max(len(r) for r in mining.values())

    def test_geography_stage_requires_known_regions(self):
        db = RecipeDatabase()
        db.register_regions(["Nowhere1", "Nowhere2"])
        db.add_recipe(Recipe(0, "a", "Nowhere1", ingredients=("salt",)))
        db.add_recipe(Recipe(1, "b", "Nowhere2", ingredients=("salt",)))
        pipeline = CuisineClusteringPipeline()
        with pytest.raises(PipelineError):
            pipeline.run_geographic_clustering(db)

    def test_run_requires_two_regions(self):
        db = RecipeDatabase()
        db.register_region("Japanese")
        db.add_recipe(Recipe(0, "a", "Japanese", ingredients=("salt",)))
        with pytest.raises(PipelineError):
            CuisineClusteringPipeline().run(db)


class TestFullRun:
    def test_results_are_complete(self, full_results, full_corpus):
        results = full_results
        assert results.corpus_stats.n_recipes == len(full_corpus)
        assert set(results.mining_results) == set(full_corpus.region_names())
        assert len(results.table1.rows) == 26
        assert results.pattern_features.n_rows == 26
        assert len(results.clustering_runs()) == 5
        assert set(results.geography_validation) == {
            "patterns-euclidean", "patterns-cosine", "patterns-jaccard", "authenticity"
        }
        assert results.fihc.n_clusters >= 1
        assert set(results.fingerprints) == set(full_corpus.region_names())

    def test_run_for_lookup(self, full_results):
        assert full_results.run_for("figure2").metric == "euclidean"
        assert full_results.run_for("FIGURE4").metric == "jaccard"
        with pytest.raises(PipelineError):
            full_results.run_for("figure9")

    def test_best_geography_match(self, full_results):
        name, comparison = full_results.best_geography_match()
        assert name in full_results.geography_validation
        assert comparison.bakers_gamma == max(
            c.bakers_gamma for c in full_results.geography_validation.values()
        )

    def test_summary_is_json_friendly(self, full_results):
        import json

        summary = full_results.summary()
        encoded = json.loads(json.dumps(summary, default=str))
        assert encoded["n_regions"] == 26
        assert "claims" in encoded

    def test_claims_present_for_every_tree(self, full_results):
        assert set(full_results.claim_checks) == {
            "patterns-euclidean", "patterns-cosine", "patterns-jaccard",
            "authenticity", "geography",
        }
        for checks in full_results.claim_checks.values():
            assert len(checks) == 2

    def test_run_full_analysis_wrapper(self, full_corpus):
        results = run_full_analysis(
            AnalysisConfig(seed=2020, scale=0.02, elbow_k_max=4), database=full_corpus
        )
        assert len(results.elbow.k_values()) == 4
