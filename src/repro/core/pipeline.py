"""The end-to-end cuisine-clustering pipeline.

:class:`CuisineClusteringPipeline` chains every stage of the paper's analysis:

1. obtain a recipe corpus (a supplied :class:`RecipeDatabase` or a synthetic
   one generated at the configured seed/scale);
2. mine frequent patterns per cuisine at the configured support (Section
   V-A), producing the reproduced Table I.  The paper used FP-Growth; this
   stage runs Eclat over packed bitsets, which returns the same itemsets
   (``tests/mining/test_engine_parity.py`` checks it against an FP-Growth
   oracle);
3. build the cuisine × pattern feature matrix (Section VI-A);
4. run the elbow analysis (Figure 1) and the three pattern-based HAC runs
   (Figures 2-4);
5. compute ingredient authenticity and its HAC run (Figure 5);
6. build the geographic reference tree (Figure 6);
7. run FIHC as the frequent-itemset-native clustering variant;
8. validate every cuisine tree against geography and check the Section VII
   qualitative claims.

Individual stages are exposed as methods so callers (and the stage-level
benchmarks) can run them in isolation; :meth:`run` executes everything and
returns an :class:`~repro.core.results.AnalysisResults` bundle.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.authenticity.fingerprint import cuisine_fingerprints
from repro.authenticity.prevalence import prevalence_matrix
from repro.authenticity.relative import AuthenticityMatrix, relative_prevalence
from repro.cluster.elbow import ElbowAnalysis
from repro.cluster.fihc import FIHCClustering, FIHCResult
from repro.cluster.hierarchy import ClusteringRun
from repro.core.config import AnalysisConfig, DEFAULT_CONFIG
from repro.core.figures import (
    build_figure1,
    build_figure2,
    build_figure3,
    build_figure4,
    build_figure5,
    build_figure6,
)
from repro.core.results import AnalysisResults
from repro.core.table1 import Table1, build_table1
from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator
from repro.errors import PipelineError
from repro.features.matrix import FeatureMatrix
from repro.features.vectorize import pattern_membership_matrix
from repro.geo.comparison import (
    ClaimCheck,
    TreeComparison,
    canada_france_vs_us,
    compare_trees,
    india_north_africa_affinity,
)
from repro.geo.geocluster import geographic_clustering
from repro.geo.regions import REGION_GEOGRAPHY
from repro.mining.eclat import EclatMiner
from repro.mining.itemsets import MiningResult
from repro.mining.regions import mine_corpus_with_report
from repro.mining.shm import CorpusMatrix, RegionSpan
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind
from repro.recipedb.stats import corpus_statistics

__all__ = ["CuisineClusteringPipeline", "run_full_analysis"]


class CuisineClusteringPipeline:
    """End-to-end reproduction pipeline."""

    def __init__(self, config: AnalysisConfig | None = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG

    # -- stage 1: corpus -------------------------------------------------------------

    def build_corpus(self) -> RecipeDatabase:
        """Generate the synthetic RecipeDB corpus at the configured seed/scale."""
        generator = SyntheticRecipeDBGenerator(
            GeneratorConfig(seed=self.config.seed, scale=self.config.scale)
        )
        return generator.generate()

    # -- stage 2: mining -------------------------------------------------------------

    def mine_patterns(self, database: RecipeDatabase) -> dict[str, MiningResult]:
        """Mine frequent patterns per cuisine with Eclat (see :meth:`build_miner`).

        The corpus is built once into its integer-id CSR
        (:meth:`build_transactions`) and each region is packed from it and
        mined, one after another; the result is keyed in sorted region order.
        """
        corpus = self.build_transactions(database)
        for span in corpus.spans:
            if span.n_transactions == 0:
                raise PipelineError(f"region {span.region!r} has no recipes to mine")
        results, _report = mine_corpus_with_report(corpus, self.build_miner())
        return results

    def build_miner(self) -> EclatMiner:
        """The configured miner the mining stage runs over every region.

        Eclat, not the paper's FP-Growth: both are exact, so they find the
        same itemsets with the same supports, and Eclat's tid-set ANDs over
        the packed bit matrix are the faster of the two.  Only the
        results' ``algorithm`` label says which one ran.
        """
        return EclatMiner(
            min_support=self.config.min_support,
            max_length=self.config.max_pattern_length,
        )

    def build_transactions(self, database: RecipeDatabase) -> CorpusMatrix:
        """The corpus as one integer-id CSR, one row per recipe by region.

        A row is the recipe's ``(*ingredients, *processes, *utensils)``
        (Section V-A); a name in two kinds counts once.  Built from the
        database's id form with no name lookups
        (:meth:`~repro.recipedb.columns.RecipeColumns.item_rows`); it equals
        :meth:`CorpusMatrix.from_transactions` over the recipes' names.  No
        row is empty, since every recipe holds an ingredient.
        """
        regions = database.region_names()
        rows = database.columns.item_rows(regions)
        bounds = np.concatenate(([0], np.cumsum(rows.region_sizes))).tolist()
        spans = tuple(
            RegionSpan(region, start, stop)
            for region, start, stop in zip(regions, bounds, bounds[1:])
        )
        return CorpusMatrix(rows.items, spans, rows.tids, rows.offsets)

    def build_table1(
        self, database: RecipeDatabase, mining_results: Mapping[str, MiningResult]
    ) -> Table1:
        """Assemble the reproduced Table I."""
        return build_table1(database, mining_results)

    # -- stage 3: features --------------------------------------------------------------

    def build_pattern_features(
        self, mining_results: Mapping[str, MiningResult]
    ) -> FeatureMatrix:
        """Cuisine × string-pattern feature matrix (Section VI-A)."""
        matrix, _encoder = pattern_membership_matrix(
            mining_results, weighting=self.config.pattern_weighting
        )
        return matrix

    # -- stage 4-6: figures ----------------------------------------------------------------

    def run_elbow(self, pattern_features: FeatureMatrix) -> ElbowAnalysis:
        return build_figure1(pattern_features, self.config)

    def run_pattern_clusterings(
        self, pattern_features: FeatureMatrix
    ) -> dict[str, ClusteringRun]:
        """Figures 2-4: HAC of pattern features under the three metrics."""
        return {
            "euclidean": build_figure2(pattern_features, self.config),
            "cosine": build_figure3(pattern_features, self.config),
            "jaccard": build_figure4(pattern_features, self.config),
        }

    def run_authenticity_clustering(
        self,
        database: RecipeDatabase,
        authenticity: AuthenticityMatrix | None = None,
    ) -> ClusteringRun:
        """Figure 5: HAC of the ingredient authenticity matrix."""
        return build_figure5(database, self.config, authenticity=authenticity)

    def run_geographic_clustering(self, database: RecipeDatabase) -> ClusteringRun:
        """Figure 6: HAC of geographic distances (known regions only)."""
        regions = [r for r in database.region_names() if r in REGION_GEOGRAPHY]
        if len(regions) < 2:
            raise PipelineError(
                "fewer than two regions have geographic coordinates; "
                "cannot build the geography reference tree"
            )
        return build_figure6(regions, self.config)

    def run_fihc(self, mining_results: Mapping[str, MiningResult]) -> FIHCResult:
        """FIHC clustering over the per-cuisine pattern sets."""
        return FIHCClustering(linkage_method=self.config.linkage_method).fit(mining_results)

    # -- stage 7: authenticity fingerprints ------------------------------------------------

    def build_authenticity(self, database: RecipeDatabase) -> AuthenticityMatrix:
        """Ingredient authenticity (relative prevalence) of every cuisine.

        Figure 5 and the fingerprints both read this matrix; a full run
        computes it once and hands it to both stages.
        """
        prevalence = prevalence_matrix(
            database,
            kinds=(EntityKind.INGREDIENT,),
            min_document_frequency=self.config.authenticity_min_document_frequency,
        )
        return relative_prevalence(prevalence)

    def build_fingerprints(
        self,
        database: RecipeDatabase,
        authenticity: AuthenticityMatrix | None = None,
    ):
        """Most / least authentic ingredients per cuisine."""
        if authenticity is None:
            authenticity = self.build_authenticity(database)
        return cuisine_fingerprints(authenticity, top_k=self.config.fingerprint_top_k)

    # -- stage 8: validation ------------------------------------------------------------------

    def validate_against_geography(
        self, runs: Mapping[str, ClusteringRun]
    ) -> dict[str, TreeComparison]:
        """Score every cuisine tree against the geographic reference tree.

        The reference tree is built once per distinct label sequence (every
        cuisine tree of one analysis shares one), not once per compared run.
        """
        references: dict[tuple[str, ...], ClusteringRun] = {}
        validation: dict[str, TreeComparison] = {}
        for name, run in runs.items():
            labels = tuple(run.labels)
            if labels not in references:
                references[labels] = geographic_clustering(
                    list(labels), method=self.config.linkage_method
                )
            validation[name] = compare_trees(
                run, references[labels], k_values=self.config.validation_k_values
            )
        return validation

    def check_claims(
        self, runs: Mapping[str, ClusteringRun]
    ) -> dict[str, tuple[ClaimCheck, ...]]:
        """Evaluate the Section VII qualitative claims on every cuisine tree."""
        checks: dict[str, tuple[ClaimCheck, ...]] = {}
        for name, run in runs.items():
            labels = set(run.labels)
            run_checks: list[ClaimCheck] = []
            if {"Canadian", "French", "US"} <= labels:
                run_checks.append(canada_france_vs_us(run))
            if {"Indian Subcontinent", "Northern Africa", "Thai", "Southeast Asian"} <= labels:
                run_checks.append(india_north_africa_affinity(run))
            checks[name] = tuple(run_checks)
        return checks

    # -- the full run ------------------------------------------------------------------------------

    def run(self, database: RecipeDatabase | None = None) -> AnalysisResults:
        """Execute the full analysis and return every artefact."""
        corpus = database if database is not None else self.build_corpus()
        if len(corpus.region_names()) < 2:
            raise PipelineError("the corpus must contain at least two cuisines")
        return self.finish_run(corpus, self.mine_patterns(corpus))

    def finish_run(
        self,
        corpus: RecipeDatabase,
        mining_results: Mapping[str, MiningResult],
    ) -> AnalysisResults:
        """Run stages 3-8 (everything after mining) and assemble the bundle.

        Callers that obtained the corpus and mining results elsewhere -- the
        serve layer's stage caches, a custom miner -- get the identical
        feature / clustering / validation tail that :meth:`run` performs, so
        a cached-stage recompute can never drift from a fresh run.
        """
        table1 = self.build_table1(corpus, mining_results)
        pattern_features = self.build_pattern_features(mining_results)

        elbow = self.run_elbow(pattern_features)
        pattern_runs = self.run_pattern_clusterings(pattern_features)
        authenticity = self.build_authenticity(corpus)
        authenticity_run = self.run_authenticity_clustering(corpus, authenticity)
        geography_run = self.run_geographic_clustering(corpus)
        fihc_result = self.run_fihc(mining_results)
        fingerprints = self.build_fingerprints(corpus, authenticity)

        validation_targets = {
            "patterns-euclidean": pattern_runs["euclidean"],
            "patterns-cosine": pattern_runs["cosine"],
            "patterns-jaccard": pattern_runs["jaccard"],
            "authenticity": authenticity_run,
        }
        geography_validation = self.validate_against_geography(validation_targets)
        claim_checks = self.check_claims(
            {**validation_targets, "geography": geography_run}
        )

        return AnalysisResults(
            config=self.config,
            corpus_stats=corpus_statistics(corpus),
            mining_results=dict(mining_results),
            table1=table1,
            pattern_features=pattern_features,
            elbow=elbow,
            figure2_euclidean=pattern_runs["euclidean"],
            figure3_cosine=pattern_runs["cosine"],
            figure4_jaccard=pattern_runs["jaccard"],
            figure5_authenticity=authenticity_run,
            figure6_geography=geography_run,
            fihc=fihc_result,
            fingerprints=fingerprints,
            geography_validation=geography_validation,
            claim_checks=claim_checks,
        )


def run_full_analysis(
    config: AnalysisConfig | None = None,
    *,
    database: RecipeDatabase | None = None,
) -> AnalysisResults:
    """Convenience wrapper: run the whole pipeline with an optional config/corpus."""
    return CuisineClusteringPipeline(config).run(database)
