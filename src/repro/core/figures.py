"""Per-figure builders for the paper's evaluation artefacts.

One function per figure, each returning the underlying data object rather than
a plot:

* :func:`build_figure1` -- elbow (WCSS vs k) analysis of the pattern features;
* :func:`build_figure2` / :func:`build_figure3` / :func:`build_figure4` --
  HAC of pattern features under Euclidean / Cosine / Jaccard distances;
* :func:`build_figure5` -- HAC of the ingredient-authenticity matrix;
* :func:`build_figure6` -- HAC of geographic distances between regions.

The figure builders only assemble inputs and delegate to the corresponding
subsystems, so each is individually cheap to test and to benchmark.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.authenticity.prevalence import prevalence_matrix
from repro.authenticity.relative import AuthenticityMatrix, relative_prevalence
from repro.cluster.elbow import ElbowAnalysis, elbow_analysis
from repro.cluster.hierarchy import ClusteringRun, cluster_features
from repro.core.config import AnalysisConfig, DEFAULT_CONFIG
from repro.features.matrix import FeatureMatrix
from repro.features.vectorize import authenticity_feature_matrix
from repro.geo.geocluster import geographic_clustering
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind

__all__ = [
    "build_figure1",
    "build_figure2",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "build_figure6",
    "FIGURE_NAMES",
]

FIGURE_NAMES: dict[str, str] = {
    "figure1": "Figure 1 — Elbow method for cluster identification",
    "figure2": "Figure 2 — HAC on mined patterns, Euclidean distance",
    "figure3": "Figure 3 — HAC on mined patterns, Cosine distance",
    "figure4": "Figure 4 — HAC on mined patterns, Jaccard distance",
    "figure5": "Figure 5 — HAC on ingredient authenticity",
    "figure6": "Figure 6 — HAC on geographical distance",
}


def build_figure1(
    pattern_features: FeatureMatrix, config: AnalysisConfig = DEFAULT_CONFIG
) -> ElbowAnalysis:
    """Elbow (WCSS vs k) analysis of the cuisine pattern feature vectors."""
    return elbow_analysis(
        pattern_features,
        k_min=config.elbow_k_min,
        k_max=config.elbow_k_max,
        seed=config.seed,
    )


def _pattern_figure(
    pattern_features: FeatureMatrix, metric: str, config: AnalysisConfig
) -> ClusteringRun:
    features = pattern_features
    if metric == "jaccard":
        # Jaccard operates on presence/absence; binarise support-weighted features.
        features = pattern_features.binarized()
    return cluster_features(features, metric=metric, method=config.linkage_method)


def build_figure2(
    pattern_features: FeatureMatrix, config: AnalysisConfig = DEFAULT_CONFIG
) -> ClusteringRun:
    """HAC of pattern features under Euclidean distance (Figure 2)."""
    return _pattern_figure(pattern_features, "euclidean", config)


def build_figure3(
    pattern_features: FeatureMatrix, config: AnalysisConfig = DEFAULT_CONFIG
) -> ClusteringRun:
    """HAC of pattern features under Cosine distance (Figure 3)."""
    return _pattern_figure(pattern_features, "cosine", config)


def build_figure4(
    pattern_features: FeatureMatrix, config: AnalysisConfig = DEFAULT_CONFIG
) -> ClusteringRun:
    """HAC of pattern features under Jaccard distance (Figure 4)."""
    return _pattern_figure(pattern_features, "jaccard", config)


def build_figure5(
    database: RecipeDatabase,
    config: AnalysisConfig = DEFAULT_CONFIG,
    *,
    authenticity: AuthenticityMatrix | None = None,
) -> ClusteringRun:
    """HAC of the ingredient-authenticity (relative prevalence) matrix (Figure 5).

    *authenticity* lets a caller that already computed the matrix for this
    database and config (the pipeline shares it with the fingerprints stage)
    skip recomputing it.
    """
    if authenticity is None:
        prevalence = prevalence_matrix(
            database,
            kinds=(EntityKind.INGREDIENT,),
            min_document_frequency=config.authenticity_min_document_frequency,
        )
        authenticity = relative_prevalence(prevalence)
    features = authenticity_feature_matrix(authenticity)
    return cluster_features(features, metric="euclidean", method=config.linkage_method)


def build_figure6(
    regions: Sequence[str],
    config: AnalysisConfig = DEFAULT_CONFIG,
    *,
    coordinates: Mapping[str, Sequence[float]] | None = None,
) -> ClusteringRun:
    """HAC of geographic (haversine) distances between regions (Figure 6)."""
    return geographic_clustering(
        list(regions), coordinates=coordinates, method=config.linkage_method
    )
