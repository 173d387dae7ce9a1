"""repro — reproduction of "Hierarchical Clustering of World Cuisines".

Sharma, Upadhyay, Kalra, Arora, Ahmad, Aggarwal & Bagler, ICDE 2020 workshops
(arXiv:2004.12283).

The package is organised by subsystem:

* :mod:`repro.recipedb` -- the RecipeDB-like data substrate (models, store,
  indexes, persistence, corpus statistics);
* :mod:`repro.datagen` -- the synthetic corpus generator calibrated to the
  paper's published statistics;
* :mod:`repro.mining` -- transactions, the packed-bitset engine, the corpus
  arena and the Eclat miner that finds every cuisine's frequent itemsets;
* :mod:`repro.authenticity` -- prevalence, relative prevalence (authenticity)
  and cuisine fingerprints;
* :mod:`repro.features` -- label encoding, string patterns and feature
  matrices;
* :mod:`repro.distances` -- Euclidean / Cosine / Jaccard metrics, condensed
  pairwise distances, haversine geography;
* :mod:`repro.cluster` -- hierarchical agglomerative clustering, dendrograms,
  K-means + elbow, FIHC and validation metrics;
* :mod:`repro.geo` -- region centroids, the geographic reference tree and the
  Section VII claim checks;
* :mod:`repro.viz` -- ASCII dendrograms, tables and markdown reports;
* :mod:`repro.core` -- configuration, per-figure builders, Table I and the
  end-to-end pipeline.

Quickstart::

    from repro import AnalysisConfig, run_full_analysis

    results = run_full_analysis(AnalysisConfig(seed=2020, scale=0.05))
    print(results.table1.to_dicts()[:3])
    print(results.figure2_euclidean.dendrogram.leaf_order())
"""

from repro.core.config import DEFAULT_CONFIG, AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline, run_full_analysis
from repro.core.results import AnalysisResults
from repro.datagen.generator import GeneratorConfig, SyntheticRecipeDBGenerator, generate_corpus
from repro.errors import ReproError
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import Recipe, Region

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DEFAULT_CONFIG",
    "AnalysisConfig",
    "CuisineClusteringPipeline",
    "run_full_analysis",
    "AnalysisResults",
    "GeneratorConfig",
    "SyntheticRecipeDBGenerator",
    "generate_corpus",
    "ReproError",
    "RecipeDatabase",
    "Recipe",
    "Region",
]
