"""RecipeDB-like substrate: models, the in-memory store, queries, persistence.

This subpackage reproduces the *data* layer of the paper: a recipe store
grouped into geo-cultural cuisines, holding its corpus as integer ids
(:class:`~repro.recipedb.columns.RecipeColumns`) and exposing exactly the
views the analysis layers need (per-cuisine transactions, item supports,
corpus statistics), with JSON, JSONL and CSV import and export.
"""

from repro.recipedb.database import RecipeDatabase
from repro.recipedb.io_csv import iter_csv, load_csv, save_csv
from repro.recipedb.io_json import (
    corpus_fingerprint,
    iter_jsonl,
    load_json,
    load_jsonl,
    save_json,
    save_jsonl,
)
from repro.recipedb.models import EntityKind, Recipe, Region, normalize_name
from repro.recipedb.query import QueryResult, RecipeQuery
from repro.recipedb.schema import RecipeSchema, SchemaLimits, SchemaViolation
from repro.recipedb.stats import (
    CorpusStatistics,
    RegionStatistics,
    corpus_statistics,
    region_statistics,
    summarise_distribution,
)

__all__ = [
    "RecipeDatabase",
    "EntityKind",
    "Recipe",
    "Region",
    "normalize_name",
    "QueryResult",
    "RecipeQuery",
    "RecipeSchema",
    "SchemaLimits",
    "SchemaViolation",
    "CorpusStatistics",
    "RegionStatistics",
    "corpus_statistics",
    "region_statistics",
    "summarise_distribution",
    "iter_csv",
    "load_csv",
    "save_csv",
    "corpus_fingerprint",
    "iter_jsonl",
    "load_json",
    "load_jsonl",
    "save_json",
    "save_jsonl",
]
