"""``repro.serve`` — cached analysis service with a read-path query engine.

The batch pipeline (:mod:`repro.core.pipeline`) reproduces the paper's
analysis end to end, but every invocation recomputes all eight stages.  This
package turns that one-shot pipeline into a servable engine following the
classic amortize-the-batch-job architecture: **compute once, cache keyed by
config, serve many cheap reads**.

Layout
------

``codec``
    Lossless JSON round-trips for :class:`~repro.core.results.AnalysisResults`
    and every artifact it bundles, plus the deterministic cache keys derived
    from :class:`~repro.core.config.AnalysisConfig` (full-analysis key and the
    mining-stage key that ignores clustering-only parameters).
``store``
    :class:`~repro.serve.store.ArtifactStore` -- the storage engine:
    validated reads and counted writes over a storage backend, with
    corrupt-artifact quarantine on every read.  It also owns backend
    faults: an ``OSError`` is retried at once, and a call that keeps
    failing degrades (a read is a miss, a write is dropped, a lease is
    granted locally) instead of failing the request; see
    ``docs/resilience.md``.
``backends``
    The :class:`~repro.serve.backends.StorageBackend` implementations --
    the durable, sharded :class:`~repro.serve.backends.DirectoryBackend`
    and its ephemeral test double,
    :class:`~repro.serve.backends.MemoryBackend`.
``eviction``
    Composable :class:`~repro.serve.eviction.EvictionPolicy` primitives
    (:class:`~repro.serve.eviction.LRU`, :class:`~repro.serve.eviction.TTL`,
    :class:`~repro.serve.eviction.MaxBytes`) optionally bounding the backend,
    and the background refresher's staleness grammar.
``service``
    :class:`~repro.serve.service.AnalysisService` -- the memoizing facade:
    ``get_or_run(config)`` hits its bounded decoded cache → disk →
    recompute, reusing cached mining results when only clustering
    parameters changed.
``aio``
    The asyncio front door: :class:`~repro.serve.aio.AsyncAnalysisService`
    adds single-flight **request coalescing** (N concurrent requests for one
    cold config perform exactly one compute) and TTL-driven **background
    refresh**; :class:`~repro.serve.aio.AsyncQueryEngine` wraps the read
    path and :class:`~repro.serve.aio.AnalysisServer` exposes everything
    over a stdlib HTTP/JSON loop (the CLI's ``serve`` subcommand).
``queries``
    :class:`~repro.serve.queries.QueryEngine` -- nearest-cuisine lookup,
    pattern search, authenticity profiles and cuisine summary cards, all
    served from the cached artifacts.
``classify``
    :class:`~repro.serve.classify.CuisineClassifier` -- batched recipe →
    cuisine classification; thousands of ingredient lists score against the
    per-cuisine patterns and authenticity fingerprints in one numpy pass.

Quick start
-----------

>>> from repro.core.config import AnalysisConfig
>>> from repro.serve import AnalysisService, CuisineClassifier, QueryEngine
>>> service = AnalysisService("cache-dir")
>>> served = service.get_or_run(AnalysisConfig(scale=0.02))   # slow once
>>> served = service.get_or_run(AnalysisConfig(scale=0.02))   # instant now
>>> engine = QueryEngine(served.results)
>>> engine.nearest_cuisines("Japanese", k=3)                  # doctest: +SKIP
>>> classifier = CuisineClassifier.from_results(served.results)
>>> classifier.classify(["soy sauce", "mirin", "rice"]).best  # doctest: +SKIP

The CLI exposes the same flows as ``repro-cuisines serve-warm``, ``serve``
(the async HTTP front-end), ``query`` and ``classify``; see
``examples/serve_and_query.py`` and ``examples/async_serving.py`` for full
tours, and ``docs/serving.md`` for the async semantics.
"""

from repro.serve.aio import (
    AnalysisServer,
    AsyncAnalysisService,
    AsyncQueryEngine,
)
from repro.serve.backends import DirectoryBackend, MemoryBackend, StorageBackend
from repro.serve.classify import Classification, CuisineClassifier
from repro.serve.codec import (
    analysis_key,
    mining_key,
    results_from_dict,
    results_to_dict,
)
from repro.serve.eviction import (
    LRU,
    TTL,
    CompositePolicy,
    EvictionPolicy,
    MaxBytes,
    parse_policy,
)
from repro.serve.queries import PatternHit, QueryEngine
from repro.serve.service import AnalysisService, ServedAnalysis
from repro.serve.store import ArtifactStore, StoreStats

__all__ = [
    "AnalysisService",
    "ServedAnalysis",
    "AsyncAnalysisService",
    "AsyncQueryEngine",
    "AnalysisServer",
    "ArtifactStore",
    "StoreStats",
    "StorageBackend",
    "DirectoryBackend",
    "MemoryBackend",
    "EvictionPolicy",
    "LRU",
    "TTL",
    "MaxBytes",
    "CompositePolicy",
    "parse_policy",
    "QueryEngine",
    "PatternHit",
    "CuisineClassifier",
    "Classification",
    "analysis_key",
    "mining_key",
    "results_to_dict",
    "results_from_dict",
]
