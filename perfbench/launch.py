"""Traced launcher: run ``repro.cli`` with spans around every layer's entry points.

Usage: ``python perfbench/launch.py --trace-out FILE -- serve --cache-dir ...``

Before handing over to :func:`repro.cli.main`, the launcher wraps the public
calls of each layer, patching every name where its caller looks it up (a
function bound by ``from ... import`` in another module is patched in that
module).  Spans carry ``time.monotonic()``, the system-wide monotonic clock
the benchmark client also stamps requests with.  They stay in memory and
are written to ``--trace-out`` as one JSON document when the server stops.
``src/`` is not modified.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name) for every synchronous entry point.
SYNC_PATCHES = (
    ("repro.datagen.generator", "SyntheticRecipeDBGenerator.generate", "datagen.generate"),
    ("repro.serve.service", "save_json", "recipedb.save"),
    ("repro.serve.service", "load_json", "recipedb.load"),
    ("repro.serve.service", "corpus_fingerprint", "recipedb.fingerprint"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.build_transactions", "recipedb.transactions"),
    ("repro.mining.shm", "CorpusMatrix.from_transactions", "mining.compile"),
    ("repro.mining.shm", "CorpusMatrix.load", "mining.arena_load"),
    ("repro.mining.shm", "CorpusMatrix.save", "mining.arena_save"),
    ("repro.serve.service", "mine_corpus_with_report", "mining.mine"),
    ("repro.serve.service", "mine_regions_with_report", "mining.mine"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.finish_run", "core.finish_run"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.run_elbow", "cluster.elbow"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.run_pattern_clusterings", "cluster.pattern_hac"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.run_fihc", "cluster.fihc"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.run_geographic_clustering", "geo.validation"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.validate_against_geography", "geo.validation"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.check_claims", "geo.validation"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.run_authenticity_clustering", "authenticity.figure5"),
    ("repro.core.pipeline", "CuisineClusteringPipeline.build_fingerprints", "authenticity.fingerprints"),
    # Bound by name twice: Figure 5 and the fingerprints stage each call it.
    ("repro.core.pipeline", "prevalence_matrix", "authenticity.prevalence"),
    ("repro.core.figures", "prevalence_matrix", "authenticity.prevalence"),
    ("repro.serve.codec", "results_to_dict", "codec.encode"),
    ("repro.serve.codec", "mining_to_dict", "codec.encode"),
    ("repro.serve.store", "dumps", "codec.encode"),
    ("repro.serve.codec", "results_from_dict", "codec.decode"),
    ("repro.serve.codec", "mining_from_dict", "codec.decode"),
    ("repro.serve.codec", "loads", "codec.decode"),
    ("repro.serve.store", "ArtifactStore.put", "store.put"),
    ("repro.serve.store", "ArtifactStore.get", "store.get"),
    ("repro.serve.store", "ArtifactStore.exists", "store.exists"),
    ("repro.serve.store", "ArtifactStore.claim", "store.claim"),
    ("repro.serve.service", "AnalysisService.get_or_run", "service.get_or_run"),
    ("repro.serve.aio", "AsyncAnalysisService.describe", "service.describe"),
    ("repro.serve.classify", "CuisineClassifier.from_results", "classify.compile"),
    ("repro.serve.classify", "CuisineClassifier.save", "classify.save"),
    ("repro.serve.classify", "CuisineClassifier.load", "classify.load"),
    ("repro.serve.classify", "CuisineClassifier.classify_batch", "classify.batch"),
    ("repro.serve.queries", "QueryEngine.__init__", "queries.engine_build"),
    ("repro.serve.queries", "QueryEngine.nearest_cuisines", "queries.op"),
    ("repro.serve.queries", "QueryEngine.pattern_search", "queries.op"),
    ("repro.serve.queries", "QueryEngine.top_patterns", "queries.op"),
    ("repro.serve.queries", "QueryEngine.authenticity_profile", "queries.op"),
    ("repro.serve.queries", "QueryEngine.cuisine_profile", "queries.op"),
)

#: Coroutine entry points of the asyncio front door.
ASYNC_PATCHES = (
    ("repro.serve.aio", "AnalysisServer._dispatch", "aio.dispatch"),
    ("repro.serve.aio", "AsyncQueryEngine.nearest_cuisines", "aio.op"),
    ("repro.serve.aio", "AsyncQueryEngine.pattern_search", "aio.op"),
    ("repro.serve.aio", "AsyncQueryEngine.top_patterns", "aio.op"),
    ("repro.serve.aio", "AsyncQueryEngine.authenticity_profile", "aio.op"),
    ("repro.serve.aio", "AsyncQueryEngine.cuisine_profile", "aio.op"),
    ("repro.serve.aio", "AsyncQueryEngine.classify", "aio.op"),
)


class Recorder:
    """In-memory span store: ``(id, parent, name, start, end, tag)`` tuples.

    Synchronous spans nest through a per-thread stack, so a span's parent
    is the enclosing span on the same thread.  Coroutine spans interleave on
    the event loop and are recorded without a parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.jobs: list[tuple] = []  # (aio.op span id or -1, submitted, started)
        self.services: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.current_op: contextvars.ContextVar = contextvars.ContextVar("aio_op", default=None)

    def sync(self, fn, name: str, tag=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            span_id = next(recorder._ids)
            stack.append(span_id)
            returned, result = False, None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                info = tag(result) if tag is not None and returned else None
                recorder.spans.append((span_id, parent, name, start, end, info))

        return wrapper

    def coroutine(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(recorder._ids)
            start = time.monotonic()
            token = recorder.current_op.set(span_id) if name == "aio.op" else None
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                if token is not None:
                    recorder.current_op.reset(token)
                info = {"path": args[2]} if name == "aio.dispatch" else None
                recorder.spans.append((span_id, -1, name, start, end, info))

        return wrapper

    def run_blocking(self, original):
        """Wrap ``AsyncAnalysisService._run_blocking`` to stamp executor hops."""
        recorder = self

        @functools.wraps(original)
        async def wrapper(service, fn, *args):
            op = recorder.current_op.get()
            submitted = time.monotonic()

            def job():
                recorder.jobs.append((-1 if op is None else op, submitted, time.monotonic()))
                return fn(*args)

            return await original(service, job)

        return wrapper

    def document(self) -> dict:
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "jobs": self.jobs,
            "counters": [service.store.stats.to_dict() for service in self.services],
        }


def _mining_tag(outcome):
    results, report = outcome
    dispatch = report.dispatch
    return {
        "mode": dispatch.mode if dispatch is not None else "serial",
        "overhead": dispatch.overhead_seconds if dispatch is not None else 0.0,
        "patterns": sum(len(result) for result in results.values()),
    }


#: What each span records about its call's result.
TAGS = {
    "datagen.generate": lambda database: {"recipes": len(database)},
    "recipedb.save": lambda path: {"bytes": os.path.getsize(path)},
    "mining.mine": _mining_tag,
    "codec.encode": lambda text: {"bytes": len(text.encode("utf-8"))} if isinstance(text, str) else None,
    "store.claim": lambda lease: {"won": lease is not None},
    "service.get_or_run": lambda served: {"source": served.source},
    "classify.batch": lambda classifications: {"recipes": len(classifications)},
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _patch(owner, attribute: str, wrap) -> None:
    raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        setattr(owner, attribute, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attribute, staticmethod(wrap(raw.__func__)))
    else:
        setattr(owner, attribute, wrap(raw))


def install(recorder: Recorder) -> None:
    """Patch every entry point in :data:`SYNC_PATCHES` and :data:`ASYNC_PATCHES`."""
    for module_name, path, name in SYNC_PATCHES:
        owner, attribute = _resolve(module_name, path)
        _patch(owner, attribute, lambda fn, name=name: recorder.sync(fn, name, TAGS.get(name)))
    for module_name, path, name in ASYNC_PATCHES:
        owner, attribute = _resolve(module_name, path)
        _patch(owner, attribute, lambda fn, name=name: recorder.coroutine(fn, name))
    aio = importlib.import_module("repro.serve.aio")
    _patch(aio.AsyncAnalysisService, "_run_blocking", recorder.run_blocking)
    service = importlib.import_module("repro.serve.service")
    original_init = service.AnalysisService.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        recorder.services.append(self)

    service.AnalysisService.__init__ = init


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: launch.py --trace-out FILE -- <repro.cli arguments>", file=sys.stderr)
        return 2
    trace_out, cli_args = argv[1], argv[3:]
    recorder = Recorder()
    install(recorder)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.document(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
