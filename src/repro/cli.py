"""Command-line interface for the reproduction library.

Subcommands:

* ``generate`` -- generate a synthetic RecipeDB corpus and write it to disk
  (JSON, JSONL or CSV depending on the output file extension);
* ``mine`` -- mine frequent patterns per cuisine and print the reproduced
  Table I;
* ``analyze`` -- run the full pipeline and write a markdown report (``--json``
  emits the summary dict as JSON on stdout instead);
* ``figures`` -- print one figure artefact (elbow series or ASCII dendrogram);
* ``serve-warm`` -- populate the serve cache for the given config;
* ``serve`` -- run the async HTTP/JSON serving front-end (request
  coalescing, background refresh; see ``docs/serving.md``);
* ``serve-stats`` -- print serve-cache statistics (persisted artifacts, the
  store's configuration incl. active eviction policy specs, and its traffic
  counters);
* ``query`` -- read-path queries against a cached analysis (nearest cuisines,
  pattern search, authenticity profiles, cuisine cards);
* ``classify`` -- classify ingredient lists against the cached cuisines;
* ``store-migrate`` -- move cached artifacts between storage backends or
  directory layouts.

Every serve subcommand takes ``--store-backend`` (sharded ``directory``
default, ``sqlite``, ``memory``), ``--store-shards`` for the directory
layout, and ``--eviction`` / ``--disk-eviction`` policy specs such as
``lru:32+ttl:600`` or ``maxbytes:1048576`` (see ``docs/storage-engine.md``).

Example::

    repro-cuisines analyze --scale 0.05 --report report.md
    repro-cuisines serve-warm --cache-dir .repro-cache
    repro-cuisines serve --cache-dir .repro-cache --port 8340 --refresh ttl:600
    repro-cuisines query --cache-dir .repro-cache --nearest Japanese
    repro-cuisines classify --cache-dir .repro-cache "soy sauce, mirin, rice"
    repro-cuisines store-migrate --cache-dir .repro-cache --to-backend sqlite
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.core.config import AnalysisConfig
from repro.core.pipeline import CuisineClusteringPipeline
from repro.core.table1 import compare_with_paper
from repro.errors import ReproError
from repro.recipedb import load_csv, load_json, load_jsonl, save_csv, save_json, save_jsonl
from repro.recipedb.database import RecipeDatabase
from repro.serve import (
    AnalysisServer,
    AnalysisService,
    ArtifactStore,
    AsyncAnalysisService,
    CuisineClassifier,
    QueryEngine,
)
from repro.serve.backends import BACKEND_NAMES, DEFAULT_SHARDS, create_backend
from repro.serve.eviction import parse_policy
from repro.serve.faults import FaultInjectingBackend, parse_fault_plan
from repro.serve.migrate import migrate_backend
from repro.serve.resilience import ResilientBackend, RetryPolicy
from repro.serve.service import DEFAULT_LEASE_TTL, DEFAULT_LEASE_WAIT
from repro.viz.ascii_dendrogram import render_dendrogram
from repro.viz.report import write_report
from repro.viz.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cuisines",
        description="Reproduction of 'Hierarchical Clustering of World Cuisines'",
    )
    parser.add_argument("--seed", type=int, default=2020, help="random seed (default 2020)")
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="fraction of the paper's corpus size to generate (default 0.05)",
    )
    parser.add_argument(
        "--min-support",
        type=float,
        default=0.20,
        help="minimum pattern support (default 0.20, the paper's threshold)",
    )
    parser.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="optional path to an existing corpus (.json / .jsonl / .csv)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("output", type=Path, help="output path (.json / .jsonl / .csv)")

    mine = subparsers.add_parser("mine", help="mine patterns and print Table I")
    mine.add_argument(
        "--compare-paper",
        action="store_true",
        help="also print the paper-vs-measured comparison",
    )

    analyze = subparsers.add_parser("analyze", help="run the full pipeline")
    analyze.add_argument(
        "--report", type=Path, default=None, help="write a markdown report to this path"
    )
    analyze.add_argument(
        "--summary-json", type=Path, default=None, help="write the JSON summary to this path"
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the summary dict as JSON on stdout (machine-readable)",
    )

    figures = subparsers.add_parser("figures", help="print a single figure artefact")
    figures.add_argument(
        "--figure",
        choices=["figure1", "figure2", "figure3", "figure4", "figure5", "figure6"],
        default="figure2",
        help="which figure to print (default figure2)",
    )

    def add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            type=Path,
            default=Path(".repro-cache"),
            help="serve-cache directory (default .repro-cache)",
        )

    def add_store_options(sub: argparse.ArgumentParser) -> None:
        add_cache_dir(sub)
        sub.add_argument(
            "--store-backend",
            choices=list(BACKEND_NAMES),
            default="directory",
            help="artifact storage backend (default directory)",
        )
        sub.add_argument(
            "--store-shards",
            type=int,
            default=DEFAULT_SHARDS,
            metavar="N",
            help=f"directory-backend shard count, 0 = flat legacy layout "
                 f"(default {DEFAULT_SHARDS})",
        )
        sub.add_argument(
            "--eviction",
            metavar="SPEC",
            default=None,
            help="memory-front eviction policy, e.g. lru:32, ttl:600, "
                 "maxbytes:1048576 or compositions like lru:32+ttl:600 "
                 "(default lru bounded by the store's memory capacity)",
        )
        sub.add_argument(
            "--disk-eviction",
            metavar="SPEC",
            default=None,
            help="eviction policy applied to the backend after writes "
                 "(bounds what stays durable; off by default)",
        )
        sub.add_argument(
            "--resilient",
            action="store_true",
            help="wrap the backend in retries + a circuit breaker: transient "
                 "faults are retried with deterministic backoff, a tripped "
                 "breaker degrades to recompute instead of failing requests",
        )
        sub.add_argument(
            "--store-retries",
            type=int,
            default=3,
            metavar="N",
            help="max attempts per storage operation under --resilient "
                 "(default 3)",
        )
        sub.add_argument(
            "--inject-faults",
            metavar="SPEC",
            default=None,
            help="deterministic fault plan for chaos runs, e.g. "
                 "'read:1-2:oserror;write:%%3:locked' "
                 "(see docs/resilience.md for the grammar)",
        )
        sub.add_argument(
            "--no-leases",
            action="store_true",
            help="disable store-level compute leases (fleet-wide "
                 "single-compute coordination; on by default)",
        )
        sub.add_argument(
            "--lease-ttl",
            type=float,
            default=DEFAULT_LEASE_TTL,
            metavar="SECONDS",
            help="compute-lease time to live; a crashed compute's key "
                 f"becomes stealable after this long (default {DEFAULT_LEASE_TTL:g})",
        )
        sub.add_argument(
            "--lease-wait",
            type=float,
            default=DEFAULT_LEASE_WAIT,
            metavar="SECONDS",
            help="max seconds a request waits for another process's compute "
                 f"before a retryable 503 (default {DEFAULT_LEASE_WAIT:g})",
        )

    warm = subparsers.add_parser(
        "serve-warm", help="populate the serve cache for this config"
    )
    add_store_options(warm)

    serve = subparsers.add_parser(
        "serve", help="run the async HTTP/JSON serving front-end"
    )
    add_store_options(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8340, help="bind port, 0 = ephemeral (default 8340)"
    )
    serve.add_argument(
        "--serve-threads",
        type=int,
        default=4,
        metavar="N",
        help="executor threads computing concurrent distinct configs (default 4)",
    )
    serve.add_argument(
        "--refresh",
        metavar="SPEC",
        default=None,
        help="background-refresh staleness policy as an eviction spec, ttl "
             "terms only (e.g. ttl:600: re-warm analyses older than 600s; "
             "off by default)",
    )
    serve.add_argument(
        "--refresh-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds between background refresher sweeps (default 30)",
    )
    serve.add_argument(
        "--warm",
        action="store_true",
        help="precompute the configured analysis before accepting requests",
    )
    serve.add_argument(
        "--compute-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="max seconds a request waits on one compute before a 503 "
             "(the compute keeps running and lands in the cache; "
             "default: wait forever)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N requests (smoke tests; default: serve forever)",
    )

    stats = subparsers.add_parser(
        "serve-stats", help="print serve-cache statistics (artifacts + traffic)"
    )
    add_store_options(stats)
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the statistics as JSON on stdout (machine-readable)",
    )

    migrate = subparsers.add_parser(
        "store-migrate", help="move cached artifacts between storage backends"
    )
    migrate.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".repro-cache"),
        help="source cache directory (default .repro-cache)",
    )
    migrate.add_argument(
        "--from-backend",
        choices=list(BACKEND_NAMES),
        default="directory",
        help="source backend (default directory)",
    )
    migrate.add_argument(
        "--to-backend",
        choices=list(BACKEND_NAMES),
        required=True,
        help="destination backend",
    )
    migrate.add_argument(
        "--dest-cache-dir",
        type=Path,
        default=None,
        help="destination cache directory (default: same as --cache-dir)",
    )
    migrate.add_argument(
        "--from-shards",
        type=int,
        default=DEFAULT_SHARDS,
        metavar="N",
        help=f"source directory layout, 0 = flat (default {DEFAULT_SHARDS})",
    )
    migrate.add_argument(
        "--to-shards",
        type=int,
        default=DEFAULT_SHARDS,
        metavar="N",
        help=f"destination directory layout, 0 = flat (default {DEFAULT_SHARDS})",
    )
    migrate.add_argument(
        "--delete-source",
        action="store_true",
        help="remove each artifact from the source after copying (a move)",
    )
    migrate.add_argument(
        "--json",
        action="store_true",
        help="print the migration report as JSON on stdout",
    )

    query = subparsers.add_parser(
        "query", help="read-path queries against the cached analysis"
    )
    add_store_options(query)
    query.add_argument("--nearest", metavar="CUISINE", help="k nearest cuisines")
    query.add_argument(
        "--figure",
        choices=["figure2", "figure3", "figure4", "figure5", "figure6"],
        default="figure2",
        help="clustering view for --nearest (default figure2)",
    )
    query.add_argument("--k", type=int, default=5, help="result count (default 5)")
    query.add_argument(
        "--patterns",
        metavar="ITEMS",
        help="comma-separated items; find patterns containing all of them",
    )
    query.add_argument(
        "--authenticity", metavar="ITEM", help="authenticity of one item per cuisine"
    )
    query.add_argument("--cuisine", metavar="CUISINE", help="full cuisine summary card")

    classify = subparsers.add_parser(
        "classify", help="classify ingredient lists against the cached cuisines"
    )
    add_store_options(classify)
    classify.add_argument(
        "recipes",
        nargs="*",
        metavar="RECIPE",
        help="each recipe as one comma-separated ingredient list",
    )
    classify.add_argument(
        "--input",
        type=Path,
        default=None,
        help="JSON file with a list of ingredient lists (batch mode)",
    )
    classify.add_argument(
        "--top", type=int, default=3, help="how many ranked cuisines to print (default 3)"
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(seed=args.seed, scale=args.scale, min_support=args.min_support)


def _load_corpus(path: Path) -> RecipeDatabase:
    suffix = path.suffix.lower()
    if suffix == ".json":
        return load_json(path)
    if suffix == ".jsonl":
        return load_jsonl(path)
    if suffix == ".csv":
        return load_csv(path)
    raise ReproError(f"unsupported corpus format: {suffix!r} (use .json, .jsonl or .csv)")


def _save_corpus(database: RecipeDatabase, path: Path) -> None:
    suffix = path.suffix.lower()
    if suffix == ".json":
        save_json(database, path)
    elif suffix == ".jsonl":
        save_jsonl(database, path)
    elif suffix == ".csv":
        save_csv(database, path)
    else:
        raise ReproError(f"unsupported corpus format: {suffix!r} (use .json, .jsonl or .csv)")


def _resolve_corpus(args: argparse.Namespace, pipeline: CuisineClusteringPipeline) -> RecipeDatabase:
    if args.corpus is not None:
        return _load_corpus(args.corpus)
    return pipeline.build_corpus()


def _command_generate(args: argparse.Namespace) -> int:
    pipeline = CuisineClusteringPipeline(_config_from_args(args))
    database = pipeline.build_corpus()
    _save_corpus(database, args.output)
    print(f"wrote {len(database)} recipes across {len(database.region_names())} cuisines "
          f"to {args.output}")
    return 0


def _command_mine(args: argparse.Namespace) -> int:
    pipeline = CuisineClusteringPipeline(_config_from_args(args))
    database = _resolve_corpus(args, pipeline)
    mining_results = pipeline.mine_patterns(database)
    table = pipeline.build_table1(database, mining_results)
    print(
        format_table(
            table.to_dicts(),
            ["region", "n_recipes", "top_pattern", "support", "n_patterns"],
            title="Table I (reproduced)",
        )
    )
    if args.compare_paper:
        print()
        print(
            format_table(
                compare_with_paper(table),
                [
                    "region",
                    "paper_top_pattern",
                    "measured_top_pattern",
                    "paper_support",
                    "measured_support",
                    "headline_item_overlap",
                ],
                title="Paper vs measured",
            )
        )
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    pipeline = CuisineClusteringPipeline(_config_from_args(args))
    database = _resolve_corpus(args, pipeline)
    results = pipeline.run(database)
    summary = results.summary()
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
    else:
        best_name, best = results.best_geography_match()
        print(f"analyzed {summary['n_recipes']} recipes across {summary['n_regions']} cuisines")
        print(f"total mined patterns: {summary['total_patterns']}")
        print(f"clear elbow in Figure 1: {'yes' if results.elbow.has_clear_elbow else 'no'}")
        print(f"best geography match: {best_name} (Baker's gamma {best.bakers_gamma:.3f})")
    if args.report is not None:
        path = write_report(results, args.report)
        print(f"report written to {path}", file=sys.stderr)
    if args.summary_json is not None:
        args.summary_json.parent.mkdir(parents=True, exist_ok=True)
        args.summary_json.write_text(json.dumps(summary, indent=2, default=str), encoding="utf-8")
        print(f"summary written to {args.summary_json}", file=sys.stderr)
    return 0


def _command_figures(args: argparse.Namespace) -> int:
    pipeline = CuisineClusteringPipeline(_config_from_args(args))
    database = _resolve_corpus(args, pipeline)
    results = pipeline.run(database)
    if args.figure == "figure1":
        print(format_table(results.elbow.to_rows(), ["k", "wcss"], title="Figure 1 — WCSS vs k"))
    else:
        run = results.run_for(args.figure)
        print(f"{args.figure}: metric={run.metric}, linkage={run.method}")
        print(render_dendrogram(run.dendrogram))
    return 0


def _store_for(args: argparse.Namespace) -> ArtifactStore:
    backend = create_backend(
        getattr(args, "store_backend", "directory"),
        args.cache_dir,
        shards=getattr(args, "store_shards", DEFAULT_SHARDS),
    )
    # Wrap order matters: faults innermost (they impersonate backend I/O
    # errors), resilience outermost (its retries absorb the injected faults
    # exactly as they would absorb real ones).  Only the explicit flag arms
    # the harness here -- $REPRO_FAULT_PLAN drives the *test suite's* chaos
    # wrap, and ambient fault injection in a real CLI run would be a trap.
    plan = parse_fault_plan(getattr(args, "inject_faults", None) or "")
    if plan:
        backend = FaultInjectingBackend(backend, plan)
    if getattr(args, "resilient", False):
        retries = getattr(args, "store_retries", 3)
        backend = ResilientBackend(backend, retry=RetryPolicy(max_attempts=retries))
    memory_spec = getattr(args, "eviction", None)
    disk_spec = getattr(args, "disk_eviction", None)
    memory_policy = parse_policy(memory_spec) if memory_spec is not None else None
    disk_policy = parse_policy(disk_spec) if disk_spec is not None else None
    return ArtifactStore(
        backend=backend, memory_policy=memory_policy, disk_policy=disk_policy
    )


def _service_for(args: argparse.Namespace) -> AnalysisService:
    return AnalysisService(
        _store_for(args),
        leases=not getattr(args, "no_leases", False),
        lease_ttl=getattr(args, "lease_ttl", DEFAULT_LEASE_TTL),
        lease_wait=getattr(args, "lease_wait", DEFAULT_LEASE_WAIT),
    )


def _serve_analysis(args: argparse.Namespace, service: AnalysisService):
    """Serve the analysis for the CLI args, honouring the global --corpus.

    An explicit corpus bypasses the cache: the cache key only covers the
    config, which cannot describe an arbitrary external corpus.
    """
    config = _config_from_args(args)
    if args.corpus is not None:
        return service.get_or_run(config, database=_load_corpus(args.corpus))
    return service.get_or_run(config)


def _command_serve_warm(args: argparse.Namespace) -> int:
    if args.corpus is not None:
        raise ReproError(
            "serve-warm cannot warm the cache from --corpus: cache keys only "
            "cover the config (seed/scale/support), not external corpora"
        )
    service = _service_for(args)
    served = service.get_or_run(_config_from_args(args))
    print(
        f"cache {'hit' if served.source != 'computed' else 'miss'}: "
        f"analysis {served.key[:12]} served from {served.source} "
        f"in {served.elapsed_seconds:.3f}s"
        + (" (mining reused)" if served.mining_reused else "")
    )
    print(f"cached analyses in {args.cache_dir}: {len(service.cached_keys())}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.corpus is not None:
        raise ReproError(
            "serve cannot use --corpus: cache keys only cover the config "
            "(seed/scale/support), not external corpora"
        )
    service = _service_for(args)
    config = _config_from_args(args)

    async def _run() -> None:
        async_service = AsyncAnalysisService(
            service,
            max_threads=args.serve_threads,
            refresh_policy=args.refresh,
            refresh_interval=args.refresh_interval,
            compute_deadline=args.compute_deadline,
        )
        server = AnalysisServer(
            async_service,
            host=args.host,
            port=args.port,
            request_limit=args.max_requests,
        )
        try:
            host, port = await server.start()
            if args.warm:
                served = await async_service.get(config)
                print(
                    f"warmed analysis {served.key[:12]} from {served.source} "
                    f"in {served.elapsed_seconds:.3f}s",
                    flush=True,
                )
            print(f"serving on http://{host}:{port} (Ctrl-C to stop)", flush=True)
            await server.serve_until_done()
        finally:
            await server.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _command_serve_stats(args: argparse.Namespace) -> int:
    service = _service_for(args)
    payload = service.describe()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    store = service.store
    print(
        f"serve cache at {store.root} [{store.backend.describe()}] "
        f"({store.total_bytes()} bytes stored)"
    )
    configuration = [
        {"setting": "eviction", "value": payload["eviction"]},
        {"setting": "disk_eviction", "value": payload["disk_eviction"]},
        {"setting": "max_memory_entries", "value": payload["max_memory_entries"]},
    ]
    print(
        format_table(
            configuration,
            ["setting", "value"],
            title="Store configuration (active policy specs)",
        )
    )
    print()
    artifacts = payload["artifacts"]
    print(
        format_table(
            [{"artifact": name, "count": count} for name, count in artifacts.items()],
            ["artifact", "count"],
            title="Persisted artifacts",
        )
    )
    print()
    counters = payload["counters"]
    print(
        format_table(
            [{"counter": name, "value": value} for name, value in counters.items()],
            ["counter", "value"],
            title="Store traffic (this process)",
        )
    )
    return 0


def _command_store_migrate(args: argparse.Namespace) -> int:
    destination_dir = args.dest_cache_dir if args.dest_cache_dir is not None else args.cache_dir
    if args.from_backend == args.to_backend and destination_dir == args.cache_dir:
        # directory layouts can still differ by shard count; every other
        # backend pair over one cache dir is the same storage location.
        if args.from_backend != "directory" or args.from_shards == args.to_shards:
            raise ReproError(
                "source and destination are the same storage location; change "
                "--to-backend, --dest-cache-dir or (for directory) --to-shards"
            )
    if args.from_backend == "memory":
        raise ReproError(
            "cannot migrate from the memory backend: it is ephemeral and "
            "empty in a fresh process"
        )
    source = create_backend(args.from_backend, args.cache_dir, shards=args.from_shards)
    destination = create_backend(args.to_backend, destination_dir, shards=args.to_shards)
    report = migrate_backend(source, destination, delete_source=args.delete_source)
    source.close()
    destination.close()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    print(f"migrated {report.migrated} artifacts ({report.bytes_moved} bytes) "
          f"from {report.source} to {report.destination}")
    for kind, count in sorted(report.per_kind.items()):
        print(f"  {kind}: {count}")
    if report.skipped_corrupt:
        print(f"skipped {report.skipped_corrupt} corrupt artifacts (quarantined at source)")
    if args.delete_source:
        print(f"removed {report.deleted_source} artifacts from the source")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    service = _service_for(args)
    served = _serve_analysis(args, service)
    engine = QueryEngine(served.results)
    ran_any = False
    if args.nearest is not None:
        ran_any = True
        rows = [
            {"cuisine": name, "distance": distance}
            for name, distance in engine.nearest_cuisines(
                args.nearest, k=args.k, figure=args.figure
            )
        ]
        print(
            format_table(
                rows,
                ["cuisine", "distance"],
                title=f"Nearest to {args.nearest} ({args.figure})",
            )
        )
    if args.patterns is not None:
        ran_any = True
        items = [item.strip() for item in args.patterns.split(",") if item.strip()]
        hits = engine.pattern_search(items, limit=args.k)
        print(
            format_table(
                [hit.to_dict() for hit in hits],
                ["region", "pattern", "support", "length"],
                title=f"Patterns containing {', '.join(items)}",
            )
        )
    if args.authenticity is not None:
        ran_any = True
        profile = engine.authenticity_profile(args.authenticity)
        rows = [
            {"cuisine": cuisine, "authenticity": value} for cuisine, value in profile.items()
        ]
        print(
            format_table(
                rows,
                ["cuisine", "authenticity"],
                title=f"Authenticity of {args.authenticity}",
            )
        )
    if args.cuisine is not None:
        ran_any = True
        print(json.dumps(engine.cuisine_profile(args.cuisine, k=args.k), indent=2))
    if not ran_any:
        print(
            "nothing to query: pass --nearest, --patterns, --authenticity or --cuisine",
            file=sys.stderr,
        )
        return 1
    return 0


def _parse_recipes(args: argparse.Namespace) -> list[list[str]]:
    recipes: list[list[str]] = [
        [item.strip() for item in recipe.split(",") if item.strip()]
        for recipe in args.recipes
    ]
    if args.input is not None:
        try:
            payload = json.loads(args.input.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read recipes from {args.input}: {exc}") from exc
        if not isinstance(payload, list):
            raise ReproError("--input must contain a JSON list of ingredient lists")
        for entry in payload:
            if isinstance(entry, str):
                recipes.append([item.strip() for item in entry.split(",") if item.strip()])
            elif isinstance(entry, list):
                recipes.append([str(item) for item in entry])
            else:
                raise ReproError(
                    "--input entries must be ingredient lists or comma-separated strings"
                )
    recipes = [recipe for recipe in recipes if recipe]
    if not recipes:
        raise ReproError("no recipes to classify (pass RECIPE arguments or --input)")
    return recipes


def _command_classify(args: argparse.Namespace) -> int:
    recipes = _parse_recipes(args)  # validate arguments before any compute
    service = _service_for(args)
    served = _serve_analysis(args, service)
    if args.corpus is not None:
        # An external corpus bypasses the cache, so its classifier cannot be
        # keyed by config either: compile directly from the served results.
        classifier = CuisineClassifier.from_results(served.results)
    else:
        classifier = service.classifier_for(
            _config_from_args(args), results=served.results
        )
    top_k = max(1, args.top)
    for recipe, classification in zip(
        recipes, classifier.classify_batch(recipes, top_k=top_k)
    ):
        ranked = classification.ranked()
        scores = ", ".join(f"{name} ({score:.3f})" for name, score in ranked)
        print(f"{', '.join(recipe)} -> {scores}")
        if classification.unknown_items:
            print(
                f"  (unknown items ignored: {', '.join(classification.unknown_items)})",
                file=sys.stderr,
            )
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "mine": _command_mine,
    "analyze": _command_analyze,
    "figures": _command_figures,
    "serve-warm": _command_serve_warm,
    "serve": _command_serve,
    "serve-stats": _command_serve_stats,
    "store-migrate": _command_store_migrate,
    "query": _command_query,
    "classify": _command_classify,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
