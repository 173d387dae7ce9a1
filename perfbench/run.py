"""Run one benchmark workload against a live server and print its metrics.

    python3 perfbench/run.py --workload cold-analyze --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``cold-analyze``
    A fresh server on an empty cache; one connection runs a closed loop of
    ``POST /analyze`` at scale 0.2, a different corpus seed per request, so
    every request is a full cold compute.
``read-mix``
    Three configs at scale 0.05 are warmed; two keep-alive connections run
    a closed loop over a seeded trace of queries, classifications, warm
    analyses, probes and malformed requests.

Every answer is checked against ``perfbench/reference.json``; after the
server stops, the persisted analyses are read back and checked too.  The
last line of standard output is the JSON result; the lines before it are a
table of the metrics with their sample counts.  With ``--trace 1`` the run
makes an untraced pass and then a traced pass of the same workload and
prints the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
# The oracle reads persisted analyses back with the program's own codec.
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import harness, layers, mix, oracle  # noqa: E402
from perfbench.harness import Connection, Server  # noqa: E402

WORKLOADS = ("cold-analyze", "read-mix")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
READ_CONNECTIONS = 2
#: The latency a failed request counts as: beyond any limit, yet finite JSON.
FAILED_LATENCY = 3600.0
#: Failed operations described on standard error, per pass.
MAX_REPORTED_FAILURES = 10
#: Cold computes the cold-analyze memory peak covers.  The server keeps
#: recent analyses in memory, so its peak grows with each compute; read
#: after a fixed count that every run reaches, a faster server that fits
#: more computes into the window does not read as using more memory.
COLD_PEAK_COMPUTES = 2


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    declared = json.loads(harness.BENCHMARK.read_text())
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


@dataclass
class Sample:
    """One request: its category, monotonic send/receive stamps and verdict."""

    category: str
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds; a failed request counts as missing any latency limit."""
        return self.end - self.start if self.ok else FAILED_LATENCY


@dataclass
class Outcome:
    """Everything one pass of a workload measured."""

    setup_times: list[float] = field(default_factory=list)
    setup_window: tuple[float, float] = (0.0, 0.0)
    samples: list[Sample] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    served: list[dict] = field(default_factory=list)
    connects: int = 0
    connections: int = 0
    traces: list[Path] = field(default_factory=list)


class Context:
    """Per-pass state: work directory, references, verdict counters."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.references = oracle.load_references()
        self.checker = oracle.BodyChecker(self.references["responses"])
        self.outcome = Outcome()
        self.servers: list[Server] = []
        self._lock = threading.Lock()

    def server(self, cache: Path) -> Server:
        number = len(self.servers)
        trace = self.work / f"trace-{number}.json" if self.traced else None
        self.servers.append(Server(cache, self.work / f"server-{number}.log", trace))
        return self.servers[-1]

    def send(self, connection: Connection, request: mix.Request) -> tuple[bool, bytes, Sample]:
        """Send one request and check its answer; every call is one operation."""
        start = time.monotonic()
        try:
            status, body = connection.request(request.raw)
        except ConnectionError:
            status, body = None, b""
        end = time.monotonic()
        ok = status == request.status and (
            status != 200 or self.checker.ok(request.id, request.check, body)
        )
        with self._lock:
            self.outcome.attempted += 1
            self.outcome.failed += 0 if ok else 1
            if not ok and self.outcome.failed <= MAX_REPORTED_FAILURES:
                print(f"failed: {request.id} status={status} body={body[:160]!r}", file=sys.stderr)
        return ok, body, Sample(request.category, start, end, ok)

    def count(self, ok: bool) -> None:
        with self._lock:
            self.outcome.attempted += 1
            self.outcome.failed += 0 if ok else 1
            if not ok:
                print("failed: a persisted analysis does not match its reference", file=sys.stderr)

    def served(self, body: bytes) -> None:
        self.outcome.served.append(json.loads(body)["served"])

    def write_inputs(self, name: str, payload: object) -> None:
        """Keep the generated inputs so any run can be replayed."""
        inputs = harness.WORK_ROOT / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / f"{self.workload}-seed{self.seed}-{name}.json").write_text(json.dumps(payload))


def _repeat_setup(ctx: Context, setup):
    """Run *setup* SETUP_REPEATS times, keep the last, record each duration."""
    for attempt in range(SETUP_REPEATS):
        root = ctx.work / f"setup-{attempt}"
        started = time.monotonic()
        state = setup(root)
        ctx.outcome.setup_times.append(time.monotonic() - started)
        ctx.outcome.setup_window = (started, time.monotonic())
        if attempt < SETUP_REPEATS - 1:
            state.close()
            shutil.rmtree(root, ignore_errors=True)
    return state


@dataclass
class Live:
    """A set-up server with its open connection(s)."""

    server: Server
    connections: list[Connection]
    root: Path

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.stop()


def _check_persisted(ctx: Context, cache: Path, references: dict[str, str], keys) -> None:
    """Every persisted analysis, read back, is one operation; a wrong,
    missing or unexpected one is one failure.  *keys* are the analyses the
    run asked for; *references* maps each to its recorded digest."""
    expected = {key: references[key] for key in keys}
    found = oracle.persisted_digests(cache)
    for key in set(found) | set(expected):
        ctx.count(found.get(key) == expected.get(key))


# -- cold-analyze ----------------------------------------------------------------------


def cold_analyze(ctx: Context) -> None:
    refs = ctx.references["cold-analyze"]
    plan = mix.cold_plan(ctx.seed)
    ctx.write_inputs("plan", plan)
    warmup = mix.Request("cold.warmup", mix.analyze_request(mix.WARMUP_CONFIG), 200, "analyze", "analyze")

    def setup(root: Path) -> Live:
        server = ctx.server(root / "cache").start()
        connection = Connection(server.port)
        ctx.send(connection, warmup)
        return Live(server, [connection], root)

    live = _repeat_setup(ctx, setup)
    connection = live.connections[0]
    sent = [refs["warmup_key"]]
    started = time.monotonic()
    for corpus_seed in plan:
        if time.monotonic() - started >= ctx.seconds:
            break
        request = mix.Request(
            f"cold.{corpus_seed}",
            mix.analyze_request({"seed": corpus_seed, "scale": mix.COLD_SCALE}),
            200,
            "analyze",
            "analyze",
        )
        ok, body, sample = ctx.send(connection, request)
        ctx.outcome.samples.append(sample)
        if ok:
            ctx.served(body)
        sent.append(refs["keys"][str(corpus_seed)])
        if len(ctx.outcome.samples) == COLD_PEAK_COMPUTES:
            ctx.outcome.peak_rss_mb = live.server.peak_rss_mb()
    ctx.outcome.windows.append((started, time.monotonic()))
    ctx.outcome.peak_rss_mb = ctx.outcome.peak_rss_mb or live.server.peak_rss_mb()
    ctx.outcome.connects, ctx.outcome.connections = connection.connects, 1
    live.close()
    ctx.outcome.traces.append(live.server.trace_path)
    _check_persisted(ctx, live.root / "cache", refs["artifacts"], sent)


# -- read-mix --------------------------------------------------------------------------


def read_mix(ctx: Context) -> None:
    pool = mix.read_pool()
    trace = mix.read_trace(ctx.seed, pool)
    ctx.write_inputs("trace", trace)

    def setup(root: Path) -> Live:
        server = ctx.server(root / "cache").start()
        connection = Connection(server.port)
        for index in pool.warmup:
            ctx.send(connection, pool.entries[index])
        connection.close()
        connections = [Connection(server.port) for _ in range(READ_CONNECTIONS)]
        return Live(server, connections, root)

    live = _repeat_setup(ctx, setup)
    cursor = itertools.count()
    results: list[list[Sample]] = [[] for _ in live.connections]
    started = time.monotonic()
    deadline = started + ctx.seconds

    def client(connection: Connection, samples: list[Sample]) -> None:
        while time.monotonic() < deadline:
            request = pool.entries[trace[next(cursor) % len(trace)]]
            ok, body, sample = ctx.send(connection, request)
            samples.append(sample)
            if ok and request.category == "analyze":
                ctx.served(body)

    threads = [
        threading.Thread(target=client, args=(connection, samples), daemon=True)
        for connection, samples in zip(live.connections, results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(ctx.seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a read-mix client did not finish")
    ctx.outcome.samples = [sample for samples in results for sample in samples]
    ctx.outcome.windows.append((started, time.monotonic()))
    ctx.outcome.peak_rss_mb = live.server.peak_rss_mb()
    ctx.outcome.connects = sum(c.connects for c in live.connections)
    ctx.outcome.connections = len(live.connections)
    live.close()
    ctx.outcome.traces.append(live.server.trace_path)


RUNNERS = {"cold-analyze": cold_analyze, "read-mix": read_mix}


def run_pass(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(workload, seed, seconds, traced, work)
    try:
        RUNNERS[workload](ctx)
    finally:
        for server in ctx.servers:
            server.stop()
    return ctx.outcome


# -- metrics ---------------------------------------------------------------------------


def end_to_end(outcome: Outcome) -> dict[str, tuple[float, int]]:
    """The end-to-end metrics: name -> (value, sample count)."""
    samples = outcome.samples
    latencies = [s.latency for s in samples]
    active = sum(high - low for low, high in outcome.windows)
    completed = sum(1 for s in samples if s.ok)
    return {
        "setup_s": (harness.median(outcome.setup_times), len(outcome.setup_times)),
        "peak_rss_mb": (outcome.peak_rss_mb, 1),
        "rps": (completed / active, len(samples)),
        "p50_ms": (1000 * harness.median(latencies), len(latencies)),
    }


def _share(items, has) -> tuple[float, int]:
    """``(share of *items* for which *has* holds, sample count)``."""
    items = list(items)
    return sum(1 for item in items if has(item)) / max(1, len(items)), len(items)


def property_shares(outcome: Outcome) -> dict[str, tuple[float, int]]:
    """Shares of operations with each property a later optimisation may key on."""
    served = outcome.served
    computed = [s for s in served if s["source"] == "computed"]
    return {
        "analyze.computed_share": _share(served, lambda s: s["source"] == "computed"),
        "analyze.memory_share": _share(served, lambda s: s["source"] == "memory"),
        "analyze.disk_share": _share(served, lambda s: s["source"] == "disk"),
        "mining.fresh": _share(computed, lambda s: not s["mining_reused"]),
        "aio.coalesced_ratio": _share(served, lambda s: s["coalesced"]),
        "mix.malformed_share": _share(outcome.samples, lambda s: s.category == "malformed"),
    }


def per_layer(
    workload: str, plain: Outcome, traced: Outcome
) -> tuple[dict[str, tuple[float, int]], list[str]]:
    documents = [json.loads(path.read_text()) for path in traced.traces if path is not None]
    metrics, missing = layers.layer_metrics(
        workload,
        documents,
        traced.setup_window,
        traced.windows,
        traced.samples,
        traced.connects,
        traced.connections,
    )
    metrics.update(property_shares(traced))
    untraced, with_spans = end_to_end(plain), end_to_end(traced)
    for name, (value, n) in untraced.items():
        metrics[f"overhead.{name}"] = (with_spans[name][0] / value - 1.0, min(n, with_spans[name][1]))
    return metrics, missing


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, count in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} n={count}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark at {harness.SRC / 'repro'}", file=sys.stderr)
        return 2

    units = declared_units("per_layer" if args.trace else "end_to_end")
    e2e_units = declared_units("end_to_end")
    work = harness.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plain = run_pass(args.workload, args.seed, args.seconds, False, work / "plain")
        attempted, failed = plain.attempted, plain.failed
        e2e = end_to_end(plain)
        rows = [(name, value, e2e_units[name], n) for name, (value, n) in e2e.items()]
        _print_table(f"{args.workload} seed={args.seed} (untraced)", rows)
        if args.trace:
            traced = run_pass(args.workload, args.seed, args.seconds, True, work / "traced")
            attempted, failed = attempted + traced.attempted, failed + traced.failed
            layer_values, missing = per_layer(args.workload, plain, traced)
            if missing:
                print(f"error: no spans recorded for layers {missing}", file=sys.stderr)
                return 3
            _print_table(
                f"{args.workload} seed={args.seed} (traced, per layer; n=0: not measured here)",
                [(name, value, units[name], n) for name, (value, n) in layer_values.items()],
            )
            values = {name: value for name, (value, _) in layer_values.items()}
        else:
            values = {name: value for name, (value, _) in e2e.items()}
        # A metric computed but not declared in BENCHMARK.json raises here.
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # A terminated run still stops its servers (run_pass's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
