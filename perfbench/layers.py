"""Per-layer metrics from the traced servers' spans and the client's requests.

A span belongs to the measured phase when it starts inside one of the
measured windows, and to set-up when it starts inside the set-up window.
A layer's busy self time is the sum of its spans' durations minus the time
their child spans (same thread) cover.  The asyncio front door dispatches
requests on the event loop while the work runs on executor threads, so its
self time is the part of its dispatch intervals that no other span covers.
"""

from __future__ import annotations

from dataclasses import dataclass

LAYERS = (
    "datagen",
    "recipedb",
    "mining",
    "core",
    "cluster",
    "authenticity",
    "geo",
    "serve.codec",
    "serve.store",
    "serve.service",
    "serve.classify",
    "serve.queries",
    "serve.aio",
)

_PREFIX_LAYER = {
    "datagen": "datagen",
    "recipedb": "recipedb",
    "mining": "mining",
    "core": "core",
    "cluster": "cluster",
    "authenticity": "authenticity",
    "geo": "geo",
    "codec": "serve.codec",
    "store": "serve.store",
    "service": "serve.service",
    "classify": "serve.classify",
    "queries": "serve.queries",
    "aio": "serve.aio",
}

#: Layers whose spans each workload's measured phase must record: the
#: workloads where the per-layer table says the layer should move a metric.
EXPECTED_LAYERS = {
    "cold-analyze": (
        "datagen", "recipedb", "mining", "core", "cluster", "authenticity", "geo",
        "serve.codec", "serve.store", "serve.service",
    ),
    "read-mix": ("serve.store", "serve.service", "serve.classify", "serve.queries", "serve.aio"),
}

#: Per-layer metrics named after their spans: mean seconds per call.
MEAN_SECONDS = {
    "datagen.generate_s": "datagen.generate",
    "recipedb.save_s": "recipedb.save",
    "recipedb.transactions_s": "recipedb.transactions",
    "mining.compile_s": "mining.compile",
    "mining.mine_s": "mining.mine",
    "core.finish_run_s": "core.finish_run",
    "cluster.elbow_s": "cluster.elbow",
    "cluster.pattern_hac_s": "cluster.pattern_hac",
    "cluster.fihc_s": "cluster.fihc",
    "authenticity.figure5_s": "authenticity.figure5",
    "authenticity.fingerprints_s": "authenticity.fingerprints",
    "codec.encode_s": "codec.encode",
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "store.exists_s": "store.exists",
    "service.describe_s": "service.describe",
    "classify.batch_s": "classify.batch",
    "queries.op_s": "queries.op",
}


@dataclass(frozen=True)
class Span:
    key: tuple[int, int]
    parent: tuple[int, int] | None
    name: str
    start: float
    end: float
    tag: dict | None

    @property
    def layer(self) -> str:
        return _PREFIX_LAYER[self.name.split(".", 1)[0]]

    @property
    def duration(self) -> float:
        return self.end - self.start


def parse_spans(documents: list[dict]) -> list[Span]:
    spans = []
    for index, document in enumerate(documents):
        for span_id, parent, name, start, end, tag in document["spans"]:
            spans.append(
                Span((index, span_id), None if parent < 0 else (index, parent), name, start, end, tag)
            )
    return spans


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _length(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _intersect(a, b) -> list[tuple[float, float]]:
    """Intersection of two sorted, disjoint interval lists."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        start, end = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _within(start: float, windows) -> bool:
    return any(low <= start <= high for low, high in windows)


def _mean(values) -> tuple[float, int]:
    """``(mean, sample count)``; an empty sample reads ``(0.0, 0)``."""
    values = list(values)
    return (sum(values) / len(values) if values else 0.0), len(values)


def _self_times(spans: list[Span], windows) -> dict[str, float]:
    """Busy self time per layer over the spans starting inside *windows*."""
    child_time: dict[tuple[int, int], float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals = dict.fromkeys(LAYERS, 0.0)
    inner = []
    dispatch = []
    for span in spans:
        if not _within(span.start, windows):
            continue
        if span.name == "aio.dispatch":
            dispatch.append((span.start, span.end))
            continue
        if span.layer == "serve.aio":
            continue  # coroutine spans overlap their executor work
        totals[span.layer] += span.duration - child_time.get(span.key, 0.0)
        inner.append((span.start, span.end))
    dispatch_union = _union(dispatch)
    covered = _intersect(dispatch_union, _union(inner))
    totals["serve.aio"] = _length(dispatch_union) - _length(covered)
    return totals


def _top_level(spans: list[Span]) -> list[Span]:
    """Spans not nested in a span of the same name (nested ops count once)."""
    names = {span.key: span.name for span in spans}
    return [span for span in spans if span.parent is None or names.get(span.parent) != span.name]


def layer_metrics(
    workload: str,
    documents: list[dict],
    setup_window: tuple[float, float],
    windows: list[tuple[float, float]],
    samples: list,
    connects: int,
    connections: int,
) -> tuple[dict[str, tuple[float, int]], list[str]]:
    """Per-layer metrics for one traced workload, each as ``(value, sample
    count)``, plus the layers that recorded no span."""
    spans = parse_spans(documents)
    measured = [span for span in spans if _within(span.start, windows)]
    top = _top_level(measured)
    by_name: dict[str, list[Span]] = {}
    for span in top:
        by_name.setdefault(span.name, []).append(span)
    wall = _length(windows)
    requests = len(samples)
    per_request = max(1, requests)
    metrics: dict[str, tuple[float, int]] = {}

    for metric, name in MEAN_SECONDS.items():
        metrics[metric] = _mean(s.duration for s in by_name.get(name, ()))

    metrics["datagen.recipes"] = _mean(s.tag["recipes"] for s in by_name.get("datagen.generate", []) if s.tag)
    metrics["recipedb.corpus_bytes"] = _mean(s.tag["bytes"] for s in by_name.get("recipedb.save", []) if s.tag)
    mines = [s for s in by_name.get("mining.mine", []) if s.tag]
    metrics["mining.dispatch_overhead_s"] = _mean(s.tag["overhead"] for s in mines)
    metrics["mining.pool_share"] = _mean(1.0 if s.tag["mode"] == "pool" else 0.0 for s in mines)
    metrics["mining.patterns"] = _mean(s.tag["patterns"] for s in mines)
    finishes = len(by_name.get("core.finish_run", []))
    metrics["geo.validation_s"] = (
        sum(s.duration for s in by_name.get("geo.validation", [])) / max(1, finishes),
        finishes,
    )
    metrics["authenticity.prevalence_calls"] = (
        len(by_name.get("authenticity.prevalence", [])) / max(1, finishes),
        finishes,
    )

    encodes = [s for s in by_name.get("codec.encode", []) if s.tag and "bytes" in s.tag]
    metrics["store.bytes_written"] = (sum(s.tag["bytes"] for s in encodes) / per_request, requests)
    metrics["store.exists_per_request"] = (len(by_name.get("store.exists", [])) / per_request, requests)
    served = [s for s in by_name.get("service.get_or_run", []) if s.tag]
    for source in ("memory", "computed"):
        metrics[f"service.get_or_run.{source}_s"] = _mean(
            s.duration for s in served if s.tag["source"] == source
        )
    claims = [s for s in by_name.get("store.claim", []) if s.tag]
    metrics["service.lease_claims"] = (float(sum(1 for s in claims if s.tag["won"])), len(claims))
    metrics["classify.recipes"] = _mean(s.tag["recipes"] for s in by_name.get("classify.batch", []) if s.tag)
    metrics["queries.engine_builds"] = (float(len(by_name.get("queries.engine_build", []))), requests)

    hits = misses = 0
    for document in documents:
        for stats in document["counters"]:
            hits += stats["memory_hits"] + stats["disk_hits"]
            misses += stats["misses"]
    metrics["store.hit_ratio"] = (hits / max(1, hits + misses), hits + misses)

    dispatch = by_name.get("aio.dispatch", [])
    client_total = sum(sample.end - sample.start for sample in samples)
    metrics["aio.front_door_ms"] = (
        1000.0 * (client_total - sum(s.duration for s in dispatch)) / per_request,
        requests,
    )
    ops = {s.key: s for s in by_name.get("aio.op", [])}
    last_job: dict[tuple[int, int], float] = {}
    queue_waits = []
    for index, document in enumerate(documents):
        for op, submitted, started in document["jobs"]:
            if not _within(submitted, windows):
                continue
            queue_waits.append(started - submitted)
            key = (index, op)
            if op >= 0 and key in ops:
                last_job[key] = max(last_job.get(key, 0.0), started)
    wait, waited = _mean(started - ops[key].start for key, started in last_job.items())
    metrics["aio.executor_wait_ms"] = (1000.0 * wait, waited)
    wait, waited = _mean(queue_waits)
    metrics["aio.queue_wait_ms"] = (1000.0 * wait, waited)
    metrics["aio.reconnects"] = (float(connects - connections), connects)

    measured_self = _self_times(spans, windows)
    setup_self = _self_times(spans, [setup_window])
    calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
    for span in top:
        calls[span.layer] += 1
    setup_calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
    for span in _top_level([span for span in spans if _within(span.start, [setup_window])]):
        setup_calls[span.layer] += 1
    for layer in LAYERS:
        metrics[f"layer.{layer}.calls"] = (float(calls[layer]), calls[layer])
        metrics[f"layer.{layer}.self_s"] = (measured_self[layer], calls[layer])
        metrics[f"layer.{layer}.share"] = (measured_self[layer] / wall if wall else 0.0, calls[layer])
        metrics[f"layer.{layer}.setup_s"] = (setup_self[layer], setup_calls[layer])
    covered = _intersect(_union((s.start, s.end) for s in measured), _union(windows))
    metrics["trace.unattributed_share"] = (1.0 - _length(covered) / wall if wall else 0.0, len(measured))

    missing = [layer for layer in EXPECTED_LAYERS[workload] if calls[layer] == 0]
    return metrics, missing
