"""S3 — fleet coordination: store leases must collapse a cross-process herd.

The async front-end's coalescing (``test_bench_aio``) collapses a thundering
herd *inside one process*.  This benchmark is its fleet-wide twin: **N real
OS processes sharing one cache directory race a single cold config and must
perform exactly one compute**, coordinated purely through the store's
compute leases.  The compute count gates the test (deterministic, counted
via an ``O_APPEND`` sidecar every pipeline run appends to); wall-clock
ratios are recorded into ``BENCH_core.json`` under ``lease_cold_herd``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from _bench_report import record

from repro.serve.backends import DirectoryBackend
from repro.serve.service import AnalysisService
from repro.serve.store import ArtifactStore

HERD = 6


def _herd_worker(cache_root, counter_path, config, barrier, queue):
    store = ArtifactStore(backend=DirectoryBackend(cache_root))
    service = AnalysisService(
        store,
        max_memory_entries=2,
        lease_ttl=60.0,
        lease_wait=600.0,
        lease_poll=0.05,
    )
    original = service._compute

    def counted(cfg):
        descriptor = os.open(
            counter_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(descriptor)
        return original(cfg)

    service._compute = counted
    barrier.wait(timeout=120)
    served = service.get_or_run(config)
    queue.put((os.getpid(), served.source))


def test_lease_cold_herd_computes_once_fleet_wide(config, tmp_path):
    context = multiprocessing.get_context("fork")
    cache_root = tmp_path / "herd-cache"
    counter_path = tmp_path / "computes.log"
    barrier = context.Barrier(HERD)
    queue = context.Queue()
    workers = [
        context.Process(
            target=_herd_worker,
            args=(str(cache_root), str(counter_path), config, barrier, queue),
        )
        for _ in range(HERD)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    results = [queue.get(timeout=900) for _ in workers]
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    herd_seconds = time.perf_counter() - started

    computes = counter_path.read_text().splitlines()
    assert len(computes) == 1, f"{HERD}-process herd ran {len(computes)} computes"
    sources = [source for _, source in results]
    assert sources.count("computed") == 1
    assert set(sources) <= {"computed", "disk"}

    # A single cold run on a fresh store calibrates the coordination overhead
    # (the herd *is* one compute plus lease polling and process bookkeeping).
    fresh = AnalysisService(
        ArtifactStore(backend=DirectoryBackend(tmp_path / "fresh")),
        max_memory_entries=2,
    )
    started = time.perf_counter()
    fresh.get_or_run(config)
    single_cold_seconds = time.perf_counter() - started

    overhead = herd_seconds / single_cold_seconds
    print()
    print(
        f"{HERD}-process cold herd over a shared directory: {herd_seconds:.3f}s vs "
        f"single cold {single_cold_seconds:.3f}s ({overhead:.2f}x)"
    )
    record(
        "lease_cold_herd",
        {
            "herd_size": HERD,
            "backend": "directory",
            "computes": len(computes),
            "herd_seconds": round(herd_seconds, 4),
            "single_cold_seconds": round(single_cold_seconds, 4),
            "herd_vs_single_cold": round(overhead, 3),
        },
    )
    # Generous bound: the herd performs one compute; the rest is fork and
    # lease-poll overhead.  2x covers noisy shared CI runners.
    assert herd_seconds < 2.0 * single_cold_seconds + 2.0, (
        f"lease-coordinated herd took {overhead:.2f}x a single cold run — "
        "the compute lease is not collapsing the fleet's herd"
    )
