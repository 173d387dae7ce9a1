"""Cross-process lease contention: the fleet performs exactly one compute.

These tests are the acceptance harness for the store-level compute leases:
real OS processes (``fork`` context, the mining fan-out's idiom) share one
on-disk backend and race a single cold key.  The invariants asserted here
are the ones the service documents:

* a cold herd of N processes runs the pipeline exactly once fleet-wide
  (counted through an ``O_APPEND`` sidecar file every compute appends to);
* every process serves byte-identical artifact content;
* a holder killed mid-compute (``os._exit``, no cleanup) lets a waiter
  steal the lease after the TTL lapses and compute the answer itself.

The memory backend is process-local by construction, so only the shared
``directory`` backend is exercised.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.core.config import AnalysisConfig
from repro.serve import codec
from repro.serve.backends import DirectoryBackend
from repro.serve.service import ANALYSIS_KIND, AnalysisService
from repro.serve.store import ArtifactStore

CONFIG = AnalysisConfig(seed=5, scale=0.02)

#: Backends whose state lives on disk and is therefore visible across
#: ``fork()`` boundaries.  ``memory`` is deliberately absent.
SHARED_BACKENDS = {"directory": DirectoryBackend}

HERD_SIZE = 8


def _service_over(backend_name: str, cache_root: Path, **lease_options) -> AnalysisService:
    """A fresh service handle over the *shared* backend rooted at cache_root."""
    store = ArtifactStore(backend=SHARED_BACKENDS[backend_name](cache_root))
    return AnalysisService(store, max_memory_entries=2, **lease_options)


def _count_computes(service: AnalysisService, counter_path: str) -> None:
    """Wrap ``service._compute`` to append one line per pipeline run.

    ``O_APPEND`` single-``write`` lines are atomic across processes, so the
    sidecar's line count is an exact fleet-wide compute counter.
    """
    original = service._compute

    def counted(config):
        descriptor = os.open(
            counter_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, f"{os.getpid()}\n".encode("ascii"))
        finally:
            os.close(descriptor)
        return original(config)

    service._compute = counted


def _herd_worker(backend_name, cache_root, counter_path, barrier, queue):
    """One herd member: race the cold key, report (pid, source, artifact hash)."""
    try:
        service = _service_over(
            backend_name,
            cache_root,
            lease_ttl=30.0,
            lease_wait=240.0,
            lease_poll=0.02,
        )
        _count_computes(service, counter_path)
        barrier.wait(timeout=60)
        served = service.get_or_run(CONFIG)
        text = service.store.backend.read(ANALYSIS_KIND, served.key)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        queue.put((os.getpid(), served.source, digest))
    except BaseException as exc:  # noqa: BLE001 - surface the failure to the parent
        queue.put((os.getpid(), "error", repr(exc)))
        raise


def _doomed_holder(backend_name, cache_root, key, ready):
    """Claim the key's lease, signal the parent, and die without cleanup."""
    backend = SHARED_BACKENDS[backend_name](cache_root)
    lease = backend.claim(ANALYSIS_KIND, key, "doomed-holder", 2.0)
    assert lease is not None
    ready.set()
    os._exit(1)  # crash: no release, no renewals -- the lease must lapse


@pytest.mark.parametrize("backend_name", SHARED_BACKENDS)
def test_cold_herd_computes_exactly_once(backend_name, tmp_path):
    """8 processes race one cold key; the fleet runs the pipeline once."""
    context = multiprocessing.get_context("fork")
    cache_root = tmp_path / "cache"
    counter_path = tmp_path / "computes.log"
    barrier = context.Barrier(HERD_SIZE)
    queue = context.Queue()
    workers = [
        context.Process(
            target=_herd_worker,
            args=(backend_name, cache_root, str(counter_path), barrier, queue),
        )
        for _ in range(HERD_SIZE)
    ]
    for worker in workers:
        worker.start()
    results = [queue.get(timeout=300) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0

    errors = [entry for entry in results if entry[1] == "error"]
    assert not errors, f"herd workers failed: {errors}"

    # Exactly one pipeline run fleet-wide, counted outside the lease layer.
    compute_lines = counter_path.read_text().splitlines()
    assert len(compute_lines) == 1

    # Exactly one process reports source "computed"; all others were served
    # the winner's artifact (from disk, possibly via the lease wait).
    sources = sorted(source for _, source, _ in results)
    assert sources.count("computed") == 1
    assert set(sources) <= {"computed", "disk"}

    # Every process decoded byte-identical artifact content.
    digests = {digest for _, _, digest in results}
    assert len(digests) == 1

    # The slot's lease was released (or has lapsed): nothing left behind.
    verifier = _service_over(backend_name, cache_root)
    assert verifier.store.lease(ANALYSIS_KIND, codec.analysis_key(CONFIG)) is None
    assert verifier.get_or_run(CONFIG).source in {"disk", "memory"}


@pytest.mark.parametrize("backend_name", SHARED_BACKENDS)
def test_killed_holder_lease_is_stolen(backend_name, tmp_path):
    """A holder killed without cleanup lets a waiter steal after the TTL."""
    context = multiprocessing.get_context("fork")
    cache_root = tmp_path / "cache"
    service = _service_over(
        backend_name,
        cache_root,
        lease_ttl=2.0,
        lease_wait=120.0,
        lease_poll=0.05,
    )
    key = codec.analysis_key(CONFIG)

    ready = context.Event()
    holder = context.Process(
        target=_doomed_holder, args=(backend_name, cache_root, key, ready)
    )
    holder.start()
    assert ready.wait(timeout=60)
    holder.join(timeout=60)
    assert holder.exitcode == 1  # died via os._exit(1), lease left behind

    # The dead process's lease is still live on disk right now ...
    assert service.store.lease(ANALYSIS_KIND, key) is not None

    # ... so the service must wait it out, steal the claim and compute.
    served = service.get_or_run(CONFIG)
    assert served.source == "computed"
    assert service.store.stats.lease_waits == 1
    assert service.store.stats.lease_steals == 1
    assert service.store.stats.lease_claims == 1
    # The steal's own lease was released afterwards.
    assert service.store.lease(ANALYSIS_KIND, key) is None
