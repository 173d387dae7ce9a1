"""Serve-suite fixtures: both storage backends behind one parametrized store.

The ``any_backend`` / ``any_store`` fixtures fan the serve tests out over the
durable sharded :class:`~repro.serve.backends.DirectoryBackend` and its
in-process test double, :class:`~repro.serve.backends.MemoryBackend`, so the
engine's contract (reads, writes, quarantine, eviction, stats) is asserted
identically against both.

Chaos mode: when ``$REPRO_FAULT_PLAN`` is set (the CI ``chaos`` job exports
a canned plan), every ``any_backend`` is wrapped in the resilience stack --
``ResilientBackend(FaultInjectingBackend(backend, plan))`` -- so the whole
serve suite runs with scripted faults firing underneath.  The suite's
assertions are unchanged: transient faults must be absorbed by the retry
layer, which is exactly the resilience contract.
"""

from __future__ import annotations

import os

import pytest

from repro.serve.backends import DirectoryBackend, MemoryBackend, StorageBackend
from repro.serve.faults import FAULT_PLAN_ENV, FaultInjectingBackend, parse_fault_plan
from repro.serve.resilience import CircuitBreaker, ResilientBackend, RetryPolicy
from repro.serve.store import ArtifactStore


@pytest.fixture(params=("directory", "memory"))
def backend_name(request) -> str:
    """Each storage backend's name, one test instantiation per backend."""
    return request.param


def _chaos_wrap(backend: StorageBackend) -> StorageBackend:
    """Wrap *backend* in the resilience stack when a fault plan is exported."""
    plan = parse_fault_plan(os.environ.get(FAULT_PLAN_ENV, ""))
    if not plan:
        return backend
    return ResilientBackend(
        FaultInjectingBackend(backend, plan),
        # Tight backoff and a huge failure budget: the chaos job asserts the
        # suite's ordinary semantics *through* the faults, so the breaker
        # must not trip into degraded mode and change read results.
        retry=RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01),
        breaker=CircuitBreaker(failure_threshold=10_000, reset_timeout=0.05),
    )


@pytest.fixture()
def any_backend(backend_name, tmp_path) -> StorageBackend:
    """A fresh backend of each flavour rooted in the test's tmp dir."""
    root = tmp_path / "cache"
    # The memory backend anchors only auxiliary files (corpus snapshots) there.
    backend = DirectoryBackend(root) if backend_name == "directory" else MemoryBackend(root=root)
    backend = _chaos_wrap(backend)
    yield backend
    backend.close()


@pytest.fixture()
def any_store(any_backend) -> ArtifactStore:
    """An ArtifactStore over each backend."""
    return ArtifactStore(backend=any_backend)
