"""Serve-suite fixtures: both storage backends behind one parametrized store.

The ``any_backend`` / ``any_store`` fixtures fan the serve tests out over the
durable sharded :class:`~repro.serve.backends.DirectoryBackend` and its
in-process test double, :class:`~repro.serve.backends.MemoryBackend`, so the
engine's contract (reads, writes, quarantine, eviction, stats) is asserted
identically against both.

Chaos mode: when ``$REPRO_FAULT_PLAN`` is set (the CI ``chaos`` job exports
a canned plan), ``chaos_backend`` -- and so ``any_store`` -- puts the plan's
faults between the store and the backend:
``ArtifactStore(FaultInjectingBackend(backend, plan))``.  The store-level
assertions are unchanged: the store's retries must absorb the faults, which
is its fault-handling contract.  ``any_backend`` itself stays raw, because a
test that calls backend methods directly has no retry layer between it and
the injector.
"""

from __future__ import annotations

import pytest

from repro.serve.backends import DirectoryBackend, MemoryBackend, StorageBackend
from repro.serve.store import ArtifactStore
from tests.faults import FaultInjectingBackend, resolve_fault_plan


@pytest.fixture(params=("directory", "memory"))
def backend_name(request) -> str:
    """Each storage backend's name, one test instantiation per backend."""
    return request.param


@pytest.fixture()
def any_backend(backend_name, tmp_path) -> StorageBackend:
    """A fresh backend of each flavour rooted in the test's tmp dir."""
    root = tmp_path / "cache"
    # The memory backend anchors only auxiliary files (corpus snapshots) there.
    backend = DirectoryBackend(root) if backend_name == "directory" else MemoryBackend(root=root)
    yield backend
    backend.close()


@pytest.fixture()
def chaos_backend(any_backend) -> StorageBackend:
    """``any_backend`` under the exported fault plan (itself without one).

    Build stores over this one; assert on ``any_backend`` directly.
    """
    plan = resolve_fault_plan(None)
    return FaultInjectingBackend(any_backend, plan) if plan else any_backend


@pytest.fixture()
def any_store(chaos_backend) -> ArtifactStore:
    """An ArtifactStore over each backend (under the fault plan, if any)."""
    return ArtifactStore(backend=chaos_backend)
