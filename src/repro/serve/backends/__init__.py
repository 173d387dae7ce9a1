"""Storage backends for the serve layer's artifact store.

Two implementations of the :class:`~repro.serve.backends.base.StorageBackend`
protocol:

``DirectoryBackend``
    The durable backend: one JSON file per artifact, sharded into 256
    ``key[:2]`` prefix subdirectories, with ``flock``-serialized compute
    leases that coordinate every process sharing the directory.
``MemoryBackend``
    Ephemeral in-process dict, the test double.
"""

from __future__ import annotations

from repro.serve.backends.base import (
    KEY_CHARS,
    BackendEntry,
    Lease,
    StorageBackend,
    validate_key,
    validate_kind,
    validate_owner,
    validate_ttl,
)
from repro.serve.backends.directory import DirectoryBackend
from repro.serve.backends.memory import MemoryBackend

__all__ = [
    "StorageBackend",
    "BackendEntry",
    "Lease",
    "DirectoryBackend",
    "MemoryBackend",
    "KEY_CHARS",
    "validate_kind",
    "validate_key",
    "validate_owner",
    "validate_ttl",
]
