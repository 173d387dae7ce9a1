"""Directory backend: one JSON file per artifact, sharded by key prefix.

Artifacts live at ``root/<key[:2]>/<kind>-<key>.json``: 256 two-hex-digit
shard directories keep any one directory small past ~10⁴ artifacts.  Files
at the root itself (corpus snapshots, sidecar directories, a pre-sharding
flat cache) are not artifacts: reads, probes, scans and deletes only ever
look inside the shards, so a flat ``root/<kind>-<key>.json`` left by an old
cache is ignored and its config recomputed.

Compute leases are dot-prefixed files (``.lease-<kind>-<key>.json``) next to
the slot's artifact.  ``claim``, ``renew`` and ``release`` each hold an
exclusive ``flock`` on the shard's ``.lease.lock`` across their read → check
→ write, and write with :func:`repro.files.atomic_write`, as artifacts are
written.  The lock serializes every lease transition in the shard, across
threads and processes alike (each call opens its own file description), so
two claimants can never both steal one expired lease.  ``lease()`` reads
without the lock: the rename means it sees one whole lease or none.
Dot-files, temp files included, are invisible to artifact scans and
eviction.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.files import atomic_write
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

__all__ = ["DirectoryBackend"]

_SHARD_GLOB = "[0-9a-f][0-9a-f]"

_LOCK_NAME = ".lease.lock"


class DirectoryBackend(StorageBackend):
    """Artifacts as JSON files sharded across ``key[:2]`` prefix subdirectories."""

    name = "directory"

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)

    # -- layout -----------------------------------------------------------------------

    def _shard_dir(self, key: str) -> Path:
        # A one-digit key pads to a two-digit shard, which scans match.
        return self.root / key[:2].ljust(2, "0")

    def path_for(self, kind: str, key: str) -> Path:
        """The on-disk path of one artifact (shard dir + filename)."""
        return self._shard_dir(validate_key(key)) / f"{validate_kind(kind)}-{key}.json"

    def _artifact_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for path in self.root.glob(f"{_SHARD_GLOB}/*.json"):
            # Dot-files are internal (lease files, temp files): pathlib's
            # glob matches them, the artifact namespace excludes them.
            if not path.name.startswith("."):
                yield path

    @staticmethod
    def _parse_stem(stem: str) -> tuple[str, str] | None:
        kind, separator, key = stem.rpartition("-")
        if not separator or not kind or not key or not set(key) <= KEY_CHARS:
            return None
        return kind, key

    # -- reads ------------------------------------------------------------------------

    def read(self, kind: str, key: str) -> str | None:
        try:
            return self.path_for(kind, key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def exists(self, kind: str, key: str) -> bool:
        return self.path_for(kind, key).exists()

    def keys(self, kind: str) -> list[str]:
        prefix = f"{validate_kind(kind)}-"
        found = []
        for path in self._artifact_files():
            if path.stem.startswith(prefix):
                key = path.stem[len(prefix):]
                if key and set(key) <= KEY_CHARS:
                    found.append(key)
        return sorted(found)

    def entries(self) -> Iterator[BackendEntry]:
        for path in self._artifact_files():
            parsed = self._parse_stem(path.stem)
            if parsed is None:
                continue
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - raced with a delete
                continue
            yield BackendEntry(parsed[0], parsed[1], stat.st_size, stat.st_mtime)

    # -- writes -----------------------------------------------------------------------

    def write(self, kind: str, key: str, text: str) -> None:
        atomic_write(self.path_for(kind, key), text)

    def delete(self, kind: str, key: str) -> bool:
        try:
            self.path_for(kind, key).unlink()
            return True
        except FileNotFoundError:
            return False

    # -- compute leases ---------------------------------------------------------------

    def lease_path(self, kind: str, key: str) -> Path:
        """The on-disk file of one slot's compute lease."""
        shard = self._shard_dir(validate_key(key))
        return shard / f".lease-{validate_kind(kind)}-{key}.json"

    @contextmanager
    def _shard_locked(self, lease_path: Path) -> Iterator[None]:
        """Hold the exclusive lease lock of *lease_path*'s shard."""
        lease_path.parent.mkdir(parents=True, exist_ok=True)
        descriptor = os.open(lease_path.parent / _LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            yield
        finally:
            os.close(descriptor)  # closing the description drops the lock

    def _read_lease_file(self, path: Path) -> tuple[str, float] | None:
        """``(owner, expires_at)`` from one lease file, ``None`` if absent.

        Lease files are only ever replaced whole, so an unreadable file is a
        foreign one and reads as no lease.
        """
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return str(payload["owner"]), float(payload["expires_at"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _grant(self, path: Path, kind: str, key: str, owner: str, expires_at: float) -> Lease:
        atomic_write(path, json.dumps({"owner": owner, "expires_at": expires_at}))
        return Lease(kind, key, owner, expires_at)

    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        owner, ttl = validate_owner(owner), validate_ttl(ttl)
        now = time.time() if now is None else now
        path = self.lease_path(kind, key)
        with self._shard_locked(path):
            stored = self._read_lease_file(path)
            if stored is not None and stored[1] > now and stored[0] != owner:
                return None
            # Cold slot, expired lease (steal), or idempotent re-claim by the
            # live holder: all converge on owning a fresh lease.
            return self._grant(path, kind, key, owner, now + ttl)

    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        owner, ttl = validate_owner(owner), validate_ttl(ttl)
        now = time.time() if now is None else now
        path = self.lease_path(kind, key)
        with self._shard_locked(path):
            stored = self._read_lease_file(path)
            if stored is None or stored[0] != owner or stored[1] <= now:
                return None
            return self._grant(path, kind, key, owner, now + ttl)

    def release(self, kind: str, key: str, owner: str) -> bool:
        owner = validate_owner(owner)
        path = self.lease_path(kind, key)
        with self._shard_locked(path):
            stored = self._read_lease_file(path)
            if stored is None or stored[0] != owner:
                return False  # a successor's claim is never clobbered
            path.unlink()
            return True

    def lease(
        self, kind: str, key: str, *, now: float | None = None
    ) -> Lease | None:
        now = time.time() if now is None else now
        stored = self._read_lease_file(self.lease_path(kind, key))
        if stored is None or stored[1] <= now:
            return None
        return Lease(kind, key, stored[0], stored[1])

    def quarantine(self, kind: str, key: str) -> None:
        path = self.path_for(kind, key)
        try:
            # os.replace overwrites a stale *.json.corrupt left by an earlier
            # quarantine of the same slot, so collisions cannot wedge the slot.
            os.replace(path, path.with_suffix(".json.corrupt"))
        except FileNotFoundError:
            return
        except OSError:  # pragma: no cover - quarantine is best-effort
            try:
                path.unlink()
            except OSError:
                pass

    def describe(self) -> str:
        return f"directory (256 shards) at {self.root}"
