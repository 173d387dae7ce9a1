"""How the service's files reach disk and are trusted again.

Every file the serve path writes -- an artifact, a compute lease, the corpus
JSON, a sidecar's arrays and meta -- goes through :func:`atomic_write`.  A
**sidecar** is ``<prefix>.<role>.npy`` per array plus ``<prefix>.meta.json``,
written last, whose ``version``, ``kind`` and ``fingerprint`` (the digest of
the corpus the arrays came from) :func:`load_sidecar` checks; every way a
sidecar fails to load raises :class:`~repro.errors.SidecarError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Mapping

import numpy as np

from repro.errors import SidecarError

__all__ = ["atomic_write", "sidecar_paths", "save_sidecar", "load_sidecar"]


def atomic_write(path: Path | str, content: str | Callable[[IO[bytes]], object]) -> Path:
    """Replace *path* whole with *content* (text, or a callable writing bytes).

    The bytes go to a unique dot-prefixed temp file beside *path*, renamed
    over it with ``os.replace``: a reader sees the old file or the new one,
    and two writers never share a temp file.  On any failure the temp file
    is removed and the error propagates.  Nothing is fsynced: every file
    written here is a cache.  Returns the path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        if isinstance(content, str):
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(content)
        else:
            with os.fdopen(descriptor, "wb") as handle:
                content(handle)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except FileNotFoundError:
            pass
        raise
    return path


def sidecar_paths(prefix: Path | str, roles: Iterable[str]) -> dict[str, Path]:
    """The files of the sidecar at *prefix*: ``meta`` and one per array role."""
    prefix = Path(prefix)
    paths = {"meta": prefix.with_name(f"{prefix.name}.meta.json")}
    for role in roles:
        paths[role] = prefix.with_name(f"{prefix.name}.{role}.npy")
    return paths


def save_sidecar(
    prefix: Path | str,
    *,
    kind: str,
    version: int,
    fingerprint: str,
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, object],
) -> Path:
    """Write *arrays* in order, then the meta; returns the meta's path."""
    paths = sidecar_paths(prefix, arrays)
    for role, array in arrays.items():
        atomic_write(
            paths[role],
            lambda handle, array=array: np.save(handle, np.ascontiguousarray(array)),
        )
    header = {"version": version, "kind": kind, "fingerprint": fingerprint}
    return atomic_write(paths["meta"], json.dumps({**header, **meta}, sort_keys=True))


def load_sidecar(
    prefix: Path | str,
    *,
    kind: str,
    version: int,
    roles: Collection[str],
    mapped: Collection[str] = (),
    expected_fingerprint: str | None = None,
) -> tuple[dict[str, object], dict[str, np.ndarray]]:
    """The checked meta and the arrays (those in *mapped* memory-mapped).

    Raises :class:`SidecarError` for a missing or unreadable file, another
    *kind* or *version*, or a stale fingerprint (``None`` accepts any).
    """
    paths = sidecar_paths(prefix, roles)
    try:
        meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise SidecarError(f"no {kind} sidecar at {prefix}") from exc
    except (OSError, ValueError) as exc:
        raise SidecarError(f"unreadable {kind} sidecar meta at {prefix}: {exc}") from exc
    found = meta.get("version") if isinstance(meta, dict) else None
    if found != version or meta.get("kind") != kind:
        raise SidecarError(f"unsupported {kind} sidecar version {found!r} at {prefix}")
    if expected_fingerprint is not None and meta.get("fingerprint") != expected_fingerprint:
        raise SidecarError(f"stale {kind} sidecar at {prefix}: corpus fingerprint changed")
    try:
        arrays = {
            role: np.load(
                paths[role], mmap_mode="r" if role in mapped else None, allow_pickle=False
            )
            for role in roles
        }
    except (OSError, ValueError) as exc:
        raise SidecarError(f"unreadable {kind} sidecar arrays at {prefix}: {exc}") from exc
    return meta, arrays
