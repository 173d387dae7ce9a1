"""The one writer and the one sidecar format (:mod:`repro.files`).

Every file the service writes goes through ``atomic_write``.  A write that
fails -- the rename refused, or the disk filling up part-way through the
bytes -- must leave the old file whole and no temp file behind, for every
kind of file: an artifact, a compute lease, the corpus JSON, JSONL and CSV,
and each role of both sidecars.  Two writers of one sidecar must both land, and
every way a sidecar fails to load is a ``SidecarError``.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.errors import SerializationError, SidecarError
from repro.files import atomic_write, sidecar_paths
from repro.mining.shm import CorpusMatrix
from repro.recipedb.io_csv import save_csv
from repro.recipedb.io_json import save_json, save_jsonl
from repro.serve.backends import DirectoryBackend
from repro.serve.classify import CuisineClassifier

KEY = "ab" * 32

MATRICES = (
    CorpusMatrix.from_transactions(
        {"East": [("rice", "soy sauce"), ("rice",)], "West": [("bread", "butter")]}
    ),
    CorpusMatrix.from_transactions(
        {"East": [("mirin", "rice", "soy sauce")], "West": [("bread",), ("olive oil",)]}
    ),
)


def _classifier(seed: int) -> CuisineClassifier:
    rng = np.random.default_rng(seed)
    return CuisineClassifier(
        ("A", "B"),
        tuple(f"i{k}" for k in range(10)),
        rng.random((4, 10)) < 0.5,
        rng.random((4, 2)).astype(np.float32),
        rng.random((10, 2)).astype(np.float32),
    )


CLASSIFIERS = (_classifier(1), _classifier(2))


@dataclass
class Writer:
    """One file the service writes: where, how (version 0 or 1), what it raises."""

    path: Path
    write: Callable[[int], object]
    error: type[Exception]


def _artifact(tmp_path, toy_db) -> Writer:
    backend = DirectoryBackend(tmp_path / "cache")
    return Writer(
        backend.path_for("analysis", KEY),
        lambda version: backend.write("analysis", KEY, json.dumps({"v": version})),
        OSError,
    )


def _lease(tmp_path, toy_db) -> Writer:
    backend = DirectoryBackend(tmp_path / "cache")
    return Writer(
        backend.lease_path("analysis", KEY),
        lambda version: backend.claim("analysis", KEY, "owner-a", 30.0, now=1000.0 + version),
        OSError,
    )


def _corpus_json(tmp_path, toy_db) -> Writer:
    path = tmp_path / "corpus-x.json"
    return Writer(
        path,
        lambda version: save_json(toy_db, path, indent=2 if version else None),
        SerializationError,
    )


def _corpus_jsonl(tmp_path, toy_db) -> Writer:
    path = tmp_path / "corpus-x.jsonl"
    recipes = list(toy_db.recipes())
    return Writer(
        path,
        lambda version: save_jsonl(recipes[::-1] if version else recipes, path),
        SerializationError,
    )


def _corpus_csv(tmp_path, toy_db) -> Writer:
    path = tmp_path / "corpus-x.csv"
    recipes = list(toy_db.recipes())
    return Writer(
        path,
        lambda version: save_csv(recipes[::-1] if version else recipes, path),
        SerializationError,
    )


def _sidecar(values, name: str, role: str):
    def build(tmp_path, toy_db) -> Writer:
        prefix = tmp_path / name
        paths = sidecar_paths(prefix, type(values[0]).SIDECAR_ROLES)
        return Writer(
            paths[role],
            lambda version: values[version].save(prefix, fingerprint=f"fp{version}"),
            OSError,
        )

    return build


WRITERS = {
    "artifact": _artifact,
    "lease": _lease,
    "corpus-json": _corpus_json,
    "corpus-jsonl": _corpus_jsonl,
    "corpus-csv": _corpus_csv,
    **{
        f"csr-{role}": _sidecar(MATRICES, "corpus-x.matrix", role)
        for role in ("meta", *CorpusMatrix.SIDECAR_ROLES)
    },
    **{
        f"classifier-{role}": _sidecar(CLASSIFIERS, "corpus-x.classifier", role)
        for role in ("meta", *CuisineClassifier.SIDECAR_ROLES)
    },
}


@pytest.fixture(params=sorted(WRITERS))
def writer(request, tmp_path, toy_db) -> Writer:
    """Each written file, with version 0 already on disk."""
    writer = WRITERS[request.param](tmp_path, toy_db)
    writer.write(0)
    return writer


def _temp_files(root: Path) -> list[str]:
    return sorted(path.name for path in root.rglob("*.tmp"))


class _FullDisk:
    """A temp-file handle that takes half of its first write, then fails."""

    def __init__(self, handle) -> None:
        self._handle = handle

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()


def test_a_refused_rename_leaves_the_old_file(writer, tmp_path, monkeypatch):
    old = writer.path.read_bytes()
    replace = os.replace

    def refusing(source, target, *args, **kwargs):
        if Path(target) == writer.path:
            raise OSError(errno.EIO, "rename refused")
        return replace(source, target, *args, **kwargs)

    monkeypatch.setattr(os, "replace", refusing)
    with pytest.raises(writer.error):
        writer.write(1)
    assert writer.path.read_bytes() == old
    assert _temp_files(tmp_path) == []


def test_a_write_failing_part_way_leaves_the_old_file(writer, tmp_path, monkeypatch):
    old = writer.path.read_bytes()
    names: dict[int, str] = {}
    mkstemp, fdopen = tempfile.mkstemp, os.fdopen

    def recording_mkstemp(*args, **kwargs):
        descriptor, name = mkstemp(*args, **kwargs)
        names[descriptor] = name
        return descriptor, name

    def filling_fdopen(descriptor, *args, **kwargs):
        handle = fdopen(descriptor, *args, **kwargs)
        if Path(names.get(descriptor, "")).name.startswith(f".{writer.path.name}-"):
            return _FullDisk(handle)
        return handle

    monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
    monkeypatch.setattr(os, "fdopen", filling_fdopen)
    with pytest.raises(writer.error):
        writer.write(1)
    assert writer.path.read_bytes() == old
    assert _temp_files(tmp_path) == []


def test_a_landed_write_replaces_the_file_and_leaves_no_temp(writer, tmp_path):
    old = writer.path.read_bytes()
    writer.write(1)
    assert writer.path.read_bytes() != old
    assert _temp_files(tmp_path) == []


def test_atomic_write_creates_the_parent_and_returns_the_path(tmp_path):
    target = tmp_path / "a" / "b" / "file.txt"
    assert atomic_write(str(target), "café") == target
    assert target.read_bytes() == "café".encode("utf-8")
    assert atomic_write(target, lambda handle: handle.write(b"\x00\x01")) == target
    assert target.read_bytes() == b"\x00\x01"


@pytest.mark.parametrize(
    ("values", "name"),
    [(MATRICES, "corpus-x.matrix"), (CLASSIFIERS, "corpus-x.classifier")],
    ids=["csr", "classifier"],
)
def test_two_writers_of_one_sidecar_both_land(values, name, tmp_path, monkeypatch):
    # Both writers reach the rename of the first array before either makes
    # it: with one shared temp name, the second rename finds no file.
    value = values[0]
    prefix = tmp_path / name
    first = sidecar_paths(prefix, value.SIDECAR_ROLES)[value.SIDECAR_ROLES[0]]
    barrier = threading.Barrier(2, timeout=30)
    replace = os.replace

    def held(source, target, *args, **kwargs):
        if Path(target) == first:
            barrier.wait()
        return replace(source, target, *args, **kwargs)

    monkeypatch.setattr(os, "replace", held)
    errors: list[BaseException] = []

    def save() -> None:
        try:
            value.save(prefix, fingerprint="fp")
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=save) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    loaded = type(value).load(prefix, expected_fingerprint="fp")
    for role, path in sidecar_paths(prefix, value.SIDECAR_ROLES).items():
        assert path.exists(), role
    assert _temp_files(tmp_path) == []
    if isinstance(value, CorpusMatrix):
        assert loaded.items == value.items
        assert np.array_equal(loaded.tids, value.tids)
    else:
        assert loaded.vocabulary == value.vocabulary


@pytest.mark.parametrize(
    ("value", "count_field"),
    [(MATRICES[0], "n_transactions"), (CLASSIFIERS[0], "n_patterns")],
    ids=["csr", "classifier"],
)
@pytest.mark.parametrize("meta", ["not utf-8", "a list", "a bad count"])
def test_every_unreadable_meta_is_a_sidecar_error(value, count_field, meta, tmp_path):
    prefix = tmp_path / "corpus-x.sidecar"
    value.save(prefix, fingerprint="fp")
    meta_path = sidecar_paths(prefix, ())["meta"]
    if meta == "not utf-8":
        meta_path.write_bytes(b"\xff\xfe{}")
    elif meta == "a list":
        meta_path.write_text("[]", encoding="utf-8")
    else:
        fields = json.loads(meta_path.read_text(encoding="utf-8"))
        fields[count_field] = "many"
        meta_path.write_text(json.dumps(fields), encoding="utf-8")
    with pytest.raises(SidecarError):
        type(value).load(prefix, expected_fingerprint="fp")
