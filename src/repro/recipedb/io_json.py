"""JSON / JSON-Lines persistence for :class:`~repro.recipedb.database.RecipeDatabase`.

Two formats are supported:

* **JSON** -- a single document with a small header (format version, region
  metadata) plus the recipe list; best for small corpora and round-tripping
  with external tools.
* **JSONL** -- one recipe per line; best for streaming large corpora and what
  the benchmark harness uses when it materialises synthetic corpora on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import (
    DuplicateRecordError,
    SchemaError,
    SerializationError,
    ValidationError,
)
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import Recipe, Region

__all__ = [
    "FORMAT_VERSION",
    "save_json",
    "load_json",
    "save_jsonl",
    "load_jsonl",
    "iter_jsonl",
    "corpus_fingerprint",
]


def corpus_fingerprint(path: str | Path) -> str:
    """Content digest of a persisted corpus artifact.

    The key that ties derived sidecar artifacts (the corpus-matrix sidecar,
    see :meth:`repro.mining.shm.CorpusMatrix.save`) to the exact corpus
    bytes they were built from: rewrite the corpus and every sidecar
    carrying the old fingerprint goes stale.
    """
    source = Path(path)
    digest = hashlib.sha256()
    try:
        with source.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise SerializationError(f"could not fingerprint {source}: {exc}") from exc
    return digest.hexdigest()

FORMAT_VERSION = 1


def _database_header(database: RecipeDatabase) -> dict[str, object]:
    return {
        "format_version": FORMAT_VERSION,
        "n_recipes": len(database),
        "regions": [
            {"name": region.name, "continent": region.continent}
            for region in database.regions()
        ],
    }


def _atomic_write(target: Path, emit: Callable[[object], None], what: str) -> Path:
    """Write via temp file + ``os.replace`` so crashes never tear *target*.

    A corpus is the root of the artifact chain (its fingerprint keys every
    sidecar), so a half-written file under the final name would poison
    everything downstream; readers only ever see the old or the new bytes.
    """
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=target.parent, prefix=f".{target.name}-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                emit(handle)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except FileNotFoundError:
                pass
            raise
    except OSError as exc:
        raise SerializationError(f"could not write {what} to {target}: {exc}") from exc
    return target


def save_json(database: RecipeDatabase, path: str | Path, *, indent: int | None = None) -> Path:
    """Write the whole database to a single JSON document; returns the path.

    The write is atomic (temp file + rename in the target directory).  The
    document is encoded in one ``json.dumps`` call: the same bytes as
    streaming ``json.dump``, through the C encoder instead of thousands of
    small chunk writes.
    """
    payload = {
        **_database_header(database),
        "recipes": database.to_dicts(),
    }
    text = json.dumps(payload, indent=indent, sort_keys=False)
    return _atomic_write(Path(path), lambda handle: handle.write(text), "database")


def load_json(path: str | Path) -> RecipeDatabase:
    """Load a database previously written by :func:`save_json`."""
    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SerializationError(f"could not read database from {source}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"{source} is not valid JSON: {exc}") from exc

    # Valid JSON of the wrong shape is as unusable as a torn file: every
    # failure below must surface as SerializationError so callers that
    # regenerate on it (the serve layer's corpus cache) never crash instead.
    if not isinstance(payload, dict):
        raise SerializationError(
            f"{source} holds a JSON {type(payload).__name__}, not a database object"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported database format version {version!r}; expected {FORMAT_VERSION}"
        )
    region_entries = payload.get("regions", [])
    recipe_entries = payload.get("recipes", [])
    for field, entries in (("regions", region_entries), ("recipes", recipe_entries)):
        if not isinstance(entries, list):
            raise SerializationError(
                f"{field!r} in {source} must be a list, got {type(entries).__name__}"
            )
    try:
        regions = [
            Region(str(entry["name"]), continent=str(entry.get("continent", "unknown")))
            for entry in region_entries
        ]
    except (TypeError, AttributeError, KeyError, ValidationError) as exc:
        raise SerializationError(f"malformed region entry in {source}: {exc}") from exc
    try:
        recipes = [Recipe.from_dict(entry) for entry in recipe_entries]
    except (TypeError, AttributeError, KeyError, ValueError, ValidationError) as exc:
        raise SerializationError(f"malformed recipe entry in {source}: {exc}") from exc
    try:
        return RecipeDatabase.from_recipes(recipes, regions=regions)
    except (ValidationError, SchemaError, DuplicateRecordError) as exc:
        raise SerializationError(f"inconsistent database in {source}: {exc}") from exc


def save_jsonl(
    recipes_or_database: RecipeDatabase | Iterable[Recipe], path: str | Path
) -> Path:
    """Write recipes as JSON-Lines (one recipe object per line).

    The write is atomic (temp file + rename in the target directory).
    """
    if isinstance(recipes_or_database, RecipeDatabase):
        recipes: Iterable[Recipe] = recipes_or_database.recipes()
    else:
        recipes = recipes_or_database

    def emit(handle: object) -> None:
        for recipe in recipes:
            handle.write(json.dumps(recipe.to_dict(), sort_keys=True))
            handle.write("\n")

    return _atomic_write(Path(path), emit, "recipes")


def iter_jsonl(path: str | Path) -> Iterator[Recipe]:
    """Stream recipes from a JSONL file, one at a time."""
    source = Path(path)
    try:
        with source.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield Recipe.from_dict(json.loads(line))
                except (TypeError, AttributeError, KeyError, ValueError, ValidationError) as exc:
                    raise SerializationError(
                        f"{source}:{line_number}: malformed recipe line: {exc}"
                    ) from exc
    except OSError as exc:
        raise SerializationError(f"could not read recipes from {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{source} is not valid UTF-8: {exc}") from exc


def load_jsonl(path: str | Path) -> RecipeDatabase:
    """Load a JSONL recipe file into a fresh database (regions auto-registered)."""
    return RecipeDatabase.from_recipes(iter_jsonl(path))
