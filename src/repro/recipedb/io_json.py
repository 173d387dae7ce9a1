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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.errors import (
    DuplicateRecordError,
    SchemaError,
    SerializationError,
    ValidationError,
)
from repro.files import atomic_write
from repro.recipedb.columns import RecipeColumns
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


def save_json(database: RecipeDatabase, path: str | Path, *, indent: int | None = None) -> Path:
    """Write the whole database to a single JSON document; returns the path.

    The write is atomic (:func:`repro.files.atomic_write`): a corpus is the
    root of the artifact chain (its fingerprint keys every sidecar), so a
    reader only ever sees the old bytes or the new.  The compact document
    (``indent=None``) is assembled from the database's id form
    (:func:`_recipes_text`) with the bytes ``json.dumps`` gives for the
    recipe dictionaries; an indented one goes through ``json.dumps``.
    """
    header = _database_header(database)
    if indent is None:
        text = f'{json.dumps(header)[:-1]}, "recipes": [{_recipes_text(database.columns)}]}}'
    else:
        text = json.dumps({**header, "recipes": database.to_dicts()}, indent=indent)
    try:
        return atomic_write(path, text)
    except OSError as exc:
        raise SerializationError(f"could not write database to {path}: {exc}") from exc


def _recipes_text(columns: RecipeColumns) -> str:
    """The recipes' compact JSON objects, comma-separated, from the id form.

    Every distinct string is encoded once, as ``json.dumps`` encodes it.
    The document is then one ``str.join`` over a table of those fragments:
    each recipe is its own head (``{"recipe_id": ..., "ingredients": [``),
    its ingredient names, a ``], "processes": [`` separator, its process
    names, a ``], "utensils": [`` separator, its utensil names and a tail
    with its source.  A name fragment has a ``", "`` prefix unless it opens
    its list, and every head but the first has one too.
    """
    n = len(columns)
    if n == 0:
        return ""
    regions = list(map(encode_basestring_ascii, columns.regions))
    heads = [
        f'{", " if row else ""}{{"recipe_id": {recipe_id}, '
        f'"title": {encode_basestring_ascii(title)}, "region": {regions[code]}, '
        f'"ingredients": ['
        for row, (recipe_id, title, code) in enumerate(
            zip(columns.recipe_ids.tolist(), columns.titles, columns.region_codes.tolist())
        )
    ]
    table = heads + ['], "processes": [', '], "utensils": [']
    table += [f'], "source": {encode_basestring_ascii(source)}}}' for source in columns.sources]
    separators = (n, n + 1)
    tail_base = n + 2

    lengths = [column.lengths() for column in columns.kinds]
    pieces = 4 + lengths[0] + lengths[1] + lengths[2]
    ends = np.cumsum(pieces)
    order = np.empty(int(ends[-1]), dtype=np.int64)
    order[ends - pieces] = np.arange(n)
    at = ends - pieces + 1
    for kind, column in enumerate(columns.kinds):
        if kind:
            order[at] = separators[kind - 1]
            at = at + 1
        base = len(table)
        encoded = list(map(encode_basestring_ascii, column.names))
        table += encoded
        table += [", " + name for name in encoded]
        count = lengths[kind]
        first = column.offsets[:-1]
        within = np.arange(len(column.ids)) - np.repeat(first, count)
        order[np.repeat(at, count) + within] = (
            base + column.ids + np.where(within > 0, len(encoded), 0)
        )
        at = at + count
    order[at] = tail_base + columns.source_codes
    return "".join(np.array(table, dtype=object)[order].tolist())


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

    The write is atomic (:func:`repro.files.atomic_write`).
    """
    if isinstance(recipes_or_database, RecipeDatabase):
        recipes: Iterable[Recipe] = recipes_or_database.recipes()
    else:
        recipes = recipes_or_database

    def emit(handle: IO[bytes]) -> None:
        for recipe in recipes:
            line = json.dumps(recipe.to_dict(), sort_keys=True) + "\n"
            handle.write(line.encode("utf-8"))

    try:
        return atomic_write(path, emit)
    except OSError as exc:
        raise SerializationError(f"could not write recipes to {path}: {exc}") from exc


def iter_jsonl(path: str | Path) -> Iterator[Recipe]:
    """Stream recipes from a JSONL file, one at a time."""
    return (recipe for _line, recipe in _jsonl_rows(Path(path)))


def _jsonl_rows(source: Path) -> Iterator[tuple[int, Recipe]]:
    """Each recipe of a JSONL file with its line number."""
    try:
        with source.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield line_number, Recipe.from_dict(json.loads(line))
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
    source = Path(path)
    return database_from_rows(source, _jsonl_rows(source))


def database_from_rows(source: Path, rows: Iterable[tuple[int, Recipe]]) -> RecipeDatabase:
    """A database of a row file's ``(line, recipe)`` rows, regions auto-registered.

    A recipe the database refuses (a repeated id, a schema limit) raises
    :class:`SerializationError` naming the file and its line, as a malformed
    row does.
    """
    line = 0

    def recipes() -> Iterator[Recipe]:
        nonlocal line
        for line, recipe in rows:
            yield recipe

    try:
        return RecipeDatabase.from_recipes(recipes())
    except (ValidationError, SchemaError, DuplicateRecordError) as exc:
        raise SerializationError(f"{source}:{line}: inconsistent recipe: {exc}") from exc
