"""CSV persistence for recipe corpora.

RecipeDB's public exports are CSV-shaped, so the library supports a flat CSV
layout in addition to JSON:  one row per recipe with the entity lists packed
into a single cell using a configurable separator (``|`` by default, which
never appears in normalised entity names).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import SerializationError, ValidationError
from repro.files import atomic_write
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.io_json import database_from_rows
from repro.recipedb.models import Recipe

__all__ = ["CSV_COLUMNS", "save_csv", "load_csv", "iter_csv"]

CSV_COLUMNS = (
    "recipe_id",
    "title",
    "region",
    "ingredients",
    "processes",
    "utensils",
    "source",
)

_DEFAULT_SEPARATOR = "|"


def _pack(values: Iterable[str], separator: str) -> str:
    return separator.join(values)


def _unpack(cell: str, separator: str) -> tuple[str, ...]:
    cell = cell.strip()
    if not cell:
        return ()
    return tuple(part for part in cell.split(separator) if part.strip())


def save_csv(
    recipes_or_database: RecipeDatabase | Iterable[Recipe],
    path: str | Path,
    *,
    separator: str = _DEFAULT_SEPARATOR,
) -> Path:
    """Write recipes to a flat CSV file; returns the path written.

    The write is atomic (:func:`repro.files.atomic_write`).
    """
    if isinstance(recipes_or_database, RecipeDatabase):
        recipes: Iterable[Recipe] = recipes_or_database.recipes()
    else:
        recipes = recipes_or_database
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    for recipe in recipes:
        writer.writerow(
            [
                recipe.recipe_id,
                recipe.title,
                recipe.region,
                _pack(recipe.ingredients, separator),
                _pack(recipe.processes, separator),
                _pack(recipe.utensils, separator),
                recipe.source,
            ]
        )
    data = text.getvalue().encode("utf-8")
    try:
        return atomic_write(path, lambda handle: handle.write(data))
    except OSError as exc:
        raise SerializationError(f"could not write recipes to {path}: {exc}") from exc


def iter_csv(
    path: str | Path, *, separator: str = _DEFAULT_SEPARATOR
) -> Iterator[Recipe]:
    """Stream recipes from a CSV file written by :func:`save_csv`."""
    return (recipe for _line, recipe in _csv_rows(Path(path), separator))


def _csv_rows(source: Path, separator: str) -> Iterator[tuple[int, Recipe]]:
    """Each recipe of a CSV file with its line number."""
    try:
        with source.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or set(CSV_COLUMNS) - set(reader.fieldnames):
                missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
                raise SerializationError(
                    f"{source} is missing required columns: {sorted(missing)}"
                )
            for line_number, row in enumerate(reader, start=2):
                try:
                    yield line_number, Recipe(
                        recipe_id=int(row["recipe_id"]),
                        title=row["title"],
                        region=row["region"],
                        ingredients=_unpack(row["ingredients"], separator),
                        processes=_unpack(row["processes"], separator),
                        utensils=_unpack(row["utensils"], separator),
                        source=row.get("source", "csv") or "csv",
                    )
                except (TypeError, AttributeError, KeyError, ValueError, ValidationError) as exc:
                    raise SerializationError(
                        f"{source}:{line_number}: malformed recipe row: {exc}"
                    ) from exc
    except OSError as exc:
        raise SerializationError(f"could not read recipes from {source}: {exc}") from exc


def load_csv(path: str | Path, *, separator: str = _DEFAULT_SEPARATOR) -> RecipeDatabase:
    """Load a CSV recipe file into a fresh database (regions auto-registered)."""
    source = Path(path)
    return database_from_rows(source, _csv_rows(source, separator))
