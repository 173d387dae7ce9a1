"""SQLite persistence for recipe corpora.

RecipeDB itself is a relational database; this module provides a faithful
relational export of the in-memory store using the standard library's
:mod:`sqlite3`, so corpora can be inspected with any SQL tooling and shared as
a single file.  The schema is normalised:

* ``regions(name PRIMARY KEY, continent)``
* ``recipes(recipe_id PRIMARY KEY, title, region REFERENCES regions, source)``
* ``entities(entity_id PRIMARY KEY, name, kind)`` -- one row per distinct
  ingredient / process / utensil name;
* ``recipe_entities(recipe_id, entity_id)`` -- the many-to-many link.

:func:`save_sqlite` writes a database, :func:`load_sqlite` reads one back into
a :class:`~repro.recipedb.database.RecipeDatabase`, and :func:`corpus_summary`
runs a few aggregate SQL queries (recipes per cuisine, most used items) useful
for ad-hoc inspection without loading everything into memory.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.errors import SerializationError
from repro.recipedb.database import RecipeDatabase
from repro.recipedb.models import EntityKind, Recipe, Region

__all__ = ["SCHEMA_STATEMENTS", "connect", "save_sqlite", "load_sqlite", "corpus_summary"]

SCHEMA_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE regions (
        name      TEXT PRIMARY KEY,
        continent TEXT NOT NULL DEFAULT 'unknown'
    )
    """,
    """
    CREATE TABLE recipes (
        recipe_id INTEGER PRIMARY KEY,
        title     TEXT NOT NULL,
        region    TEXT NOT NULL REFERENCES regions(name),
        source    TEXT NOT NULL DEFAULT 'synthetic'
    )
    """,
    """
    CREATE TABLE entities (
        entity_id INTEGER PRIMARY KEY,
        name      TEXT NOT NULL,
        kind      TEXT NOT NULL CHECK (kind IN ('ingredient', 'process', 'utensil')),
        UNIQUE (name, kind)
    )
    """,
    """
    CREATE TABLE recipe_entities (
        recipe_id INTEGER NOT NULL REFERENCES recipes(recipe_id),
        entity_id INTEGER NOT NULL REFERENCES entities(entity_id),
        PRIMARY KEY (recipe_id, entity_id)
    )
    """,
    "CREATE INDEX idx_recipes_region ON recipes(region)",
    "CREATE INDEX idx_recipe_entities_entity ON recipe_entities(entity_id)",
)


def connect(path: str | Path) -> sqlite3.Connection:
    """Open a SQLite database with the library's shared connection settings.

    Raises :class:`SerializationError` (a :class:`~repro.errors.ReproError`)
    instead of :class:`sqlite3.Error`, so a corpus that cannot be opened
    fails like any other corpus I/O error.
    """
    try:
        connection = sqlite3.connect(str(path))
    except sqlite3.Error as exc:  # pragma: no cover - environment dependent
        raise SerializationError(f"could not open sqlite database {path}: {exc}") from exc
    connection.execute("PRAGMA foreign_keys = ON")
    return connection


def save_sqlite(database: RecipeDatabase, path: str | Path) -> Path:
    """Write the corpus to a (new) SQLite file; returns the path written."""
    target = Path(path)
    if target.exists():
        raise SerializationError(f"refusing to overwrite existing file {target}")
    target.parent.mkdir(parents=True, exist_ok=True)
    connection = connect(target)
    try:
        with connection:
            for statement in SCHEMA_STATEMENTS:
                connection.execute(statement)
            connection.executemany(
                "INSERT INTO regions (name, continent) VALUES (?, ?)",
                [(region.name, region.continent) for region in database.regions()],
            )
            entity_ids: dict[tuple[str, str], int] = {}
            for recipe in database.recipes():
                connection.execute(
                    "INSERT INTO recipes (recipe_id, title, region, source) VALUES (?, ?, ?, ?)",
                    (recipe.recipe_id, recipe.title, recipe.region, recipe.source),
                )
                links: list[tuple[int, int]] = []
                for kind in EntityKind:
                    for name in recipe.entities_of(kind):
                        key = (name, kind.value)
                        entity_id = entity_ids.get(key)
                        if entity_id is None:
                            cursor = connection.execute(
                                "INSERT INTO entities (name, kind) VALUES (?, ?)",
                                key,
                            )
                            entity_id = int(cursor.lastrowid)
                            entity_ids[key] = entity_id
                        links.append((recipe.recipe_id, entity_id))
                connection.executemany(
                    "INSERT INTO recipe_entities (recipe_id, entity_id) VALUES (?, ?)", links
                )
    except sqlite3.Error as exc:
        raise SerializationError(f"could not write corpus to {target}: {exc}") from exc
    finally:
        connection.close()
    return target


def _fetch_entities(connection: sqlite3.Connection) -> dict[int, tuple[str, str]]:
    rows = connection.execute("SELECT entity_id, name, kind FROM entities").fetchall()
    return {int(entity_id): (str(name), str(kind)) for entity_id, name, kind in rows}


def load_sqlite(path: str | Path) -> RecipeDatabase:
    """Load a corpus previously written by :func:`save_sqlite`."""
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"sqlite database {source} does not exist")
    connection = connect(source)
    try:
        regions = [
            Region(str(name), continent=str(continent))
            for name, continent in connection.execute(
                "SELECT name, continent FROM regions ORDER BY name"
            )
        ]
        entities = _fetch_entities(connection)
        links: dict[int, dict[str, list[str]]] = {}
        for recipe_id, entity_id in connection.execute(
            "SELECT recipe_id, entity_id FROM recipe_entities"
        ):
            name, kind = entities[int(entity_id)]
            links.setdefault(int(recipe_id), {}).setdefault(kind, []).append(name)
        recipes: list[Recipe] = []
        for recipe_id, title, region, recipe_source in connection.execute(
            "SELECT recipe_id, title, region, source FROM recipes ORDER BY recipe_id"
        ):
            recipe_links = links.get(int(recipe_id), {})
            recipes.append(
                Recipe(
                    recipe_id=int(recipe_id),
                    title=str(title),
                    region=str(region),
                    ingredients=tuple(recipe_links.get("ingredient", ())),
                    processes=tuple(recipe_links.get("process", ())),
                    utensils=tuple(recipe_links.get("utensil", ())),
                    source=str(recipe_source),
                )
            )
    except (sqlite3.Error, KeyError) as exc:
        raise SerializationError(f"could not read corpus from {source}: {exc}") from exc
    finally:
        connection.close()
    return RecipeDatabase.from_recipes(recipes, regions=regions)


def corpus_summary(path: str | Path) -> dict[str, object]:
    """Aggregate SQL summary of an on-disk corpus (no full load).

    Returns recipe counts per region, the ten most used items and the total
    numbers of recipes / entities.
    """
    source = Path(path)
    if not source.exists():
        raise SerializationError(f"sqlite database {source} does not exist")
    connection = connect(source)
    try:
        per_region = dict(
            connection.execute(
                "SELECT region, COUNT(*) FROM recipes GROUP BY region ORDER BY region"
            ).fetchall()
        )
        top_items = [
            {"name": name, "kind": kind, "recipes": count}
            for name, kind, count in connection.execute(
                """
                SELECT e.name, e.kind, COUNT(*) AS uses
                FROM recipe_entities re JOIN entities e ON e.entity_id = re.entity_id
                GROUP BY re.entity_id ORDER BY uses DESC, e.name LIMIT 10
                """
            )
        ]
        (n_recipes,) = connection.execute("SELECT COUNT(*) FROM recipes").fetchone()
        (n_entities,) = connection.execute("SELECT COUNT(*) FROM entities").fetchone()
    except sqlite3.Error as exc:
        raise SerializationError(f"could not summarise {source}: {exc}") from exc
    finally:
        connection.close()
    return {
        "n_recipes": int(n_recipes),
        "n_entities": int(n_entities),
        "recipes_per_region": {str(k): int(v) for k, v in per_region.items()},
        "top_items": top_items,
    }
