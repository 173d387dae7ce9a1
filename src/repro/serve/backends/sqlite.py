"""SQLite backend: every artifact is a row in one single-file database.

Reuses :func:`repro.recipedb.io_sqlite.connect` so the serve layer and the
corpus exporter share connection settings and failure modes, and turns on WAL
journaling so a reader never blocks on (or observes half of) a concurrent
write -- the single-file equivalent of the directory backend's atomic
``os.replace``.

Quarantine moves a corrupt row into a ``quarantined_artifacts`` side table
(replacing any stale quarantine of the same slot), preserving the bad payload
for post-mortems exactly like the directory backend's ``*.json.corrupt``
files.

Compute leases are rows of a ``compute_leases`` side table, claimed inside
one transaction: expire-sweep, ``INSERT OR IGNORE``, then read the winner
back.  SQLite's write lock serializes the transaction across every process
sharing the file (each process holds its own connection), so exactly one
claimant in the whole fleet wins a cold slot -- the property the
cross-process contention suite stresses.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Iterator

from repro.errors import ServeError
from repro.recipedb.io_sqlite import connect
from repro.serve.backends.base import (
    BackendEntry,
    Lease,
    StorageBackend,
    validate_key,
    validate_kind,
    validate_owner,
    validate_ttl,
)

__all__ = ["SqliteBackend", "ARTIFACT_SCHEMA_STATEMENTS", "BUSY_TIMEOUT_SECONDS"]

#: How long a connection waits on another process's write lock before the
#: driver raises "database is locked".  Claim transactions from a whole
#: fleet serialize on this; leases are held for seconds, the *lock* only for
#: microseconds, so a short bound rides out any realistic herd.
BUSY_TIMEOUT_SECONDS = 5.0

ARTIFACT_SCHEMA_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        kind       TEXT NOT NULL,
        key        TEXT NOT NULL,
        payload    TEXT NOT NULL,
        n_bytes    INTEGER NOT NULL,
        updated_at REAL NOT NULL,
        PRIMARY KEY (kind, key)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS quarantined_artifacts (
        kind           TEXT NOT NULL,
        key            TEXT NOT NULL,
        payload        TEXT NOT NULL,
        quarantined_at REAL NOT NULL,
        PRIMARY KEY (kind, key)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS compute_leases (
        kind       TEXT NOT NULL,
        key        TEXT NOT NULL,
        owner      TEXT NOT NULL,
        expires_at REAL NOT NULL,
        PRIMARY KEY (kind, key)
    )
    """,
)


class SqliteBackend(StorageBackend):
    """Artifacts as rows of a WAL-mode SQLite file."""

    name = "sqlite"

    def __init__(self, path: Path | str, *, root: Path | str | None = None) -> None:
        self.path = Path(path)
        self.root = Path(root) if root is not None else self.path.parent
        self._connection: sqlite3.Connection | None = None
        # The async serving layer drives one backend from the event loop and
        # its executor threads at once; a single shared connection opened
        # with check_same_thread=False, serialized by this lock, keeps
        # sqlite's thread-affinity check out of the way without per-thread
        # connection churn.
        self._lock = threading.RLock()

    def _connect(self) -> sqlite3.Connection:
        if self._connection is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            connection = connect(self.path, check_same_thread=False)
            connection.execute(
                f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT_SECONDS * 1000)}"
            )
            # Several processes opening a fresh file at once race to switch
            # it to WAL, and SQLite can report "database is locked" for that
            # switch without waiting on the busy timeout: retry until it.
            deadline = time.monotonic() + BUSY_TIMEOUT_SECONDS
            while True:
                try:
                    connection.execute("PRAGMA journal_mode = WAL")
                    break
                except sqlite3.OperationalError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.01)
            connection.execute("PRAGMA synchronous = NORMAL")
            with connection:
                for statement in ARTIFACT_SCHEMA_STATEMENTS:
                    connection.execute(statement)
            self._connection = connection
        return self._connection

    def _execute(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        with self._lock:
            connection = self._connect()
            try:
                with connection:
                    return connection.execute(sql, parameters)
            except sqlite3.Error as exc:
                raise ServeError(f"sqlite artifact store {self.path}: {exc}") from exc

    # -- reads ------------------------------------------------------------------------

    def read(self, kind: str, key: str) -> str | None:
        row = self._execute(
            "SELECT payload FROM artifacts WHERE kind = ? AND key = ?",
            (validate_kind(kind), validate_key(key)),
        ).fetchone()
        return None if row is None else str(row[0])

    def exists(self, kind: str, key: str) -> bool:
        row = self._execute(
            "SELECT 1 FROM artifacts WHERE kind = ? AND key = ?",
            (validate_kind(kind), validate_key(key)),
        ).fetchone()
        return row is not None

    def keys(self, kind: str) -> list[str]:
        rows = self._execute(
            "SELECT key FROM artifacts WHERE kind = ? ORDER BY key",
            (validate_kind(kind),),
        ).fetchall()
        return [str(key) for (key,) in rows]

    def entries(self) -> Iterator[BackendEntry]:
        rows = self._execute(
            "SELECT kind, key, n_bytes, updated_at FROM artifacts ORDER BY updated_at"
        ).fetchall()
        for kind, key, n_bytes, updated_at in rows:
            yield BackendEntry(str(kind), str(key), int(n_bytes), float(updated_at))

    # -- writes -----------------------------------------------------------------------

    def write(self, kind: str, key: str, text: str) -> None:
        self._execute(
            "INSERT OR REPLACE INTO artifacts (kind, key, payload, n_bytes, updated_at)"
            " VALUES (?, ?, ?, ?, ?)",
            (
                validate_kind(kind),
                validate_key(key),
                text,
                len(text.encode("utf-8")),
                time.time(),
            ),
        )

    def delete(self, kind: str, key: str) -> bool:
        cursor = self._execute(
            "DELETE FROM artifacts WHERE kind = ? AND key = ?",
            (validate_kind(kind), validate_key(key)),
        )
        return cursor.rowcount > 0

    def quarantine(self, kind: str, key: str) -> None:
        with self._lock:
            connection = self._connect()
            try:
                with connection:
                    connection.execute(
                        "INSERT OR REPLACE INTO quarantined_artifacts"
                        " (kind, key, payload, quarantined_at)"
                        " SELECT kind, key, payload, ? FROM artifacts"
                        " WHERE kind = ? AND key = ?",
                        (time.time(), kind, key),
                    )
                    connection.execute(
                        "DELETE FROM artifacts WHERE kind = ? AND key = ?", (kind, key)
                    )
            except sqlite3.Error:  # pragma: no cover - quarantine is best-effort
                pass

    # -- compute leases ---------------------------------------------------------------

    def _lease_transaction(self, statements) -> list:
        """Run lease statements in ONE transaction; returns each cursor's rows."""
        with self._lock:
            connection = self._connect()
            try:
                with connection:
                    return [
                        connection.execute(sql, parameters).fetchall()
                        for sql, parameters in statements
                    ]
            except sqlite3.Error as exc:
                raise ServeError(f"sqlite artifact store {self.path}: {exc}") from exc

    def claim(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        kind, key = validate_kind(kind), validate_key(key)
        owner, ttl = validate_owner(owner), validate_ttl(ttl)
        now = time.time() if now is None else now
        expires_at = now + ttl
        # One transaction: sweep an expired holder, race the insert, then
        # read the winner back.  SQLite's file write lock makes this atomic
        # across every process sharing the database.
        rows = self._lease_transaction(
            [
                (
                    "DELETE FROM compute_leases"
                    " WHERE kind = ? AND key = ? AND expires_at <= ?",
                    (kind, key, now),
                ),
                (
                    "INSERT OR IGNORE INTO compute_leases"
                    " (kind, key, owner, expires_at) VALUES (?, ?, ?, ?)",
                    (kind, key, owner, expires_at),
                ),
                (
                    # Idempotent re-claim: the live holder renews in place.
                    "UPDATE compute_leases SET expires_at = ?"
                    " WHERE kind = ? AND key = ? AND owner = ?",
                    (expires_at, kind, key, owner),
                ),
                (
                    "SELECT owner, expires_at FROM compute_leases"
                    " WHERE kind = ? AND key = ?",
                    (kind, key),
                ),
            ]
        )
        holder = rows[3]
        if holder and str(holder[0][0]) == owner:
            return Lease(kind, key, owner, float(holder[0][1]))
        return None

    def renew(
        self, kind: str, key: str, owner: str, ttl: float, *, now: float | None = None
    ) -> Lease | None:
        kind, key = validate_kind(kind), validate_key(key)
        owner, ttl = validate_owner(owner), validate_ttl(ttl)
        now = time.time() if now is None else now
        expires_at = now + ttl
        cursor = self._execute(
            "UPDATE compute_leases SET expires_at = ?"
            " WHERE kind = ? AND key = ? AND owner = ? AND expires_at > ?",
            (expires_at, kind, key, owner, now),
        )
        if cursor.rowcount > 0:
            return Lease(kind, key, owner, expires_at)
        return None

    def release(self, kind: str, key: str, owner: str) -> bool:
        cursor = self._execute(
            "DELETE FROM compute_leases WHERE kind = ? AND key = ? AND owner = ?",
            (validate_kind(kind), validate_key(key), validate_owner(owner)),
        )
        return cursor.rowcount > 0

    def lease(
        self, kind: str, key: str, *, now: float | None = None
    ) -> Lease | None:
        kind, key = validate_kind(kind), validate_key(key)
        now = time.time() if now is None else now
        row = self._execute(
            "SELECT owner, expires_at FROM compute_leases"
            " WHERE kind = ? AND key = ? AND expires_at > ?",
            (kind, key, now),
        ).fetchone()
        if row is None:
            return None
        return Lease(kind, key, str(row[0]), float(row[1]))

    def quarantined(self) -> list[tuple[str, str]]:
        """Every quarantined ``(kind, key)`` pair (for tests and post-mortems)."""
        rows = self._execute(
            "SELECT kind, key FROM quarantined_artifacts ORDER BY kind, key"
        ).fetchall()
        return [(str(kind), str(key)) for kind, key in rows]

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def describe(self) -> str:
        return f"sqlite (WAL) at {self.path}"
