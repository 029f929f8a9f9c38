"""Content-addressed store of trial results: one class, three backends.

One record per trial, keyed by the trial's config hash.
:class:`ResultCache` owns everything the backends share — key
validation, the parse-and-heal read and the URL grammar of
:meth:`ResultCache.open` — and each backend implements
only raw primitives (read a record's text, write a record, delete one,
list the keys):

* :class:`DirectoryStore` — one ``<hash>.json`` file per trial, written
  through :func:`atomic_write_json` (tmp + fsync + rename), so an interrupted campaign leaves at worst a stray ``.tmp``
  file, never a torn record;
* :class:`SqliteStore` — one database in WAL mode with the hash as
  primary key; a database file sqlite cannot read is moved aside and
  the schema rebuilt empty;
* :class:`MemoryStore` — serialized records in a dict; process-local,
  for tests and one-shots.

A record that will not parse is deleted and read as a miss, and so is
every record a rebuilt database lost: the trial re-runs and rewrites
it.  Only successful trials are stored; failures always re-run, which
is what makes ``campaign resume`` a retry of exactly the broken subset.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Optional

from repro.errors import BenchmarkError

__all__ = [
    "ResultCache",
    "DirectoryStore",
    "SqliteStore",
    "MemoryStore",
    "check_key",
    "atomic_write_json",
    "fsync_dir",
]

#: One or more lower-case ASCII hex digits (``[0-9]`` never matches
#: other scripts' digits, and ``fullmatch`` accepts no trailing newline).
_HEX_KEY = re.compile("[0-9a-f]+").fullmatch


def check_key(key: str) -> str:
    """Validate a store key (hex content hash); returns it unchanged.

    Rejecting anything else before it touches the backing is what keeps
    directory filenames and sqlite keys injection-proof.
    """
    if _HEX_KEY(key) is None:
        raise BenchmarkError(f"store key is not a hex digest: {key!r}")
    return key


def fsync_dir(dirpath: str | Path) -> None:
    """Flush a directory entry to disk (best effort).

    ``os.replace`` makes a rename atomic against concurrent *readers*,
    but the new directory entry itself lives in the page cache until
    the directory is fsync'd — on power loss the file could vanish (or
    worse, point at half-flushed blocks).  Some filesystems refuse
    fsync on directory descriptors; that is a durability limitation,
    not an error, so ``OSError`` is swallowed.
    """
    fd = os.open(dirpath, getattr(os, "O_DIRECTORY", 0) or os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: str | Path, payload, indent: Optional[int] = 2) -> None:
    """Write ``payload`` as JSON so readers never see a torn file.

    The document lands in ``path.with_suffix(".tmp")`` first, is
    fsync'd, then renamed over ``path``, then the *directory* is
    fsync'd so the rename survives power loss — an interrupted writer
    leaves at worst a stale ``.tmp`` beside an intact previous
    version.  Used by the directory store and for every document the
    CLI writes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, indent=indent) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


class ResultCache:
    """Hash-keyed trial records with self-healing reads.

    Use :meth:`open` to get a store from a URL.  :meth:`get` returns the
    stored dict or ``None``; a record that fails to parse is deleted
    before the miss is returned, so a torn write can never wedge a
    trial.
    """

    @staticmethod
    def open(url: str | Path) -> "ResultCache":
        """The store ``url`` names.

        ``sqlite:<path>`` (or any path ending in ``.db``) opens a
        :class:`SqliteStore`, ``mem:`` a fresh :class:`MemoryStore`,
        and anything else is a :class:`DirectoryStore` root.
        """
        url = str(url)
        if url.startswith("sqlite:"):
            return SqliteStore(url[len("sqlite:"):])
        if url.startswith("mem:"):
            return MemoryStore()
        if url.endswith(".db"):
            return SqliteStore(url)
        return DirectoryStore(url)

    # ---------------------------------------------------------- read/write
    def get(self, key: str) -> Optional[dict]:
        """The stored record, or None on a miss (healing corruption)."""
        text = self._read(check_key(key))
        if text is None:
            return None
        try:
            record = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError):
            record = None
        if not isinstance(record, dict):
            # Torn write or manual tampering: delete it so the trial
            # re-runs and rewrites it.
            self.delete(key)
            return None
        return record

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (replacing any previous)."""
        self._write(check_key(key), record)

    def serve(self, trial) -> Optional[dict]:
        """``trial``'s stored record, flagged ``cached``, if it may stand
        in for running the trial: it succeeded, under the same config.
        ``None`` means the trial must run."""
        hit = self.get(trial.hash)
        if (
            hit is None
            or hit.get("status") != "ok"
            or hit.get("config") != trial.config
        ):
            return None
        return {**hit, "cached": True}

    def close(self) -> None:
        """Release backend handles (connections)."""

    def __contains__(self, key: str) -> bool:
        return self._read(check_key(key)) is not None

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------- backend primitives
    def _read(self, key: str) -> Optional[str]:
        """The stored text under a checked ``key``, or None."""
        raise NotImplementedError

    def _write(self, key: str, record: dict) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (idempotent)."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        raise NotImplementedError


class DirectoryStore(ResultCache):
    """One atomic JSON file per key under a single directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / f"{check_key(key)}.json"

    def _read(self, key: str) -> Optional[str]:
        try:
            return self.path(key).read_text()
        except FileNotFoundError:
            return None

    def _write(self, key: str, record: dict) -> None:
        atomic_write_json(self.path(key), record)

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))


class SqliteStore(ResultCache):
    """All records in one SQLite database (WAL mode, hash primary key).

    One connection per store; WAL journal mode lets another process
    read the database while a campaign writes it.  Records are stored
    as ``json.dumps`` text, so they round-trip key order included.

    A database file that SQLite refuses to read — truncated by a torn
    copy, overwritten, flipped bits in the header — is rebuilt: the
    damaged file is moved aside to ``<name>.corrupt`` and an empty
    schema recreated.  Its lost records then read as misses, so the
    next resume re-runs exactly those trials and the store converges
    on the same contents.
    """

    _SCHEMA = (
        "CREATE TABLE IF NOT EXISTS results ("
        "  key TEXT PRIMARY KEY,"
        "  payload TEXT NOT NULL"
        ")"
    )

    def __init__(self, path: str | Path) -> None:
        # Imported here: a campaign that stores nothing in sqlite never
        # loads it.
        import sqlite3

        self._sqlite = sqlite3
        self.file = Path(path)
        self.file.parent.mkdir(parents=True, exist_ok=True)
        self._conn = None
        self._connect()

    # ------------------------------------------------------- connection
    def _connect(self) -> None:
        """Open the database, rebuilding it if it is unreadable."""
        try:
            self._open()
        except self._sqlite.DatabaseError:
            self._rebuild()

    def _open(self) -> None:
        self._conn = self._sqlite.connect(self.file, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(self._SCHEMA)

    def _rebuild(self) -> None:
        """Move the unreadable database aside and start empty."""
        try:
            self.close()
        except self._sqlite.Error:
            self._conn = None  # a damaged database may refuse to close
        if self.file.exists():
            self.file.replace(self.file.with_suffix(".corrupt"))
        for suffix in ("-wal", "-shm"):
            Path(str(self.file) + suffix).unlink(missing_ok=True)
        self._open()

    def _execute(self, sql: str, params: tuple = ()):
        """Run one statement, rebuilding once on a damaged database."""
        try:
            return self._conn.execute(sql, params)
        except self._sqlite.DatabaseError as exc:
            if isinstance(exc, self._sqlite.OperationalError) and "locked" in str(exc):
                raise
            self._rebuild()
        return self._conn.execute(sql, params)

    # ------------------------------------------------------- primitives
    def _read(self, key: str) -> Optional[str]:
        row = self._execute(
            "SELECT payload FROM results WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _write(self, key: str, record: dict) -> None:
        self._execute(
            "INSERT OR REPLACE INTO results (key, payload) VALUES (?, ?)",
            (key, json.dumps(record)),
        )

    def delete(self, key: str) -> None:
        self._execute("DELETE FROM results WHERE key = ?", (check_key(key),))

    def keys(self) -> list[str]:
        rows = self._execute("SELECT key FROM results ORDER BY key").fetchall()
        return [r[0] for r in rows]

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class MemoryStore(ResultCache):
    """Records as serialized JSON text in a dict (tests, one-shots).

    Serializing instead of keeping live dicts is deliberate: reads see
    exactly what a durable backend would return (an independent copy,
    key order preserved, mutation-proof).
    """

    def __init__(self) -> None:
        self._data: dict[str, str] = {}

    def _read(self, key: str) -> Optional[str]:
        return self._data.get(key)

    def _write(self, key: str, record: dict) -> None:
        self._data[key] = json.dumps(record)

    def delete(self, key: str) -> None:
        self._data.pop(check_key(key), None)

    def keys(self) -> list[str]:
        return sorted(self._data)
