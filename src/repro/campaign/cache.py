"""Content-addressed store of trial results, behind a pluggable backend.

One record per trial, keyed by the trial's config hash.  Historically
this was always a directory of ``results/<hash>.json`` files; the
serving layer generalized the backing into the
:class:`repro.service.stores.ResultStore` interface (directory, sqlite,
in-memory), and :class:`ResultCache` became the facade the campaign
stack talks to: it owns the read-side hit/miss accounting and delegates
storage and corruption healing to whichever backend it fronts.

Directory stores keep the original crash story — writes go through
:func:`repro.bench.store.atomic_write_json` (tmp + fsync + rename), so
an interrupted campaign leaves at worst a stray ``.tmp`` file, never a
torn record.  The sqlite store gets the same property from WAL
journaling, plus wholesale rebuild (the next run re-executes the lost
trials) if the database file itself is destroyed.

Only successful trials are stored; failures always re-run, which is
what makes ``campaign resume`` a retry of exactly the broken subset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.errors import BenchmarkError

__all__ = ["ResultCache"]


class ResultCache:
    """Hash-keyed trial records over a pluggable :class:`ResultStore`.

    Construct with a directory path (the historical calling convention,
    still the default backing) or any ``ResultStore`` instance; use
    :meth:`open` to construct from a store URL (worker processes reopen
    the coordinator's store this way).
    """

    def __init__(self, backing) -> None:
        from repro.service.stores import ResultStore

        if isinstance(backing, ResultStore):
            self.store = backing
        else:
            from repro.service.stores import DirectoryStore

            self.store = DirectoryStore(backing)
        #: Read-side telemetry since construction.  ``hits`` counts
        #: records served, ``misses`` counts absent keys; both live on
        #: the facade because they describe *this reader*, not the
        #: shared backing.  The fleet mirrors these into
        #: ``campaign.cache.*`` metrics.
        self.hits = 0
        self.misses = 0

    @classmethod
    def open(cls, url: str) -> "ResultCache":
        """A cache over the store ``url`` names (see ``open_store``)."""
        from repro.service.stores import open_store

        return cls(open_store(url))

    # ------------------------------------------------- backend passthrough
    @property
    def url(self) -> str:
        """String another process can :meth:`open` to share the backing."""
        return self.store.url

    @property
    def shared(self) -> bool:
        """Whether :attr:`url` reopens to the *same* records elsewhere."""
        return self.store.shared

    @property
    def corrupt_healed(self) -> int:
        """Records deleted-and-missed because they would not parse.

        Lives on the store (healing mutates the shared backing), but
        reads as a counter here for backward compatibility — it is a
        subset of ``misses``.
        """
        return self.store.corrupt_healed

    @property
    def root(self) -> Path:
        """Directory-store root (raises for non-directory backings)."""
        root = getattr(self.store, "root", None)
        if root is None:
            raise BenchmarkError(
                f"cache backing is {self.store.kind!r}, not a directory"
            )
        return root

    def path(self, key: str) -> Path:
        """Record path for directory backings."""
        if not hasattr(self.store, "path"):
            raise BenchmarkError(
                f"cache backing is {self.store.kind!r}: records have no paths"
            )
        return self.store.path(key)

    # ---------------------------------------------------------- read/write
    def get(self, key: str) -> Optional[dict]:
        """The stored record, or None on a miss.

        A corrupt record (torn write from a pre-atomic store, manual
        tampering) is deleted by the backend and treated as a miss —
        the trial simply re-runs and rewrites it.
        """
        record = self.store.get(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict) -> None:
        self.store.put(key, record)

    def keys(self) -> list[str]:
        return self.store.keys()

    def close(self) -> None:
        self.store.close()

    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, key: str) -> bool:
        return key in self.store
