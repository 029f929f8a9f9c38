"""Pin-down (registration) cache for kernel-assisted transfers.

KNEM pins the sender's pages on *every* declare (Sec. 3.3), which is a
per-transfer cost proportional to the message size.  Production MPI
stacks amortize repeated transfers from the same buffers with a
registration cache: a hit skips the page-table walk entirely.  This is
a classic optimization (popularized by InfiniBand stacks) that the
paper's KNEM 0.5 did not have — the ablation benchmark quantifies what
it would have bought on the pingpong workloads.

The cache is keyed by buffer identity and byte range, holds a bounded
number of entries, and evicts LRU.  Eviction only drops the victim's
registration: no unpin is modelled or charged, so a later transfer of
that range misses and pins it again.  It must be invalidated when a
buffer is freed/remapped; the simulation's buffers are immortal, so
the eviction path is exercised by capacity pressure in tests.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.kernel.address_space import BufferView
from repro.units import PAGE_SIZE

__all__ = ["RegistrationCache"]


class RegistrationCache:
    """LRU cache of pinned (buffer, range) registrations."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"regcache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, int]" = OrderedDict()  # key -> pages
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Pages actually pinned through this cache (misses only — hits
        #: pin nothing).  ``bytes_pinned`` is the exactness surface the
        #: metrics layer exposes: it must equal ``PAGE_SIZE`` times the
        #: page counts returned to (and charged by) callers.
        self.pages_pinned = 0

    @staticmethod
    def _key(view: BufferView) -> tuple:
        return (id(view.buffer), view.offset, view.nbytes)

    def lookup_pages_to_pin(self, views: list[BufferView]) -> int:
        """Pages that still need pinning for these views; registers the
        misses and refreshes the hits.  The caller charges the cost."""
        pages = 0
        for view in views:
            key = self._key(view)
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                continue
            self.misses += 1
            pages += view.npages
            self._entries[key] = view.npages
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        self.pages_pinned += pages
        return pages

    def invalidate(self, view: BufferView) -> bool:
        """Drop a registration (buffer freed / remapped)."""
        return self._entries.pop(self._key(view), None) is not None

    def clear(self) -> None:
        self._entries.clear()

    @property
    def entries(self) -> int:
        return len(self._entries)

    @property
    def bytes_pinned(self) -> int:
        """Total bytes this cache has ever pinned (miss traffic)."""
        return self.pages_pinned * PAGE_SIZE

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
