"""Cache-interference accounting between co-located jobs.

The paper's Table 2 argument — copy-based LMTs pollute shared caches,
I/OAT DMA does not — only becomes *visible to a neighbour* when two
workloads share one :class:`~repro.hw.cache.ExtentLRUCache`.  The
:class:`InterferenceLedger` makes that visible: it knows which physical
line ranges belong to which job (every job allocation and shm copy-ring
cell is registered at creation), installs itself as the
``CoherenceDomain.interference`` probe, and brackets every CPU stream
with a residency snapshot of the *other* jobs' lines on the accessed
die.  Lines of job B that were resident before job A's stream and gone
after it are capacity evictions A inflicted on B — the ``sched.*``
cross-job eviction metric.

Attribution is by *address ownership*, not by core: the accessed range
belongs to exactly one job (physical ranges are disjoint by
construction), so the evictor is the owner of the accessed range and
the victims are the owners of whatever vanished.  DMA traffic needs no
probe at all — ``dma_read`` only downgrades and ``dma_write`` only
invalidates the destination range, which the accessor owns — which is
precisely why an I/OAT job shows up with zero cross-job evictions.

The probe costs one attribute check per stream when absent and a
per-victim-range ``resident_lines`` scan when armed; it never touches
LRU state (``resident_lines`` is a pure interval sum).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

__all__ = ["InterferenceLedger"]


class InterferenceLedger:
    """Owns the job ⇄ physical-line map and the eviction tallies."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: job id -> list of (start_line, end_line) owned ranges.
        self._ranges: dict[int, list[tuple[int, int]]] = {}
        #: Sorted range index for owner lookups: (start, end, job).
        self._index: list[tuple[int, int, int]] = []
        self._index_starts: list[int] = []
        #: job -> lines of this job evicted by other jobs' accesses.
        self.evicted_by_others: dict[int, int] = {}
        #: job -> lines of *other* jobs this job's accesses evicted.
        self.evictions_caused: dict[int, int] = {}
        #: (evictor job, victim job) -> lines.
        self.pair_evictions: dict[tuple[int, int], int] = {}
        #: Jobs currently running (finished jobs stop being victims in
        #: the probe loop but keep their tallies).
        self._active: set[int] = set()

    # ------------------------------------------------------- registry
    def add_job(self, job_id: int) -> None:
        self._ranges.setdefault(job_id, [])
        self._active.add(job_id)
        self.evicted_by_others.setdefault(job_id, 0)
        self.evictions_caused.setdefault(job_id, 0)

    def retire_job(self, job_id: int) -> None:
        self._active.discard(job_id)

    def register(self, job_id: int, phys: int, nbytes: int) -> None:
        """Record that ``[phys, phys + nbytes)`` belongs to ``job_id``."""
        if nbytes <= 0:
            return
        lo, hi = self.machine.line_span(phys, nbytes)
        self._ranges.setdefault(job_id, []).append((lo, hi))
        self._index.append((lo, hi, job_id))
        self._index.sort()
        self._index_starts = [r[0] for r in self._index]

    def owner_of(self, line: int) -> Optional[int]:
        """The job owning a physical line, or None (kernel buffers,
        untracked single-job runs)."""
        i = bisect_right(self._index_starts, line) - 1
        if i >= 0:
            lo, hi, job = self._index[i]
            if lo <= line < hi:
                return job
        return None

    # ----------------------------------------------------- occupancy
    def occupancy(self, job_id: int) -> int:
        """Lines of ``job_id`` currently resident across all caches."""
        total = 0
        for cache in self.machine.caches:
            for lo, hi in self._ranges.get(job_id, ()):
                total += cache.resident_lines(lo, hi)
        return total

    # ------------------------------------------------ coherence probe
    def pre_access(self, die: int, start: int, end: int):
        """Residency of every *other* active job on the accessed die,
        taken just before the stream mutates the cache."""
        accessor = self.owner_of(start)
        victims = [j for j in self._active if j != accessor]
        if not victims:
            return None
        cache = self.machine.caches[die]
        resident = []
        for job in victims:
            lines = sum(
                cache.resident_lines(lo, hi)
                for lo, hi in self._ranges.get(job, ())
            )
            if lines:
                resident.append((job, lines))
        if not resident:
            return None
        return (accessor, resident)

    def post_access(self, die: int, start: int, end: int, token) -> None:
        if token is None:
            return
        accessor, resident = token
        cache = self.machine.caches[die]
        for job, before in resident:
            after = sum(
                cache.resident_lines(lo, hi)
                for lo, hi in self._ranges.get(job, ())
            )
            lost = before - after
            if lost <= 0:
                continue
            self.evicted_by_others[job] = (
                self.evicted_by_others.get(job, 0) + lost
            )
            if accessor is not None:
                self.evictions_caused[accessor] = (
                    self.evictions_caused.get(accessor, 0) + lost
                )
            key = (-1 if accessor is None else accessor, job)
            self.pair_evictions[key] = self.pair_evictions.get(key, 0) + lost

    # ------------------------------------------------------- summary
    def job_summary(self, job_id: int) -> dict:
        """The interference breakdown embedded in a ``JobResult``."""
        return {
            "l2_lines_evicted_by_others": self.evicted_by_others.get(job_id, 0),
            "l2_lines_evicted_from_others": self.evictions_caused.get(job_id, 0),
            "victims": {
                str(victim): lines
                for (evictor, victim), lines in sorted(self.pair_evictions.items())
                if evictor == job_id
            },
        }
