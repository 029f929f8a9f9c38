"""Nonblocking-operation requests.

``Isend``/``Irecv`` spawn the blocking implementation as a separate
simulated process; the :class:`Request` wraps its completion.  Waiting
is ``yield req.wait()`` (or ``yield from``); ``Request.waitall`` joins a
batch, which the collectives use heavily.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import MpiError
from repro.mpi.status import Status
from repro.sim.events import AllOf
from repro.sim.process import Process

__all__ = ["Request"]


class Request:
    """Handle to an in-flight nonblocking operation."""

    __slots__ = ("process", "kind")

    def __init__(self, process: Process, kind: str) -> None:
        self.process = process
        self.kind = kind

    def __repr__(self) -> str:
        state = "done" if self.process.finished else "pending"
        return f"<Request {self.kind} {state}>"

    @property
    def completed(self) -> bool:
        return self.process.finished

    def test(self) -> Optional[Status]:
        """Nonblocking completion check (MPI_Test)."""
        if not self.process.finished:
            return None
        return self.process.result

    def wait(self):
        """Generator: block until completion, return the Status."""
        result = yield self.process
        return result

    @staticmethod
    def waitall(requests: Sequence["Request"]):
        """Generator: wait for every request; returns their statuses."""
        if not requests:
            return []
        pending = [r.process.done for r in requests if not r.process.finished]
        if pending:
            engine = requests[0].process.engine
            yield AllOf(engine, pending)
        results = []
        for r in requests:
            if not r.process.finished:
                raise MpiError(f"waitall finished but {r!r} is pending")
            results.append(r.process.result)
        return results
