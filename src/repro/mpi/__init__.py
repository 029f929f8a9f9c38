"""The simulated MPI runtime (MPICH2-Nemesis model).

Layering mirrors MPICH2:

- :mod:`~repro.mpi.datatypes` — contiguous / indexed datatypes
  that expand to iovecs (KNEM's "vectorial buffers");
- :mod:`~repro.mpi.nemesis` — per-rank endpoints: eager cell queues,
  tag matching, unexpected queues, rendezvous transactions;
- :mod:`~repro.mpi.communicator` — the mpi4py-flavoured API
  (``Send``/``Recv``/``Isend``/``Irecv``/``Sendrecv`` plus collectives);
- :mod:`~repro.mpi.world` — the launcher binding ranks to cores and
  running them to completion.

Every MPI call is a generator: simulated processes ``yield`` them
(``yield comm.Send(buf, dest=1)``), and the engine trampolines.
"""

from repro import _lazy_exports
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.datatypes import Contiguous, Datatype, Indexed, as_views
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.mpi.world import MpiRunResult, RankContext, run_mpi

# The cluster world pulls in the internode fabric (repro.net).
_lazy_exports(__name__, {
    "repro.mpi.cluster": ("ClusterRunResult", "ClusterWorld", "run_cluster"),
})

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "ClusterRunResult",
    "ClusterWorld",
    "Communicator",
    "Contiguous",
    "Datatype",
    "Indexed",
    "as_views",
    "Request",
    "Status",
    "MpiRunResult",
    "RankContext",
    "run_cluster",
    "run_mpi",
]
