"""Every transfer path delivers the sender's bytes, and only those.

For each LMT mode and each internode backend, one message crosses from
rank 0 to rank 1 into a receive buffer 4 KiB larger than the message
and pre-filled with ``0xA5``.  The delivered prefix must equal the
source and the tail must keep its fill.  The source is either written
or never touched: untouched memory reads as zeros, so a path that
skips the zero-fill of an already-touched destination leaves ``0xA5``
behind and fails here.
"""

import numpy as np
import pytest

from repro import ClusterSpec, FabricParams, run_cluster
from repro.core.policy import MODES
from repro.hw import modern_server, xeon_e5345
from repro.mpi import run_mpi
from repro.units import KiB, MiB

SLACK = 4 * KiB
FILL = 0xA5


def _pattern(nbytes):
    return ((np.arange(nbytes) * 7 + 3) % 251).astype(np.uint8)


def _transfer(nbytes, written):
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            buf = ctx.alloc(nbytes)
            if written:
                buf.data[:] = _pattern(nbytes)
            yield comm.Send(buf, dest=1, tag=0)
            return None
        buf = ctx.alloc(nbytes + SLACK)
        buf.data[:] = FILL
        status = yield comm.Recv(buf, source=0, tag=0)
        return status.nbytes, status.path, buf.data.copy()

    return main


def _check(results, nbytes, written):
    _, (received, path, data) = results
    expected = _pattern(nbytes) if written else np.zeros(nbytes, np.uint8)
    assert received == nbytes
    assert np.array_equal(data[:nbytes], expected), path
    assert (data[nbytes:] == FILL).all(), path
    return path


@pytest.mark.parametrize("written", [True, False], ids=["written", "untouched"])
@pytest.mark.parametrize("nbytes", [4 * KiB, 256 * KiB, 3 * MiB])
@pytest.mark.parametrize("mode", MODES)
def test_intranode_delivery_is_exact(mode, nbytes, written):
    topo = modern_server() if mode.startswith("dsa") else xeon_e5345()
    r = run_mpi(topo, 2, _transfer(nbytes, written), mode=mode, bindings=[0, 4])
    _check(r.results, nbytes, written)


@pytest.mark.parametrize("written", [True, False], ids=["written", "untouched"])
@pytest.mark.parametrize(
    "backend,nbytes,eager_rdma",
    [
        ("net-eager", 4 * KiB, False),  # staged through bounce buffers
        ("nic+rdma", 256 * KiB, False),  # rendezvous RDMA write
        ("net-eager", 4 * KiB, True),  # eager RDMA into a ring slot
    ],
    ids=["staged", "rdma", "eager-rdma"],
)
def test_internode_delivery_is_exact(backend, nbytes, eager_rdma, written):
    spec = ClusterSpec(
        node=xeon_e5345(), nnodes=2, fabric=FabricParams(eager_rdma=eager_rdma)
    )
    r = run_cluster(spec, 2, _transfer(nbytes, written), procs_per_node=1)
    assert _check(r.results, nbytes, written) == backend
