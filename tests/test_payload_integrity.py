"""Every transfer path delivers the sender's bytes, and only those.

For each LMT mode and each internode backend, one message crosses from
rank 0 to rank 1 into a receive buffer 4 KiB larger than the message
and pre-filled with ``0xA5``.  The delivered prefix must equal the
source and the tail must keep its fill.  The source is either written
or never touched: untouched memory reads as zeros, so a path that
skips the zero-fill of an already-touched destination leaves ``0xA5``
behind and fails here.
"""

from collections import Counter

import numpy as np
import pytest

from repro import ClusterSpec, run_cluster
from repro.core.policy import MODES
from repro.hw import modern_server, xeon_e5345
from repro.hw.coherence import CoherenceDomain
from repro.mpi import run_mpi
from repro.units import KiB, MiB

SLACK = 4 * KiB
FILL = 0xA5


def _topo(mode):
    return modern_server() if mode.startswith("dsa") else xeon_e5345()


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
    r = run_mpi(_topo(mode), 2, _transfer(nbytes, written), mode=mode, bindings=[0, 4])
    _check(r.results, nbytes, written)


@pytest.mark.parametrize("written", [True, False], ids=["written", "untouched"])
@pytest.mark.parametrize("mode", MODES)
def test_cache_counters_account_for_every_streamed_line(mode, written, monkeypatch):
    """Each core's L2_HITS + L2_MISSES equals the lines its CPU streams
    read and wrote, and REMOTE_HITS + DRAM_LINES equals its L2_MISSES."""
    streamed = Counter()

    def counting(stream):
        def wrapper(self, core, start, end):
            streamed[core] += max(0, end - start)
            return stream(self, core, start, end)

        return wrapper

    monkeypatch.setattr(CoherenceDomain, "read", counting(CoherenceDomain.read))
    monkeypatch.setattr(CoherenceDomain, "write", counting(CoherenceDomain.write))
    nbytes = 256 * KiB
    r = run_mpi(_topo(mode), 2, _transfer(nbytes, written), mode=mode, bindings=[0, 4])
    _check(r.results, nbytes, written)
    papi = r.papi
    for core in range(r.machine.topo.ncores):
        hits, misses = papi.read(core, "L2_HITS"), papi.read(core, "L2_MISSES")
        remote, dram = papi.read(core, "REMOTE_HITS"), papi.read(core, "DRAM_LINES")
        assert hits + misses == streamed[core], (mode, core, hits, misses, streamed[core])
        assert remote + dram == misses, (mode, core, remote, dram, misses)


@pytest.mark.parametrize("written", [True, False], ids=["written", "untouched"])
@pytest.mark.parametrize(
    "backend,nbytes",
    [
        ("net-eager", 4 * KiB),  # staged through bounce buffers
        ("nic+rdma", 256 * KiB),  # rendezvous RDMA write
    ],
    ids=["staged", "rdma"],
)
def test_internode_delivery_is_exact(backend, nbytes, written):
    spec = ClusterSpec(node=xeon_e5345(), nnodes=2)
    r = run_cluster(spec, 2, _transfer(nbytes, written), procs_per_node=1)
    assert _check(r.results, nbytes, written) == backend
