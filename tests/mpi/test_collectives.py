"""Correctness tests for every collective, against NumPy references."""

import numpy as np
import pytest

from repro.hw import xeon_e5345
from repro.mpi import run_mpi
from repro.units import KiB

TOPO = xeon_e5345()


def test_barrier_synchronizes():
    def main(ctx):
        yield ctx.compute(0.001 * (ctx.rank + 1))  # staggered arrival
        before = ctx.now
        yield ctx.comm.Barrier()
        return before, ctx.now

    r = run_mpi(TOPO, 8, main)
    latest_arrival = max(b for b, _ in r.results)
    for _, after in r.results:
        assert after >= latest_arrival


def test_barrier_single_rank_noop():
    def main(ctx):
        yield ctx.comm.Barrier()
        return "ok"

    assert run_mpi(TOPO, 1, main).results == ["ok"]


@pytest.mark.parametrize("nbytes", [1 * KiB, 128 * KiB])
def test_bcast_delivers_to_all(nbytes):
    def main(ctx):
        buf = ctx.alloc(nbytes)
        if ctx.rank == 2:
            buf.data[:] = np.arange(nbytes, dtype=np.uint8) % 97
        yield ctx.comm.Bcast(buf, root=2)
        return int(np.sum(buf.data, dtype=np.int64))

    r = run_mpi(TOPO, 8, main)
    assert len(set(r.results)) == 1
    assert r.results[0] == int(np.sum(np.arange(nbytes, dtype=np.uint8) % 97, dtype=np.int64))


def test_reduce_sums_at_root():
    n = 4 * KiB

    def main(ctx):
        send = ctx.alloc(n)
        recv = ctx.alloc(n) if ctx.rank == 0 else None
        send.data[:] = ctx.rank + 1
        yield ctx.comm.Reduce(send, recv, root=0)
        if ctx.rank == 0:
            return recv.data.copy()
        return None

    r = run_mpi(TOPO, 4, main)
    # sum of (1+2+3+4) = 10 in every byte
    assert np.all(r.results[0] == 10)


def test_allreduce_everyone_gets_sum():
    n = 2 * KiB

    def main(ctx):
        send, recv = ctx.alloc(n), ctx.alloc(n)
        send.data[:] = 2 * ctx.rank
        yield ctx.comm.Allreduce(send, recv)
        return int(recv.data[0])

    r = run_mpi(TOPO, 8, main)
    assert r.results == [sum(2 * k for k in range(8))] * 8


@pytest.mark.parametrize("nprocs", [4, 8])
def test_allgather_ring(nprocs):
    block = 16 * KiB

    def main(ctx):
        send = ctx.alloc(block)
        send.data[:] = ctx.rank + 1
        recv = ctx.alloc(block * ctx.comm.size)
        yield ctx.comm.Allgather(send, recv)
        return [int(recv.data[i * block]) for i in range(ctx.comm.size)]

    r = run_mpi(TOPO, nprocs, main)
    expected = [k + 1 for k in range(nprocs)]
    assert all(res == expected for res in r.results)


@pytest.mark.parametrize("mode", ["default", "knem", "vmsplice"])
@pytest.mark.parametrize("block", [2 * KiB, 96 * KiB])
def test_alltoall_correctness(mode, block):
    def main(ctx):
        p = ctx.comm.size
        send = ctx.alloc(block * p)
        recv = ctx.alloc(block * p)
        for j in range(p):
            send.data[j * block : (j + 1) * block] = (ctx.rank * p + j) % 251
        yield ctx.comm.Alltoall(send, recv)
        # After alltoall, my block j holds rank j's block addressed to me.
        return [int(recv.data[j * block]) for j in range(p)]

    r = run_mpi(TOPO, 8, main, mode=mode)
    for rank, got in enumerate(r.results):
        assert got == [(j * 8 + rank) % 251 for j in range(8)]


def test_alltoallv_variable_counts():
    def main(ctx):
        p = ctx.comm.size
        # rank r sends (r + j + 1) KiB to rank j
        send_counts = [(ctx.rank + j + 1) * KiB for j in range(p)]
        recv_counts = [(j + ctx.rank + 1) * KiB for j in range(p)]
        send = ctx.alloc(sum(send_counts))
        recv = ctx.alloc(sum(recv_counts))
        off = 0
        for j, c in enumerate(send_counts):
            send.data[off : off + c] = (ctx.rank * 16 + j) % 251
            off += c
        yield ctx.comm.Alltoallv(send, send_counts, recv, recv_counts)
        out = []
        off = 0
        for j, c in enumerate(recv_counts):
            out.append(int(recv.data[off]))
            off += c
        return out

    r = run_mpi(TOPO, 4, main)
    for rank, got in enumerate(r.results):
        assert got == [(j * 16 + rank) % 251 for j in range(4)]


def test_alltoall_sets_collective_hint():
    block = 128 * KiB

    def main(ctx):
        p = ctx.comm.size
        send, recv = ctx.alloc(block * p), ctx.alloc(block * p)
        yield ctx.comm.Alltoall(send, recv)
        return None

    r = run_mpi(TOPO, 8, main, mode="adaptive")
    # During the alltoall many LMTs were in flight simultaneously.
    assert r.world.max_concurrent_lmts >= 4
    # The hint context was fully unwound.
    assert r.world.lmt_hint == 1


def test_collectives_report_progress_counts():
    def main(ctx):
        p = ctx.comm.size
        send, recv = ctx.alloc(96 * KiB * p), ctx.alloc(96 * KiB * p)
        yield ctx.comm.Alltoall(send, recv)

    r = run_mpi(TOPO, 4, main, mode="knem")
    total_rndv = sum(ep.rndv_received for ep in r.world.endpoints)
    assert total_rndv == 4 * 3  # every pair exchanged one large message
