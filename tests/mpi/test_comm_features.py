"""Tests for sub-communicators and the eager send's early return."""

from repro.hw import xeon_e5345
from repro.mpi import run_mpi
from repro.mpi.request import Request
from repro.units import KiB

TOPO = xeon_e5345()


# ------------------------------------------------------------- Split --
def test_split_rows_and_columns():
    """8 ranks -> two row communicators of 4, exchange within rows."""

    def main(ctx):
        comm = ctx.comm
        row = yield comm.Split(color=ctx.rank // 4)
        buf = ctx.alloc(2 * KiB)
        buf.data[:] = ctx.rank
        # Ring exchange within the row communicator.
        right = (row.rank + 1) % row.size
        left = (row.rank - 1) % row.size
        recv = ctx.alloc(2 * KiB)
        yield row.Sendrecv(buf, right, recv, left)
        return row.rank, row.size, int(recv.data[0])

    r = run_mpi(TOPO, 8, main)
    for world_rank, (local, size, got) in enumerate(r.results):
        assert size == 4
        assert local == world_rank % 4
        row_base = (world_rank // 4) * 4
        expected_from = row_base + (local - 1) % 4
        assert got == expected_from


def test_split_key_reorders_ranks():
    def main(ctx):
        comm = ctx.comm
        sub = yield comm.Split(color=0, key=-ctx.rank)  # reversed order
        return sub.rank

    r = run_mpi(TOPO, 4, main)
    assert r.results == [3, 2, 1, 0]


def test_split_undefined_color_returns_none():
    def main(ctx):
        comm = ctx.comm
        sub = yield comm.Split(color=None if ctx.rank == 3 else 1)
        return sub is None

    r = run_mpi(TOPO, 4, main)
    assert r.results == [False, False, False, True]


def test_split_collectives_work_on_subcomm():
    def main(ctx):
        comm = ctx.comm
        sub = yield comm.Split(color=ctx.rank % 2)
        send, recv = ctx.alloc(1 * KiB), ctx.alloc(1 * KiB)
        send.data[:] = ctx.rank + 1
        yield sub.Allreduce(send, recv)
        return int(recv.data[0])

    r = run_mpi(TOPO, 4, main)
    # evens: ranks 0,2 -> sum 1+3=4; odds: ranks 1,3 -> 2+4=6
    assert r.results == [4, 6, 4, 6]


def test_context_isolation_same_tags_different_comms():
    """Same (source, tag) on parent and sub-communicator must not
    cross-match: context ids separate the traffic."""

    def main(ctx):
        comm = ctx.comm
        sub = yield comm.Split(color=0)
        a, b = ctx.alloc(1 * KiB), ctx.alloc(1 * KiB)
        if ctx.rank == 0:
            a.data[:] = 11
            b.data[:] = 22
            # Same destination and tag, two communicators.
            r1 = comm.Isend(a, dest=1, tag=7)
            r2 = sub.Isend(b, dest=1, tag=7)
            yield from Request.waitall([r1, r2])
            return None
        if ctx.rank == 1:
            # Receive from the SUB communicator first.
            yield sub.Recv(b, source=0, tag=7)
            yield comm.Recv(a, source=0, tag=7)
            return int(a.data[0]), int(b.data[0])

    r = run_mpi(TOPO, 2, main)
    assert r.results[1] == (11, 22)


def test_send_small_message_returns_early():
    """Contrast: the plain eager Send buffers and returns immediately."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1 * KiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
            return ctx.now
        yield ctx.compute(0.005)
        yield comm.Recv(buf, source=0)
        return ctx.now

    r = run_mpi(TOPO, 2, main)
    assert r.results[0] < 0.001
