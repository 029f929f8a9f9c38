"""Point-to-point correctness across every LMT mode."""

import numpy as np
import pytest

from repro.core.policy import MODES
from repro.errors import RankError, TruncationError
from repro.hw import xeon_e5345
from repro.mpi import ANY_SOURCE, ANY_TAG, run_mpi
from repro.units import KiB, MiB

TOPO = xeon_e5345()


def _fill(buf, seed):
    buf.data[:] = (np.arange(buf.nbytes, dtype=np.int64) * (seed + 3) % 251).astype(
        np.uint8
    )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nbytes", [1 * KiB, 200 * KiB])
def test_send_recv_roundtrip_all_modes(mode, nbytes):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if ctx.rank == 0:
            _fill(buf, 1)
            yield comm.Send(buf, dest=1, tag=5)
            return bytes(buf.data[:16])
        status = yield comm.Recv(buf, source=0, tag=5)
        assert status.source == 0 and status.tag == 5
        assert status.nbytes == nbytes
        return bytes(buf.data[:16])

    r = run_mpi(TOPO, 2, main, bindings=[0, 4], mode=mode)
    assert r.results[0] == r.results[1]
    assert r.elapsed > 0


@pytest.mark.parametrize("mode", ["default", "knem", "vmsplice"])
def test_large_message_data_integrity(mode):
    nbytes = 3 * MiB + 12345  # deliberately unaligned

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if ctx.rank == 0:
            _fill(buf, 9)
            yield comm.Send(buf, dest=1)
            return int(np.sum(buf.data, dtype=np.int64))
        yield comm.Recv(buf, source=0)
        return int(np.sum(buf.data, dtype=np.int64))

    r = run_mpi(TOPO, 2, main, bindings=[0, 1], mode=mode)
    assert r.results[0] == r.results[1] != 0


def test_eager_vs_rendezvous_paths():
    def main(ctx):
        comm = ctx.comm
        small = ctx.alloc(4 * KiB)
        large = ctx.alloc(256 * KiB)
        if ctx.rank == 0:
            yield comm.Send(small, dest=1, tag=1)
            yield comm.Send(large, dest=1, tag=2)
            return None
        s1 = yield comm.Recv(small, source=0, tag=1)
        s2 = yield comm.Recv(large, source=0, tag=2)
        return s1.path, s2.path

    r = run_mpi(TOPO, 2, main, mode="knem")
    assert r.results[1] == ("eager", "knem")


def test_message_ordering_same_tag():
    """Messages between a pair with equal tags arrive in send order."""

    def main(ctx):
        comm = ctx.comm
        bufs = [ctx.alloc(1 * KiB) for _ in range(4)]
        if ctx.rank == 0:
            for i, b in enumerate(bufs):
                b.data[:] = i + 1
                yield comm.Send(b, dest=1, tag=7)
            return None
        seen = []
        for b in bufs:
            yield comm.Recv(b, source=0, tag=7)
            seen.append(int(b.data[0]))
        return seen

    r = run_mpi(TOPO, 2, main)
    assert r.results[1] == [1, 2, 3, 4]


def test_tag_matching_out_of_order():
    """A recv for tag 2 matches the tag-2 message even if tag 1 arrived
    first (unexpected queue semantics)."""

    def main(ctx):
        comm = ctx.comm
        a, b = ctx.alloc(1 * KiB), ctx.alloc(1 * KiB)
        if ctx.rank == 0:
            a.data[:] = 11
            b.data[:] = 22
            yield comm.Send(a, dest=1, tag=1)
            yield comm.Send(b, dest=1, tag=2)
            return None
        yield comm.Recv(b, source=0, tag=2)
        yield comm.Recv(a, source=0, tag=1)
        return int(a.data[0]), int(b.data[0])

    r = run_mpi(TOPO, 2, main)
    assert r.results[1] == (11, 22)


def test_any_source_any_tag():
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(2 * KiB)
        if ctx.rank == 2:
            statuses = []
            for _ in range(2):
                st = yield comm.Recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                statuses.append((st.source, st.tag))
            return sorted(statuses)
        buf.data[:] = ctx.rank
        yield comm.Send(buf, dest=2, tag=ctx.rank * 10)
        return None

    r = run_mpi(TOPO, 3, main)
    assert r.results[2] == [(0, 0), (1, 10)]


def test_isend_irecv_overlap():
    def main(ctx):
        comm = ctx.comm
        sbuf = ctx.alloc(128 * KiB)
        rbuf = ctx.alloc(128 * KiB)
        sbuf.data[:] = ctx.rank + 1
        peer = 1 - ctx.rank
        rreq = comm.Irecv(rbuf, source=peer)
        sreq = comm.Isend(sbuf, dest=peer)
        yield from rreq.wait()
        yield from sreq.wait()
        return int(rbuf.data[0])

    r = run_mpi(TOPO, 2, main, mode="knem")
    assert r.results == [2, 1]


def test_sendrecv_bidirectional():
    def main(ctx):
        comm = ctx.comm
        sbuf, rbuf = ctx.alloc(96 * KiB), ctx.alloc(96 * KiB)
        sbuf.data[:] = 100 + ctx.rank
        peer = 1 - ctx.rank
        status = yield comm.Sendrecv(sbuf, peer, rbuf, peer)
        return status.source, int(rbuf.data[0])

    r = run_mpi(TOPO, 2, main, bindings=[0, 4], mode="vmsplice")
    assert r.results == [(1, 101), (0, 100)]


def test_send_to_self():
    def main(ctx):
        comm = ctx.comm
        sbuf, rbuf = ctx.alloc(8 * KiB), ctx.alloc(8 * KiB)
        sbuf.data[:] = 123
        req = comm.Isend(sbuf, dest=0)
        st = yield comm.Recv(rbuf, source=0)
        yield from req.wait()
        return st.path, int(rbuf.data[0])

    r = run_mpi(TOPO, 1, main)
    assert r.results[0] == ("self", 123)


def test_truncation_error():
    def main(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            big = ctx.alloc(64 * KiB)
            yield comm.Send(big, dest=1)
        else:
            small = ctx.alloc(1 * KiB)
            yield comm.Recv(small, source=0)

    with pytest.raises(TruncationError):
        run_mpi(TOPO, 2, main)


def test_bad_rank_rejected():
    def main(ctx):
        buf = ctx.alloc(64)
        yield ctx.comm.Send(buf, dest=5)

    with pytest.raises(RankError):
        run_mpi(TOPO, 2, main)


def test_unmatched_recv_deadlocks_with_diagnosis():
    from repro.errors import DeadlockError

    def main(ctx):
        buf = ctx.alloc(64)
        if ctx.rank == 1:
            yield ctx.comm.Recv(buf, source=0, tag=99)  # never sent

    with pytest.raises(DeadlockError) as err:
        run_mpi(TOPO, 2, main)
    assert any("rank1" in name for name in err.value.blocked)


def test_zero_byte_message():
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(16)
        if ctx.rank == 0:
            yield comm.Send(buf.view(0, 0), dest=1, tag=3)
            return None
        st = yield comm.Recv(buf.view(0, 0), source=0, tag=3)
        return st.nbytes, st.path

    r = run_mpi(TOPO, 2, main)
    assert r.results[1] == (0, "eager")


def test_noncontiguous_send_via_vector_datatype():
    from repro.mpi.datatypes import Indexed

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(512 * KiB)
        # 1024 strided blocks of 256 B, 512 B apart: a 256 KiB payload.
        t = Indexed([(i * 512, 256) for i in range(1024)])
        views = t.iovec(buf)
        if ctx.rank == 0:
            buf.data[:] = 0
            for v in views:
                v.array[:] = 55
            yield comm.Send(views, dest=1)
            return None
        dst = ctx.alloc(256 * KiB)
        st = yield comm.Recv(dst, source=0)
        return st.nbytes, int(dst.data[0]), int(dst.data[-1]), st.path

    r = run_mpi(TOPO, 2, main, mode="knem")
    assert r.results[1] == (256 * KiB, 55, 55, "knem")


def test_warm_pingpong_faster_when_cache_shared():
    """Steady-state pingpong throughput must be higher on a shared
    cache than across sockets (default LMT) — the Fig. 3-5 backdrop."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(256 * KiB)
        peer = 1 - ctx.rank
        t0 = None
        for rep in range(6):
            if rep == 2:
                t0 = ctx.now  # skip warmup
            if ctx.rank == 0:
                yield comm.Send(buf, dest=peer)
                yield comm.Recv(buf, source=peer)
            else:
                yield comm.Recv(buf, source=peer)
                yield comm.Send(buf, dest=peer)
        return ctx.now - t0

    shared = run_mpi(TOPO, 2, main, bindings=[0, 1], mode="default").results[0]
    remote = run_mpi(TOPO, 2, main, bindings=[0, 4], mode="default").results[0]
    assert shared < remote
