"""Correctness tests for each collective algorithm variant, forced
directly (bypassing size-based selection)."""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.hw import xeon_e5345
from repro.mpi import run_mpi
from repro.mpi.coll.allgather import allgather_recursive_doubling, allgather_ring
from repro.mpi.coll.alltoall import alltoall_bruck
from repro.mpi.coll.bcast import bcast_binomial, bcast_scatter_allgather
from repro.mpi.coll.reduce import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    reduce,
    reduce_scatter_block,
)
from repro.mpi.coll.tuning import CollTuning
from repro.units import KiB

TOPO = xeon_e5345()


# ------------------------------------------------------------- bcast --
@pytest.mark.parametrize("algo", [bcast_binomial, bcast_scatter_allgather])
@pytest.mark.parametrize("nprocs", [4, 7, 8])
@pytest.mark.parametrize("root", [0, 2])
def test_bcast_algorithms(algo, nprocs, root):
    nbytes = 96 * KiB + 13  # deliberately not divisible by p

    def main(ctx):
        buf = ctx.alloc(nbytes)
        if ctx.rank == root:
            buf.data[:] = (np.arange(nbytes) % 157).astype(np.uint8)
        yield algo(ctx.comm, buf, root)
        return int(np.sum(buf.data, dtype=np.int64))

    r = run_mpi(TOPO, nprocs, main)
    expected = int(np.sum((np.arange(nbytes) % 157).astype(np.uint8), dtype=np.int64))
    assert all(res == expected for res in r.results)


def test_bcast_selection_by_size():
    """Small payloads take the tree; large take scatter+allgather.
    Both must deliver; we check via tuning override that selection
    actually switches (scatter+allgather sends p-1 extra ring messages)."""

    def main(ctx):
        buf = ctx.alloc(64 * KiB)
        if ctx.rank == 0:
            buf.data[:] = 3
        yield ctx.comm.Bcast(buf, root=0)
        return int(buf.data[0])

    low = run_mpi(TOPO, 8, main, coll_tuning=CollTuning(bcast_long_min=1))
    high = run_mpi(TOPO, 8, main, coll_tuning=CollTuning(bcast_long_min=1 << 30))
    assert low.results == high.results == [3] * 8
    # The long algorithm exchanges more (smaller) messages in total.
    msgs_low = sum(ep.eager_received + ep.rndv_received for ep in low.world.endpoints)
    msgs_high = sum(ep.eager_received + ep.rndv_received for ep in high.world.endpoints)
    assert msgs_low > msgs_high


# --------------------------------------------------------- allgather --
@pytest.mark.parametrize("algo", [allgather_ring, allgather_recursive_doubling])
def test_allgather_algorithms(algo):
    block = 8 * KiB

    def main(ctx):
        p = ctx.comm.size
        send = ctx.alloc(block)
        send.data[:] = 50 + ctx.rank
        recv = ctx.alloc(block * p)
        yield algo(ctx.comm, send, recv)
        return [int(recv.data[i * block]) for i in range(p)]

    r = run_mpi(TOPO, 8, main)
    assert all(res == [50 + k for k in range(8)] for res in r.results)


def test_allgather_rd_falls_back_for_non_pow2():
    block = 4 * KiB

    def main(ctx):
        p = ctx.comm.size
        send, recv = ctx.alloc(block), ctx.alloc(block * p)
        send.data[:] = ctx.rank + 1
        yield allgather_recursive_doubling(ctx.comm, send, recv)
        return [int(recv.data[i * block]) for i in range(p)]

    r = run_mpi(TOPO, 6, main)
    assert all(res == [1, 2, 3, 4, 5, 6] for res in r.results)


# --------------------------------------------------------- allreduce --
@pytest.mark.parametrize(
    "algo", [allreduce_recursive_doubling, allreduce_rabenseifner]
)
@pytest.mark.parametrize("nbytes", [1 * KiB, 64 * KiB + 24])
def test_allreduce_algorithms(algo, nbytes):
    def main(ctx):
        send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
        send.data[:] = ctx.rank + 1
        yield algo(ctx.comm, send, recv)
        return int(recv.data[0]), int(recv.data[-1])

    r = run_mpi(TOPO, 8, main)
    total = sum(k + 1 for k in range(8))
    assert all(res == (total, total) for res in r.results)


def test_allreduce_rabenseifner_nondivisible_sizes():
    """Block boundaries with nbytes % p != 0 must still cover every
    byte exactly once."""
    nbytes = 10 * KiB + 7

    def main(ctx):
        send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
        send.data[:] = (np.arange(nbytes) % 11 + ctx.rank).astype(np.uint8)
        yield allreduce_rabenseifner(ctx.comm, send, recv)
        return recv.data.copy()

    r = run_mpi(TOPO, 4, main)
    base = np.arange(nbytes) % 11
    expected = sum((base + k).astype(np.uint8).astype(np.int64) for k in range(4))
    expected = (expected % 256).astype(np.uint8)
    for res in r.results:
        assert np.array_equal(res, expected)


def test_allreduce_custom_op_and_dtype():
    def op_max(acc, incoming):
        np.maximum(acc, incoming, out=acc)

    def main(ctx):
        send, recv = ctx.alloc(64), ctx.alloc(64)
        send.data.view(np.uint32)[:] = ctx.rank * 10
        yield ctx.comm.Allreduce(send, recv, op=op_max, dtype=np.uint32)
        return int(recv.data.view(np.uint32)[0])

    r = run_mpi(TOPO, 4, main)
    assert r.results == [30, 30, 30, 30]


def test_allreduce_selection_non_pow2_falls_back():
    def main(ctx):
        send, recv = ctx.alloc(4 * KiB), ctx.alloc(4 * KiB)
        send.data[:] = 1
        yield ctx.comm.Allreduce(send, recv)
        return int(recv.data[0])

    r = run_mpi(TOPO, 5, main)
    assert r.results == [5] * 5


# ------------------------------------------------ demand-zero reduce --
# (nprocs, nbytes) covering Rabenseifner, recursive doubling and the
# reduce + bcast fallback.
REDUCE_SHAPES = [(8, 1024 * KiB), (8, 1 * KiB), (6, 64 * KiB)]


@pytest.mark.parametrize("nprocs,nbytes", REDUCE_SHAPES)
def test_untouched_allreduce_materialises_no_payload(nprocs, nbytes):
    """Buffers that were only ``touch``ed hold zeros, and the built-in
    add of zeros is zero: no step may allocate a payload array."""

    def main(ctx):
        send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
        yield ctx.touch(send, write=True)
        yield ctx.comm.Allreduce(send, recv)

    r = run_mpi(TOPO, nprocs, main)
    buffers = [b for space in r.world.spaces for b in space.buffers]
    assert len(buffers) > 2 * nprocs  # the algorithm's scratch is counted too
    assert all(b._data is None for b in buffers)


def test_untouched_reduce_scatter_block_materialises_no_payload():
    def main(ctx):
        send, recv = ctx.alloc(64 * KiB), ctx.alloc(8 * KiB)
        yield ctx.comm.Reduce_scatter_block(send, recv)

    r = run_mpi(TOPO, 8, main)
    assert all(b._data is None for space in r.world.spaces for b in space.buffers)


@pytest.mark.parametrize("nprocs,nbytes", REDUCE_SHAPES)
def test_one_written_operand_among_untouched_sums_exactly(nprocs, nbytes):
    writer = 3
    pattern = (np.arange(nbytes) % 253 + 1).astype(np.uint8)

    def main(ctx):
        send, recv = ctx.alloc(nbytes), ctx.alloc(nbytes)
        if ctx.rank == writer:
            send.data[:] = pattern
        else:
            yield ctx.touch(send, write=True)
        yield ctx.comm.Allreduce(send, recv)
        return recv.data.copy()

    r = run_mpi(TOPO, nprocs, main)
    for got in r.results:
        assert np.array_equal(got, pattern)


def test_user_op_sees_zero_filled_operands():
    """A user op need not map zeros to zero, so it runs on untouched
    buffers too, with operands that read as zeros."""
    calls = []

    def op_set(acc, incoming):
        calls.append((acc.any(), incoming.any()))
        acc[:] = 5

    def main(ctx):
        send, recv = ctx.alloc(64), ctx.alloc(64)
        yield allreduce_recursive_doubling(ctx.comm, send, recv, op=op_set)
        return recv.data.copy()

    r = run_mpi(TOPO, 2, main)
    assert calls == [(False, False)] * 2
    for got in r.results:
        assert np.array_equal(got, np.full(64, 5, dtype=np.uint8))


def test_negative_zero_accumulator_keeps_numpy_semantics():
    """-0.0 + 0.0 is +0.0: a touched accumulator combined with an
    untouched source must still be combined, not left as it is."""
    n = 16
    expected = (np.full(n, -0.0) + np.zeros(n)).view(np.uint64)

    def main(ctx):
        send, recv = ctx.alloc(8 * n), ctx.alloc(8 * n)
        if ctx.rank == 0:
            send.data.view(np.float64)[:] = -0.0
        yield allreduce_recursive_doubling(ctx.comm, send, recv, dtype=np.float64)
        return recv.data.view(np.uint64).copy()

    r = run_mpi(TOPO, 2, main)
    assert not np.signbit(expected.view(np.float64)).any()
    for got in r.results:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("ndoubles,nprocs", [(300, 8), (513, 4)])
def test_float64_allreduce_splits_on_element_boundaries(ndoubles, nprocs):
    """Both sizes take Rabenseifner (>= 2 KiB), whose blocks must not
    cut a double in half."""

    def values(rank):
        return np.arange(ndoubles, dtype=np.float64) * 0.5 + rank

    def main(ctx):
        send, recv = ctx.alloc(8 * ndoubles), ctx.alloc(8 * ndoubles)
        send.data.view(np.float64)[:] = values(ctx.rank)
        yield ctx.comm.Allreduce(send, recv, dtype=np.float64)
        return recv.data.view(np.float64).copy()

    r = run_mpi(TOPO, nprocs, main)
    expected = sum(values(k) for k in range(nprocs))
    for got in r.results:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("written", [False, True])
def test_partial_element_byte_count_raises_before_any_message(written):
    def main(ctx):
        send, recv = ctx.alloc(100), ctx.alloc(100)
        if written:
            send.data[:] = 1
        try:
            yield from allreduce_recursive_doubling(
                ctx.comm, send, recv, dtype=np.float64
            )
        except MpiError as exc:
            return str(exc), ctx.now

    r = run_mpi(TOPO, 4, main)
    for msg, now in r.results:
        assert "100B" in msg and "8B" in msg
        assert now == 0.0
    assert sum(ep.eager_received + ep.rndv_received for ep in r.world.endpoints) == 0


def test_reduce_scatter_block_rejects_partial_element_blocks():
    def main(ctx):
        send, recv = ctx.alloc(48), ctx.alloc(12)  # 12 B blocks of float64
        try:
            yield from reduce_scatter_block(ctx.comm, send, recv, dtype=np.float64)
        except MpiError as exc:
            return str(exc)

    r = run_mpi(TOPO, 4, main)
    assert all("12B" in msg and "8B" in msg for msg in r.results)


def test_reduce_rejects_missing_root_recvbuf_before_receiving():
    caught = []

    def main(ctx):
        send = ctx.alloc(256)
        try:
            yield from reduce(ctx.comm, send, None, root=0)
        except MpiError as exc:
            caught.append((ctx.rank, str(exc), ctx.now))

    # The root gives up before receiving, so its children's partial
    # results are left unmatched at the root and the run says so.
    with pytest.raises(MpiError, match="never received") as err:
        run_mpi(TOPO, 4, main)
    assert "rank 0 holds 1 from source 1 tag" in str(err.value)
    assert "1 from source 2 tag" in str(err.value)
    [(rank, msg, now)] = caught
    assert rank == 0 and "receive buffer" in msg and now == 0.0


# ------------------------------------------------------------ bruck --
@pytest.mark.parametrize("nprocs", [4, 5, 8])
def test_alltoall_bruck_correctness(nprocs):
    block = 256

    def main(ctx):
        p = ctx.comm.size
        send, recv = ctx.alloc(block * p), ctx.alloc(block * p)
        for j in range(p):
            send.data[j * block : (j + 1) * block] = (ctx.rank * p + j) % 251
        yield alltoall_bruck(ctx.comm, send, recv)
        return [int(recv.data[j * block]) for j in range(p)]

    r = run_mpi(TOPO, nprocs, main)
    for rank, got in enumerate(r.results):
        assert got == [(j * nprocs + rank) % 251 for j in range(nprocs)], rank


def test_alltoall_selection_uses_bruck_for_tiny():
    """With a tuned-up Bruck ceiling, tiny alltoalls send far fewer
    messages (log p rounds instead of p-1 per rank)."""
    block = 512

    def main(ctx):
        p = ctx.comm.size
        send, recv = ctx.alloc(block * p), ctx.alloc(block * p)
        send.data[:] = ctx.rank
        yield ctx.comm.Alltoall(send, recv)
        return None

    bruck = run_mpi(TOPO, 8, main, coll_tuning=CollTuning(alltoall_bruck_max=1024))
    scattered = run_mpi(TOPO, 8, main, coll_tuning=CollTuning(alltoall_bruck_max=0))
    n_bruck = sum(ep.eager_received for ep in bruck.world.endpoints)
    n_scattered = sum(ep.eager_received for ep in scattered.world.endpoints)
    assert n_bruck < n_scattered
