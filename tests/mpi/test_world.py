"""Tests for the MPI world launcher and rank contexts."""

import numpy as np
import pytest

from repro.core.policy import LmtConfig
from repro.errors import MpiError
from repro.hw import modern_server, xeon_e5345
from repro.mpi import run_mpi
from repro.mpi.world import MpiWorld
from repro.units import KiB, MiB

TOPO = xeon_e5345()


def test_results_in_rank_order():
    def main(ctx):
        yield ctx.compute(0.001 * (8 - ctx.rank))  # finish out of order
        return ctx.rank * 10

    r = run_mpi(TOPO, 4, main)
    assert r.results == [0, 10, 20, 30]


def test_default_bindings_are_first_cores():
    def main(ctx):
        return ctx.core
        yield

    r = run_mpi(TOPO, 3, main)
    assert r.results == [0, 1, 2]


def test_custom_bindings():
    def main(ctx):
        return ctx.core
        yield

    r = run_mpi(TOPO, 2, main, bindings=[6, 2])
    assert r.results == [6, 2]


def test_bad_bindings_rejected():
    def main(ctx):
        yield ctx.compute(0)

    with pytest.raises(MpiError):
        run_mpi(TOPO, 2, main, bindings=[0])  # wrong length
    with pytest.raises(MpiError):
        run_mpi(TOPO, 2, main, bindings=[0, 99])  # out of range
    with pytest.raises(MpiError):
        run_mpi(TOPO, 0, main)


def test_cache_sharers_counts_coresident_ranks():
    def main(ctx):
        yield ctx.compute(0)

    r = run_mpi(TOPO, 4, main, bindings=[0, 1, 4, 6])
    world = r.world
    assert world.cache_sharers(0) == 2  # ranks 0,1 share die 0
    assert world.cache_sharers(2) == 1  # rank on core 4 alone on die 2


def test_compute_advances_clock():
    def main(ctx):
        yield ctx.compute(0.5)
        return ctx.now

    r = run_mpi(TOPO, 1, main)
    assert r.results[0] == pytest.approx(0.5)
    assert r.elapsed == pytest.approx(0.5)


def test_touch_charges_cache_and_counters():
    def main(ctx):
        buf = ctx.alloc(256 * KiB)
        yield ctx.touch(buf, write=True)

    r = run_mpi(TOPO, 1, main)
    assert r.papi.read(0, "L2_MISSES") == 256 * KiB // 64
    assert r.papi.read(0, "CPU_BUSY") > 0


def test_l2_misses_helper_per_rank_and_total():
    def main(ctx):
        buf = ctx.alloc(64 * KiB)
        yield ctx.touch(buf)

    r = run_mpi(TOPO, 2, main, bindings=[0, 4])
    per_rank = 64 * KiB // 64
    assert r.l2_misses(0) == per_rank
    assert r.l2_misses(1) == per_rank
    assert r.l2_misses() == 2 * per_rank


def test_config_overrides_mode():
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(100 * KiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
            return None
        st = yield comm.Recv(buf, source=0)
        return st.path

    cfg = LmtConfig(mode="knem-ioat")
    r = run_mpi(TOPO, 2, main, mode="default", config=cfg)
    assert r.results[1] == "knem+ioat"


def test_alloc_names_buffers():
    def main(ctx):
        buf = ctx.alloc(64, name="mine")
        assert buf.name == "mine"
        yield ctx.compute(0)

    run_mpi(TOPO, 1, main)


def test_pipes_and_rings_are_per_ordered_pair():
    def main(ctx):
        yield ctx.compute(0)

    r = run_mpi(TOPO, 2, main)
    world = r.world
    assert world.pipe(0, 1) is world.pipe(0, 1)
    assert world.pipe(0, 1) is not world.pipe(1, 0)
    assert world.copy_ring(0, 1) is world.copy_ring(0, 1)
    assert world.copy_ring(0, 1) is not world.copy_ring(1, 0)


def test_collective_hint_depth_counting():
    def main(ctx):
        yield ctx.compute(0)

    world = run_mpi(TOPO, 1, main).world
    with world.collective_hint(4):
        assert world.lmt_hint == 4
        with world.collective_hint(2):
            assert world.lmt_hint == 4  # keeps the max
        assert world.lmt_hint == 4  # still one participant inside
    assert world.lmt_hint == 1


def test_until_stops_simulation_early():
    def main(ctx):
        yield ctx.compute(100.0)
        return "finished"

    r = run_mpi(TOPO, 1, main, until=1.0)
    assert r.elapsed == 1.0
    assert r.results[0] is None  # never completed


# ------------------------------------------------- first-touch payloads
def test_empty_run_materialises_no_eager_cell():
    def main(ctx):
        return ctx.alloc(4096).phys
        yield

    r = run_mpi(TOPO, 2, main)
    cells = [cell for ep in r.world.endpoints for cell in ep.free_cells._items]
    assert len(cells) == 16
    assert all(cell._data is None for cell in cells)
    # The cells' physical ranges are still reserved, before the ranks',
    # each on its own 64 KiB snoop-filter region.
    assert [c.phys for c in cells[:3]] == [0x10000, 0x20000, 0x30000]
    assert r.results == [0x110000, 0x120000]


@pytest.mark.parametrize("nbytes", [4 * KiB, 1 * MiB])
@pytest.mark.parametrize("mode", ["default", "knem"])
def test_pingpong_payload_intact(nbytes, mode):
    """A 4 KiB (eager, through the cells) and a 1 MiB (rendezvous)
    pingpong deliver every byte, each way."""
    pattern = (np.arange(nbytes) % 251).astype(np.uint8)

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        if ctx.rank == 0:
            buf.data[:] = pattern
            yield comm.Send(buf, dest=1, tag=0)
            buf.data[:] = 0
            yield comm.Recv(buf, source=1, tag=1)
        else:
            yield comm.Recv(buf, source=0, tag=0)
            assert np.array_equal(buf.data, pattern)
            buf.data[:] = pattern[::-1]
            yield comm.Send(buf, dest=0, tag=1)
        return buf.data.tobytes()

    r = run_mpi(TOPO, 2, main, mode=mode)
    assert r.results == [pattern[::-1].tobytes()] * 2
    touched = [c for ep in r.world.endpoints for c in ep.free_cells._items
               if c._data is not None]
    # Eager messages pass through the receiver's cells; rendezvous
    # ones leave every cell untouched.
    assert bool(touched) == (nbytes < TOPO.params.lmt_threshold)


def _payload_arrays(world):
    """Names of the buffers that hold a payload array: every rank's
    allocations, its eager cells and the copy rings' cells."""
    bufs = [b for space in world.spaces for b in space.buffers]
    bufs += [c for ep in world.endpoints for c in ep.free_cells._items]
    bufs += [c for ring in world._rings.values() for c in ring.cells]
    return [b.name for b in bufs if b._data is not None]


@pytest.mark.parametrize("mode", ["default", "knem-ioat"])
def test_untouched_alltoall_materialises_no_payload(mode):
    """Copies of never-written memory move no bytes, so a run that only
    times its buffers allocates no payload array anywhere."""
    block = 128 * KiB

    def main(ctx):
        comm = ctx.comm
        send = ctx.alloc(block * comm.size)
        recv = ctx.alloc(block * comm.size)
        yield ctx.touch(send, write=True)
        yield comm.Alltoall(send, recv)
        yield ctx.touch(recv)

    r = run_mpi(TOPO, 8, main, mode=mode)
    assert len(r.world.spaces[0].buffers) == 2
    assert _payload_arrays(r.world) == []


@pytest.mark.parametrize("nbytes", [4 * KiB, 1 * MiB])
# vmsplice-ioat and dsa cover the two other offloaded copy paths.
@pytest.mark.parametrize("mode", ["default", "knem-ioat", "vmsplice-ioat", "dsa"])
def test_untouched_pingpong_materialises_no_payload(mode, nbytes):
    topo = modern_server() if mode == "dsa" else TOPO

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        for tag in range(2):
            if ctx.rank == tag:
                yield comm.Send(buf, dest=peer, tag=tag)
            else:
                yield comm.Recv(buf, source=peer, tag=tag)

    r = run_mpi(topo, 2, main, mode=mode)
    assert _payload_arrays(r.world) == []
