"""Failure-injection tests: protocol errors must fail loudly and
diagnosably, never hang or corrupt."""

import numpy as np
import pytest

from repro.errors import (
    CookieError,
    DeadlockError,
    KnemError,
    MpiError,
    PipeError,
    TruncationError,
)
from repro.hw import xeon_e5345
from repro.kernel.knem import KnemFlags
from repro.mpi import run_mpi
from repro.units import KiB, MiB

TOPO = xeon_e5345()


def test_mismatched_tags_deadlock_is_detected_not_hung():
    def main(ctx):
        comm = ctx.comm
        # Above the eager threshold: the send rendezvouses and blocks
        # until a receive matches it.
        buf = ctx.alloc(128 * KiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1, tag=1)
        else:
            yield comm.Recv(buf, source=0, tag=2)  # wrong tag

    with pytest.raises(DeadlockError) as err:
        run_mpi(TOPO, 2, main)
    assert err.value.blocked == ["rank0", "rank1"]


def test_circular_rendezvous_send_deadlock_detected():
    """Two blocking rendezvous sends facing each other: classic deadlock."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(128 * KiB)
        peer = 1 - ctx.rank
        yield comm.Send(buf, dest=peer)
        yield comm.Recv(buf, source=peer)

    with pytest.raises(DeadlockError) as err:
        run_mpi(TOPO, 2, main)
    assert err.value.blocked == ["rank0", "rank1"]


def test_large_circular_send_deadlock_detected():
    """Rendezvous sends in a ring with no receives posted."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1 * MiB)
        yield comm.Send(buf, dest=(ctx.rank + 1) % ctx.comm.size)
        yield comm.Recv(buf, source=(ctx.rank - 1) % ctx.comm.size)

    with pytest.raises(DeadlockError):
        run_mpi(TOPO, 4, main, mode="knem")


def test_deadlock_diagnostics_identify_the_stuck_ranks():
    """A rendezvous sender whose CTS never comes must be named in the
    DeadlockError — and ranks that completed must NOT be."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1 * MiB)
        if ctx.rank == 0:
            # Stalls mid-rendezvous: rank 1 never posts the receive.
            yield comm.Send(buf, dest=1, tag=7)
        elif ctx.rank in (2, 3):
            # An unrelated pair that completes normally.
            peer = 5 - ctx.rank
            if ctx.rank == 2:
                yield comm.Send(buf, dest=peer)
            else:
                yield comm.Recv(buf, source=peer)

    with pytest.raises(DeadlockError) as err:
        run_mpi(TOPO, 4, main, mode="knem")
    assert err.value.blocked == ["rank0"]


def test_truncation_does_not_corrupt_other_traffic():
    """A truncation error on one pair must surface as the error, not
    silently scribble past the receive buffer."""

    def main(ctx):
        comm = ctx.comm
        big = ctx.alloc(128 * KiB)
        small = ctx.alloc(1 * KiB)
        guard = ctx.alloc(1 * KiB)
        guard.data[:] = 0xAB
        if ctx.rank == 0:
            yield comm.Send(big, dest=1)
        else:
            try:
                yield comm.Recv(small, source=0)
            except TruncationError:
                return int(guard.data[0])
            return -1

    # The sender may be left blocked after the receiver errored; both
    # outcomes (clean error or resulting deadlock) are acceptable — the
    # guard byte must survive either way.
    try:
        r = run_mpi(TOPO, 2, main)
        assert r.results[1] == 0xAB
    except DeadlockError:
        pass


def test_consumed_cookie_cannot_be_replayed():
    """A KNEM cookie is single-use: replaying it is a CookieError, not
    a double copy."""

    def main(ctx):
        comm = ctx.comm
        world = ctx.world
        buf = ctx.alloc(64 * KiB)
        if ctx.rank == 0:
            cookie = yield from world.knem.send_cmd(ctx.core, buf.whole())
            ctx.world._test_cookie = cookie
            yield ctx.compute(0.01)
        else:
            yield ctx.compute(0.001)
            cookie = ctx.world._test_cookie
            dst = ctx.alloc(64 * KiB)
            yield from world.knem.recv_cmd(ctx.core, cookie, dst.whole())
            with pytest.raises(CookieError):
                yield from world.knem.recv_cmd(ctx.core, cookie, dst.whole())

    run_mpi(TOPO, 2, main)


def test_knem_empty_receive_rejected():
    def main(ctx):
        world = ctx.world
        buf = ctx.alloc(4 * KiB)
        cookie = yield from world.knem.send_cmd(ctx.core, buf.whole())
        dst = ctx.alloc(4 * KiB)
        with pytest.raises(KnemError):
            yield from world.knem.recv_cmd(
                ctx.core, cookie, [dst.view(0, 0)], KnemFlags.NONE
            )

    run_mpi(TOPO, 1, main)


def test_closed_pipe_mid_transfer_raises():
    """Closing the transport under an in-flight vmsplice transfer must
    raise PipeError in the participants."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(2 * MiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
        elif ctx.rank == 1:
            yield comm.Recv(buf, source=0)
        else:
            yield ctx.compute(1e-5)  # let the transfer start
            ctx.world.pipe(0, 1).close()

    with pytest.raises(PipeError):
        run_mpi(TOPO, 3, main, mode="vmsplice")


def test_interrupting_a_rank_reports_cleanly():
    """Interrupting a blocked rank surfaces as its error, and the data
    of other pairs is unaffected."""
    from repro.errors import SimulationError

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(32 * KiB)
        if ctx.rank in (0, 1):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                buf.data[:] = 5
                yield comm.Send(buf, dest=peer)
            else:
                yield comm.Recv(buf, source=peer)
            return int(buf.data[0])
        # Rank 2 blocks forever; the driver interrupts it.
        try:
            yield comm.Recv(buf, source=0, tag=999)
        except SimulationError:
            return "interrupted"

    # Run manually to get at the process handles.
    from repro.core.policy import LmtConfig, LmtPolicy
    from repro.hw.machine import Machine
    from repro.mpi.world import MpiWorld, RankContext
    from repro.sim import Engine

    engine = Engine()
    machine = Machine(engine, TOPO)
    world = MpiWorld(engine, machine, 3, [0, 1, 2], LmtPolicy(TOPO, LmtConfig()))
    ctxs = [RankContext(world, r) for r in range(3)]
    procs = [engine.process(main(c), name=f"rank{c.rank}") for c in ctxs]
    engine.schedule(1.0, procs[2].interrupt)
    engine.run()
    assert procs[0].result == 5 and procs[1].result == 5
    assert procs[2].result == "interrupted"


def test_zero_rank_world_rejected():
    with pytest.raises(MpiError):
        run_mpi(TOPO, 0, lambda ctx: (yield ctx.compute(0)))
