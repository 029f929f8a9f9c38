"""Determinism guarantees of the offload paths.

Seeded healthy and faulted/degraded DSA pairs replay to identical
metrics ``snapshot()`` dicts: every metric the stack records is
simulated data.
"""

from repro import FaultPlan, ObsConfig, modern_server, run_mpi
from repro.units import MiB

TOPO = modern_server()


def _pingpong(nbytes, reps=2):
    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        for rep in range(reps):
            if ctx.rank == 0:
                buf.data[:] = rep + 1
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)

    return main


def _run(seed=None, faults=None):
    return run_mpi(
        TOPO, 2, _pingpong(4 * MiB), bindings=[0, 1], mode="dsa",
        obs=ObsConfig(), noise=seed, faults=faults,
    )


def test_seeded_dsa_pairs_replay_identically():
    a = _run(seed=11)
    b = _run(seed=11)
    assert a.obs.metrics.snapshot() == b.obs.metrics.snapshot()
    assert a.elapsed == b.elapsed


def test_seeded_degraded_pairs_replay_identically():
    """The faulted/degraded path (mask forces dsa -> knem+ioat+async)
    is as deterministic as the healthy one."""
    plan = lambda: FaultPlan(seed=5, masked={0: frozenset({"dsa"})})
    a = _run(seed=3, faults=plan())
    b = _run(seed=3, faults=plan())
    assert a.obs.metrics.snapshot() == b.obs.metrics.snapshot()
    assert a.elapsed == b.elapsed
    assert [d["to"] for d in a.world.policy.downgrades] == ["knem+ioat+async"]
