"""Fault injection, reliable delivery, and graceful degradation.

The contract under test: a seeded FaultPlan reproduces exactly; a
zero-rate plan is perfectly transparent; injected wire faults are
recovered by retransmission (correct data, loud failure when the retry
budget runs out, never a hang); and capability masks / registration
failures degrade down the backend chains instead of erroring.
"""

from collections import Counter

import pytest

from repro import ClusterSpec, FaultPlan, ObsConfig, run_cluster, run_mpi
from repro.errors import RetryExhaustedError, SimulationError
from repro.faults import FaultState, LinkFault, LinkWindow
from repro.hw import xeon_e5345
from repro.sim.noise import NoiseModel
from repro.units import KiB, MiB

TOPO = xeon_e5345()
SPEC = ClusterSpec(node=TOPO, nnodes=2)
PAIR = [(0, 0), (1, 0)]


def _pingpong(nbytes, reps=1):
    """Pingpong with a per-rep fill pattern: a delivery completed with
    a hole (or stale retransmitted bytes) shows up as the previous
    rep's value and fails the assertion."""

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        status = None
        for rep in range(reps):
            fill = rep + 1
            if ctx.rank == 0:
                buf.data[:] = fill
                yield comm.Send(buf, dest=peer, tag=rep)
                yield comm.Recv(buf, source=peer, tag=rep)
            else:
                status = yield comm.Recv(buf, source=peer, tag=rep)
                yield comm.Send(buf, dest=peer, tag=rep)
            assert (buf.data == fill).all(), "payload corrupted in flight"
        return status.path if status else None

    return main


def _retransmits(result):
    return sum(n.retransmits for n in result.fabric.nics)


# ------------------------------------------------------------ validation
def test_plan_validates_probabilities_and_capabilities():
    with pytest.raises(SimulationError):
        FaultPlan(drop=1.5)
    with pytest.raises(SimulationError):
        FaultPlan(corrupt=-0.1)
    with pytest.raises(SimulationError):
        LinkFault(drop=2.0)
    with pytest.raises(SimulationError):
        LinkWindow(t0=1.0, t1=1.0)
    with pytest.raises(SimulationError):
        LinkWindow(t0=0.0, t1=1.0, factor=0.5)
    with pytest.raises(SimulationError):
        FaultPlan(masked={0: frozenset({"infiniband"})})


@pytest.mark.parametrize("bad", [-2, 3.0, True])
def test_bad_seed_rejected_when_the_plan_is_built(bad):
    with pytest.raises(SimulationError, match="FaultPlan.seed"):
        FaultPlan(seed=bad, drop=0.5)


def test_numpy_integer_seed_draws_like_the_plain_int():
    import numpy as np

    a = FaultState(FaultPlan(seed=np.int64(4), drop=0.5))
    b = FaultState(FaultPlan(seed=4, drop=0.5))
    assert [a.should_drop(0, 1, 0.0) for _ in range(64)] == [
        b.should_drop(0, 1, 0.0) for _ in range(64)
    ]


def test_link_overrides_take_precedence():
    state = FaultState(FaultPlan(seed=1, drop=0.5, links={(0, 1): LinkFault()}))
    assert not any(state.should_drop(0, 1, 0.0) for _ in range(200))
    assert any(state.should_drop(1, 0, 0.0) for _ in range(200))


# --------------------------------------------------------- transparency
def test_zero_rate_plan_is_perfectly_transparent():
    """Arming reliability with nothing to inject must leave every
    timing bit-identical to a fault-free run."""
    for nbytes in (4 * KiB, 256 * KiB):
        bare = run_cluster(SPEC, 2, _pingpong(nbytes), bindings=PAIR)
        armed = run_cluster(
            SPEC, 2, _pingpong(nbytes), bindings=PAIR, faults=FaultPlan(seed=9)
        )
        assert armed.elapsed == bare.elapsed
        assert armed.results == bare.results
        assert _retransmits(armed) == 0
        assert all(n.rx_duplicates == 0 for n in armed.fabric.nics)


def test_same_seed_reproduces_exactly():
    plan = FaultPlan(seed=42, drop=0.2)
    runs = [
        run_cluster(SPEC, 2, _pingpong(256 * KiB, reps=2), bindings=PAIR, faults=plan)
        for _ in range(2)
    ]
    assert runs[0].elapsed == runs[1].elapsed
    assert _retransmits(runs[0]) == _retransmits(runs[1])
    assert runs[0].fabric.faults.counters() == runs[1].fabric.faults.counters()


# ------------------------------------------------------ wire-level faults
def test_lossy_link_recovered_by_retransmission():
    r = run_cluster(
        SPEC,
        2,
        _pingpong(256 * KiB, reps=2),
        bindings=PAIR,
        faults=FaultPlan(seed=3, drop=0.1),
    )
    assert r.results[1] == "nic+rdma"
    assert _retransmits(r) > 0
    assert r.fabric.faults.drops_injected > 0
    clean = run_cluster(SPEC, 2, _pingpong(256 * KiB, reps=2), bindings=PAIR)
    assert r.elapsed > clean.elapsed  # recovery costs time, not data


def test_corruption_discarded_and_retransmitted():
    r = run_cluster(
        SPEC,
        2,
        _pingpong(64 * KiB, reps=2),
        bindings=PAIR,
        faults=FaultPlan(seed=5, corrupt=0.1),
    )
    assert sum(n.rx_corrupt_discards for n in r.fabric.nics) > 0
    assert _retransmits(r) > 0


def test_retry_exhaustion_raises_instead_of_hanging():
    with pytest.raises(RetryExhaustedError) as err:
        run_cluster(
            SPEC,
            2,
            _pingpong(64 * KiB),
            bindings=PAIR,
            faults=FaultPlan(seed=7, drop=1.0),
        )
    assert "undelivered" in str(err.value)


def test_flap_window_drops_then_recovers():
    # The link is down for a window that the first descriptors land in;
    # retransmission after the window completes the transfer.
    plan = FaultPlan(seed=11, flaps=(LinkWindow(t0=0.0, t1=2e-4),))
    r = run_cluster(SPEC, 2, _pingpong(64 * KiB), bindings=PAIR, faults=plan)
    assert r.fabric.faults.flap_drops > 0
    assert _retransmits(r) > 0
    assert r.results[1] == "nic+rdma"


def test_degradation_window_slows_the_wire():
    slow = FaultPlan(seed=13, degraded=(LinkWindow(t0=0.0, t1=1.0, factor=4.0),))
    r_slow = run_cluster(SPEC, 2, _pingpong(1 * MiB), bindings=PAIR, faults=slow)
    r_fast = run_cluster(
        SPEC, 2, _pingpong(1 * MiB), bindings=PAIR, faults=FaultPlan(seed=13)
    )
    assert r_slow.elapsed > r_fast.elapsed
    assert _retransmits(r_slow) == 0  # slow is not lossy


# -------------------------------------------- duplicate-delivery hazard
def test_spurious_retransmissions_complete_without_double_completion():
    """An aggressive timer fires before delivery: the receiver must
    swallow the duplicates and the one-shot done event must not be
    triggered twice (the _complete_rx ack-path guard)."""
    spec = ClusterSpec(
        node=TOPO, nnodes=2, fabric=SPEC.fabric.scaled(rto_min=1e-6, rto_factor=0.0)
    )
    r = run_cluster(
        spec, 2, _pingpong(4 * KiB, reps=2), bindings=PAIR, faults=FaultPlan(seed=1)
    )
    assert _retransmits(r) > 0
    assert sum(n.rx_duplicates for n in r.fabric.nics) > 0


def test_fault_and_duplicate_instants_match_their_counters():
    """Every injected drop/corruption and every swallowed duplicate
    leaves one obs instant at the site that counted it."""
    spec = ClusterSpec(
        node=TOPO, nnodes=2, fabric=SPEC.fabric.scaled(rto_min=1e-6, rto_factor=0.0)
    )
    r = run_cluster(
        spec, 2, _pingpong(4 * KiB, reps=2), bindings=PAIR,
        faults=FaultPlan(seed=1, drop=0.1, corrupt=0.1),
        obs=ObsConfig(spans=True),
    )
    instants = Counter(s.name for s in r.obs.spans if s.kind == "instant")
    faults = r.fabric.faults
    duplicates = sum(n.rx_duplicates for n in r.fabric.nics)
    assert faults.drops_injected and faults.corruptions_injected and duplicates
    assert instants["fault.drop"] == faults.drops_injected
    assert instants["fault.corrupt"] == faults.corruptions_injected
    assert instants["nic.rx_duplicate"] == duplicates


# -------------------------------------------------- degradation chains
def test_reg_failure_degrades_to_staged_rendezvous():
    # One injected failure: the first rendezvous runs staged, later
    # ones re-register and ride RDMA again — degradation is per-event,
    # not sticky.
    r = run_cluster(
        SPEC,
        2,
        _pingpong(256 * KiB),
        bindings=PAIR,
        faults=FaultPlan(seed=2, reg_failures={0: 1}),
    )
    assert r.results[1] == "nic+staged"
    events = r.world.policy.downgrades
    assert len(events) == 1
    assert events[0]["from"] == "nic+rdma" and events[0]["to"] == "nic+staged"


def test_rdma_mask_selects_staged_rendezvous():
    r = run_cluster(
        SPEC,
        2,
        _pingpong(256 * KiB),
        bindings=PAIR,
        faults=FaultPlan(seed=2, masked={1: frozenset({"rdma-reg"})}),
    )
    assert r.results[1] == "nic+staged"
    assert r.world.policy.downgrades[0]["reason"] == "node 1 lacks rdma-reg"


def test_knem_mask_degrades_intranode_transparently():
    """A KNEM-less node completes large intranode sends via vmsplice;
    masking that too lands on the shm double-buffering floor."""
    for masked, expect in (
        (frozenset({"knem"}), "vmsplice"),
        (frozenset({"knem", "vmsplice"}), "shm"),
    ):
        r = run_mpi(
            TOPO,
            2,
            _pingpong(1 * MiB),
            bindings=[0, 4],
            mode="knem",
            faults=FaultPlan(seed=1, masked={0: masked}),
        )
        assert r.results[1] == expect
        assert r.world.policy.downgrades[0]["from"] == "knem"


def test_downgrade_logged_once_per_pair():
    r = run_mpi(
        TOPO,
        2,
        _pingpong(1 * MiB, reps=4),
        bindings=[0, 4],
        mode="knem",
        faults=FaultPlan(seed=1, masked={0: frozenset({"knem"})}),
    )
    assert len(r.world.policy.downgrades) == 1


# --------------------------------------------------------------- noise
def test_nic_noise_is_seeded_and_optional():
    base = run_cluster(SPEC, 2, _pingpong(256 * KiB), bindings=PAIR)
    n1a = run_cluster(
        SPEC, 2, _pingpong(256 * KiB), bindings=PAIR, noise=NoiseModel(seed=1)
    )
    n1b = run_cluster(
        SPEC, 2, _pingpong(256 * KiB), bindings=PAIR, noise=NoiseModel(seed=1)
    )
    n2 = run_cluster(
        SPEC, 2, _pingpong(256 * KiB), bindings=PAIR, noise=NoiseModel(seed=2)
    )
    assert n1a.elapsed == n1b.elapsed  # same seed, same run
    assert n1a.elapsed != n2.elapsed  # different seed, different jitter
    assert n1a.elapsed != base.elapsed  # NIC wire times are covered


# ----------------------------------------------------------- reporting
def test_resilience_block_sums_counters_and_downgrades():
    from repro.bench.reporting import resilience_block

    r = run_cluster(
        SPEC,
        2,
        _pingpong(256 * KiB, reps=2),
        bindings=PAIR,
        faults=FaultPlan(seed=42, drop=0.2, reg_failures={0: 1}),
    )
    block = resilience_block(r.fabric, policy=r.world.policy)
    assert block["retransmits"] == _retransmits(r) > 0
    assert block["injected"]["drops_injected"] > 0
    assert block["injected"]["reg_failures_injected"] == 1
    assert block["downgrades"] and block["downgrades"][0]["to"] == "nic+staged"
    assert len(block["per_nic"]) == 2
    assert block["backoff_seconds"] > 0
