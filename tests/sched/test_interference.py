"""The acceptance demo as a test: a co-located shm job must evict an
L2-sharing neighbour's lines and slow it down; the same job moved by
the I/OAT DMA engine must not.

Uses the same pair mix as the ``sched`` campaign suite — a single-rank stream
victim whose 8 MiB working set fills the nehalem8 shared L2, beside a
2-rank pingpong whose 4 MiB messages either churn through that cache
(shm double-buffering) or bypass it (knem-ioat-async).
"""

import pytest

from repro.hw import nehalem8
from repro.sched import Scheduler, mix_jobs
from repro.units import MiB

SIZE = 4 * MiB


def _pair(mode):
    return Scheduler(nehalem8(), policy="fifo").run(
        mix_jobs("pair", size=SIZE, mode=mode)
    )


@pytest.fixture(scope="module")
def shm():
    return _pair("default")


@pytest.fixture(scope="module")
def ioat():
    return _pair("knem-ioat-async")


def test_shm_neighbour_evicts_victim_lines(shm):
    victim = shm.job("victim")
    evicted = victim.interference["l2_lines_evicted_by_others"]
    assert evicted > 0
    # The eviction is attributed to the aggressor, not to noise.
    aggressor = shm.job("aggressor")
    assert aggressor.interference["l2_lines_evicted_from_others"] >= evicted


def test_ioat_neighbour_evicts_nothing(ioat):
    assert ioat.job("victim").interference["l2_lines_evicted_by_others"] == 0
    assert ioat.cross_job_evictions == 0


def test_gap_direction_shm_vs_ioat(ioat, shm):
    """The headline acceptance criterion: shm co-location measurably
    slows the victim; I/OAT co-location does not (beyond bus sharing)."""
    shm_slow = shm.job("victim").slowdown
    dma_slow = ioat.job("victim").slowdown
    assert shm_slow > dma_slow
    assert shm_slow > 1.5          # wholesale working-set eviction
    assert dma_slow < 1.5          # residual memory-bus contention only
    gap = shm.job("victim").interference["l2_lines_evicted_by_others"]
    assert gap > 0 == ioat.job("victim").interference[
        "l2_lines_evicted_by_others"
    ]


def test_pair_evictions_name_the_culprit(shm):
    aggressor_id = shm.job("aggressor").job_id
    victim_id = shm.job("victim").job_id
    assert shm.pair_evictions.get((aggressor_id, victim_id), 0) > 0


def test_metrics_expose_the_gap(shm, ioat):
    assert shm.metrics["sched.cross_job_l2_evictions"] > 0
    assert ioat.metrics["sched.cross_job_l2_evictions"] == 0
    assert (
        shm.metrics["sched.job.victim.slowdown"]
        > ioat.metrics["sched.job.victim.slowdown"]
    )
