"""Tests for the seeded noise model."""

import pytest

from repro.errors import SimulationError
from repro.hw import xeon_e5345
from repro.mpi import run_mpi
from repro.sim import NoiseModel

TOPO = xeon_e5345()


def test_sigma_bounds():
    with pytest.raises(SimulationError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(SimulationError):
        NoiseModel(sigma=0.9)


@pytest.mark.parametrize("bad", [-1, 2.0, True, "1"])
def test_bad_seed_rejected_at_construction(bad):
    with pytest.raises(SimulationError, match="NoiseModel.seed"):
        NoiseModel(seed=bad)
    with pytest.raises(SimulationError, match="NoiseModel.seed"):
        NoiseModel(seed=1).reseed(bad)


def test_zero_sigma_is_identity():
    n = NoiseModel(seed=1, sigma=0.0)
    assert n.factor() == 1.0
    assert n.jitter(2.5) == 2.5
    assert n.samples_drawn == 0


def test_seeded_reproducibility():
    a = NoiseModel(seed=42, sigma=0.05)
    b = NoiseModel(seed=42, sigma=0.05)
    assert [a.factor() for _ in range(10)] == [b.factor() for _ in range(10)]


def test_reseed_restarts_stream():
    n = NoiseModel(seed=1, sigma=0.05)
    first = [n.factor() for _ in range(5)]
    n.reseed(1)
    assert [n.factor() for _ in range(5)] == first


def test_factors_centred_near_one():
    n = NoiseModel(seed=7, sigma=0.02)
    samples = [n.factor() for _ in range(500)]
    mean = sum(samples) / len(samples)
    assert 0.99 < mean < 1.02
    assert all(0.85 < s < 1.15 for s in samples)


def _timed_run(noise):
    def main(ctx):
        yield ctx.compute(0.01)
        return ctx.now

    return run_mpi(TOPO, 2, main, noise=noise).elapsed


def test_runs_differ_across_seeds_but_reproduce_within():
    base = _timed_run(None)
    n1a = _timed_run(NoiseModel(seed=1, sigma=0.03))
    n1b = _timed_run(NoiseModel(seed=1, sigma=0.03))
    n2 = _timed_run(NoiseModel(seed=2, sigma=0.03))
    assert n1a == n1b                 # same seed: exact reproduction
    assert n1a != base and n2 != n1a  # different seeds: different runs
    assert abs(n1a - base) / base < 0.15


def test_nas_noise_produces_paperlike_variation():
    """With ~2% jitter, an insensitive benchmark's mode deltas wiggle
    like the paper's Table 1 noise rows instead of sitting at 0."""
    from repro.bench.nas import BENCHMARKS, run_nas

    spec = BENCHMARKS["ep.B.4"]
    base = run_nas(spec, TOPO, mode="default", iterations=2,
                   noise=NoiseModel(seed=3, sigma=0.02))
    other = run_nas(spec, TOPO, mode="knem", iterations=2,
                    noise=NoiseModel(seed=4, sigma=0.02))
    delta = abs(other.speedup_vs(base))
    assert 0.0 < delta < 0.08  # nonzero but noise-sized
