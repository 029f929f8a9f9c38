"""The trial-kind table: each kind's runner reads exactly what its
record declares, and a spec multiplies only the axes its kind reads."""

import json

import pytest

from repro.campaign import TRIAL_KINDS, CampaignSpec, run_campaign
from repro.campaign.spec import _AXES
from repro.errors import BenchmarkError
from repro.units import KiB

#: One small spec per kind, with noise and drops armed where it reads them.
_SMALL = {
    "pingpong": dict(sizes=(4 * KiB,), nnodes=(2,), drops=(0.01,)),
    "allreduce": dict(sizes=(4 * KiB,), nnodes=(2,), drops=(0.01,),
                      tunings=("flat",)),
    "crossover": dict(sizes=(64 * KiB,), noise_sigma=0.0),
    "sched": dict(sizes=(4 * KiB,), noise_sigma=0.0),
    "nhood": dict(sizes=(128,), nnodes=(2,), drops=(0.01,),
                  strategies=("node-aware",)),
    "offload": dict(sizes=(64 * KiB,), machine_generations=("modern",)),
    "imb-pingpong": dict(sizes=(4 * KiB,), noise_sigma=0.0),
    "imb-alltoall": dict(sizes=(4 * KiB,), noise_sigma=0.0),
    "nas": dict(benchmarks=("ep.B.4",), noise_sigma=0.0),
}

#: Config keys every kind's trials hold whatever they read.
_BASE_KEYS = {
    "workload", "machine", "backend", "size", "nnodes", "pair", "drop",
    "tuning", "seed", "reps", "procs_per_node", "noise_sigma", "max_events",
    "max_sim_time",
}

#: The scalars each runner uses: its repetitions and watchdog budgets,
#: and the rank count of the collective kinds.
_SCALARS = {"reps", "max_events", "max_sim_time"}
_RANKED = {"allreduce", "nhood", "imb-alltoall"}


def _small(workload: str, **axes) -> CampaignSpec:
    return CampaignSpec(name="small", workload=workload, reps=1,
                        **{**_SMALL[workload], **axes})


class _Recording(dict):
    """A config that notes every key a runner reads."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_small_specs_cover_every_kind():
    assert set(_SMALL) == set(TRIAL_KINDS)


@pytest.mark.parametrize("workload", sorted(TRIAL_KINDS))
def test_each_runner_reads_exactly_what_its_kind_declares(workload):
    kind = TRIAL_KINDS[workload]
    (trial,) = _small(workload).trials()
    config = _Recording(trial.config)
    metrics = kind.runner(config, None)
    assert metrics["primary"] in metrics
    axis_keys = {_AXES[axis][0] for axis in kind.axes} | set(kind.sweeps)
    added = set(trial.config) - _BASE_KEYS - axis_keys
    expected = axis_keys | added | _SCALARS
    if kind.noise:
        expected.add("noise_sigma")
    if workload in _RANKED:
        expected.add("procs_per_node")
    assert config.read == expected


@pytest.mark.parametrize("workload", sorted(TRIAL_KINDS))
def test_two_values_on_an_ignored_axis_are_refused_by_name(workload):
    read = TRIAL_KINDS[workload].axes + TRIAL_KINDS[workload].sweeps
    ignored = [axis for axis in ("tunings", "pairs", "seeds", "sizes",
                                 "machines", "patterns")
               if axis not in read]
    two = {"tunings": ("default", "flat"), "pairs": ((0, 1), (0, 4)),
           "seeds": (0, 1), "sizes": (4 * KiB, 8 * KiB),
           "machines": ("xeon_e5345", "xeon_x5460"),
           "patterns": ("irregular", "stencil2d")}
    assert ignored
    for axis in ignored:
        with pytest.raises(BenchmarkError,
                           match=f"{workload} trials ignore the {axis} axis"):
            _small(workload, **{axis: two[axis]})


def test_an_ignored_axis_may_keep_its_default():
    """A pingpong spec keeps the nhood strategies' two-value default:
    that axis enters no pingpong config and multiplies nothing."""
    spec = CampaignSpec(strategies=("direct", "node-aware"))
    assert len(spec.trials()) == 1
    assert "strategy" not in spec.trials()[0].config


@pytest.mark.parametrize(
    "workload", sorted(w for w, k in TRIAL_KINDS.items() if not k.noise))
def test_noise_is_refused_by_every_kind_that_draws_none(workload):
    with pytest.raises(BenchmarkError, match=f"{workload} trials run noise-free"):
        _small(workload, noise_sigma=0.02)


@pytest.mark.parametrize("workload", sorted(TRIAL_KINDS))
def test_every_kind_carries_the_watchdog_budgets(workload):
    """A trial over its event budget fails with LivelockError instead
    of running on."""
    (record,) = run_campaign(_small(workload, max_events=50)).records
    assert record["status"] == "failed"
    assert record["error"].startswith("LivelockError"), record["error"]


@pytest.mark.parametrize("workload", ["imb-pingpong", "imb-alltoall"])
def test_trace_dir_traces_the_imb_kinds(workload, tmp_path):
    traces = tmp_path / "traces"
    run = run_campaign(_small(workload, trace_dir=str(traces)))
    (trial,) = run.trials
    assert run.records[0]["status"] == "ok", run.records[0]["error"]
    trace = json.loads((traces / f"{trial.hash}.trace.json").read_text())
    assert trace["traceEvents"]


@pytest.mark.parametrize("workload", ["offload", "crossover"])
def test_trace_dir_is_refused_by_kinds_that_make_several_runs(workload, tmp_path):
    with pytest.raises(BenchmarkError, match=f"{workload} trials make several"):
        _small(workload, trace_dir=str(tmp_path))


def _reference_offload_rate(topo, nbytes, mode, reps, noise):
    """The offload timing loop before it went through imb_pingpong:
    two warm-up round trips, then ``reps`` timed ones, on cores 0-1."""
    from repro.core.policy import LmtConfig
    from repro.mpi.world import run_mpi
    from repro.units import mib_per_s

    def main(ctx):
        buf = ctx.alloc(nbytes)
        peer = 1 - ctx.rank
        start = None
        for rep in range(2 + reps):
            if rep == 2:
                start = ctx.now
            if ctx.rank == 0:
                yield ctx.comm.Send(buf, dest=peer, tag=rep)
                yield ctx.comm.Recv(buf, source=peer, tag=rep)
            else:
                yield ctx.comm.Recv(buf, source=peer, tag=rep)
                yield ctx.comm.Send(buf, dest=peer, tag=rep)
        return (ctx.now - start) / (2 * reps)

    result = run_mpi(topo, 2, main, bindings=[0, 1], mode=mode,
                     config=LmtConfig(mode=mode, knem_reg_cache=True),
                     noise=noise)
    return mib_per_s(nbytes, result.results[0])


def test_noisy_offload_times_like_its_former_loop():
    """Offload trials time through imb_pingpong with the trial's noise:
    every rate equals the dedicated loop it replaced, to the bit."""
    from repro.campaign.spec import GENERATIONS
    from repro.hw import presets
    from repro.sim.noise import NoiseModel

    spec = CampaignSpec(name="noisy-offload", workload="offload",
                        sizes=(256 * KiB, 4096 * KiB), seeds=(0, 1, 2),
                        reps=4, noise_sigma=0.05)
    run = run_campaign(spec)
    # The noise moves every trial's rate: the seeds are not one run.
    assert len({r["metrics"]["offload_mib_per_s"] for r in run.records}) == 12
    generations = {g["generation"]: g for g in GENERATIONS}
    for record in run.records:
        assert record["status"] == "ok", record["error"]
        cfg, m = record["config"], record["metrics"]
        gen = generations[cfg["machine_generation"]]
        topo = getattr(presets, gen["machine"])()
        for key, mode in (("cpu_mib_per_s", gen["cpu_mode"]),
                          ("offload_mib_per_s", gen["offload_mode"])):
            noise = NoiseModel(seed=cfg["seed"], sigma=0.05)
            assert m[key] == _reference_offload_rate(
                topo, cfg["size"], mode, cfg["reps"], noise), (cfg, key)
