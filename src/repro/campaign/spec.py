"""Declarative experiment campaigns: axes -> trials -> content hashes.

A :class:`CampaignSpec` names the axes of a study — machine preset,
LMT backend, message size, node count, injected drop rate, collective
tuning, and seeded replicates — and :meth:`CampaignSpec.trials`
expands their cross-product into :class:`Trial`\\ s.  Every trial
carries one *canonical config dict* (plain JSON types, sorted keys)
whose SHA-256 is the trial's identity: the executor keys the result
cache on it, so the same config always reuses the same stored result
and any axis change produces a new hash.

What a workload's trials run and read is one :class:`TrialKind` record
in :data:`TRIAL_KINDS`: its runner, the axes it reads, the config keys
it adds, whether it draws noise and its schema version.  Only the axes
a kind reads multiply its trials; a spec that gives several values to
any other axis, or noise to a kind that draws none, is refused.

Hashes are computed once per trial: a :class:`Trial` memoises its
hash, so the executor can key every cache read and store write on it
without hashing again.  Each
:meth:`CampaignSpec.trials` call builds fresh trials, which hash once
each.

Replicates differ only in ``seed``; :func:`group_config` strips the
seed so :mod:`repro.campaign.stats` can aggregate across them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import import_module
from typing import Callable, Optional

from repro.campaign import runners
from repro.errors import BenchmarkError
from repro.units import KiB, fmt_size

# hashlib maps OpenSSL's libcrypto (about 3.7 MiB resident) into every
# process that imports it; CPython's builtin SHA-256 gives the same
# digest without it.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # an interpreter built without the builtin hashes
        from hashlib import sha256

__all__ = [
    "TRIAL_KINDS",
    "TrialKind",
    "MACHINES",
    "GENERATIONS",
    "MACHINE_GENERATIONS",
    "CampaignSpec",
    "Trial",
    "canonical_json",
    "trial_hash",
    "group_config",
    "group_label",
]

#: Machine presets a trial config may name (see repro.hw.presets).
MACHINES = ("xeon_e5345", "xeon_x5460", "nehalem8", "modern_server")

#: The machine generations the "offload" workload sweeps: each fixes a
#: machine preset, the CPU-copy LMT mode and the offload engine's mode.
#: The paper's Xeon E5345 pairs KNEM with KNEM + I/OAT (the Fig. 4
#: experiment); the modern server pairs it with the DSA-class engine.
GENERATIONS = (
    {
        "generation": "nehalem-era",
        "machine": "xeon_e5345",
        "cpu_mode": "knem",
        "offload_mode": "knem-ioat",
    },
    {
        "generation": "modern",
        "machine": "modern_server",
        "cpu_mode": "knem",
        "offload_mode": "dsa",
    },
)

#: Generation names, the values of the ``machine_generations`` axis.
MACHINE_GENERATIONS = tuple(g["generation"] for g in GENERATIONS)


#: Every axis (tuple field) of :class:`CampaignSpec` in expansion
#: order: the config key its trial value takes and that value's JSON
#: form.  Each must be non-empty and repeat no value.
_AXES = {
    "machine_generations": ("machine_generation", str),
    "machines": ("machine", str),
    "backends": ("backend", str),
    "benchmarks": ("benchmark", str),
    "sizes": ("size", int),
    "nnodes": ("nnodes", int),
    "pairs": ("pair", lambda pair: (int(pair[0]), int(pair[1]))),
    "drops": ("drop", float),
    "tunings": ("tuning", str),
    "sched_policies": ("sched_policy", str),
    "job_mixes": ("job_mix", str),
    "patterns": ("pattern", str),
    "strategies": ("strategy", str),
    "seeds": ("seed", int),
}

#: The axes whose key is in every trial config (``size`` only where
#: the kind reads the sizes axis), in config order.  An axis outside
#: this list enters only the configs of the kinds that read it, so
#: adding one never moves another kind's hashes.
_SHARED = ("machines", "backends", "sizes", "nnodes", "pairs", "drops",
           "tunings", "seeds")

#: Where the allowed values of an axis live: (what a value names,
#: module, attribute).  A shared axis is always checked, any other only
#: when the spec's kind reads it, so a spec imports only its own kind's
#: modules.
_CHOICES = {
    "machines": ("machine preset", __name__, "MACHINES"),
    "backends": ("LMT backend", "repro.core.policy", "MODES"),
    "tunings": ("tuning", __name__, "_TUNINGS"),
    "machine_generations": ("machine generation", __name__, "MACHINE_GENERATIONS"),
    "benchmarks": ("NAS benchmark", "repro.bench.nas", "BENCHMARKS"),
    "sched_policies": ("sched policy", "repro.sched.scheduler", "SCHED_POLICIES"),
    "job_mixes": ("job mix", "repro.sched.job", "JOB_MIXES"),
    "patterns": ("pattern", "repro.nhood.patterns", "PATTERNS"),
    "strategies": ("strategy", "repro.nhood.strategy", "STRATEGIES"),
}

#: Collective tunings: "default" (hierarchy on) or "flat".
_TUNINGS = ("default", "flat")

#: The schema version of a config whose workload names no trial kind.
_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrialKind:
    """What the trials of one campaign workload run and read."""

    #: ``runner(config, obs) -> metrics`` (see repro.campaign.runners).
    runner: Callable[[dict, object], dict]
    #: The axes the runner reads, in expansion order: each multiplies
    #: the trial count.  Any other axis must keep its default or hold
    #: one value.
    axes: tuple
    #: Whether the runner draws the trial's noise; a kind that does not
    #: takes only ``noise_sigma=0``.
    noise: bool = False
    #: Salted into :func:`trial_hash`; bumped when the kind's trials
    #: change incompatibly, so stale cached results are never served.
    version: int = _SCHEMA_VERSION
    #: Axes one trial sweeps itself: the whole axis enters the config as
    #: a list under the axis name and multiplies nothing.
    sweeps: tuple = ()
    #: ``adds(spec, config) -> dict``: the config keys the kind adds.
    adds: Optional[Callable[["CampaignSpec", dict], dict]] = None
    #: Whether a trial is one simulated run, whose spans ``trace_dir``
    #: records; a kind that makes several runs per trial refuses it.
    traces: bool = True


def _generation(spec: "CampaignSpec", config: dict) -> dict:
    """An offload trial's generation fixes its preset and offload mode."""
    gen = next(g for g in GENERATIONS
               if g["generation"] == config["machine_generation"])
    return {"machine": gen["machine"], "backend": gen["offload_mode"]}


def _degree(spec: "CampaignSpec", config: dict) -> dict:
    """An irregular nhood graph's target neighbour count."""
    return {"degree": int(spec.degree)} if config["pattern"] == "irregular" else {}


def _imb(warmup: int):
    """The keys of an IMB kind: IMB's warm-up round count (the kernels
    exclude those rounds from the timing) and the rendezvous switch."""
    return lambda spec, config: {"warmup": warmup,
                                 "eager_threshold": spec.eager_threshold}


_SIZED = ("machines", "backends", "sizes")

#: The trial kinds, by workload name: the one place that says what each
#: workload's trials run and which spec axes multiply them.  Schema
#: versions: sched and nhood trials gained per-job and per-counter
#: metrics, offload trials an IMB-style second warm-up round trip, and
#: crossover trials take their sweep and repetitions from the config.
TRIAL_KINDS = {
    "pingpong": TrialKind(runners.pingpong_trial, (
        *_SIZED, "nnodes", "pairs", "drops", "seeds"), noise=True),
    "allreduce": TrialKind(runners.allreduce_trial, (
        *_SIZED, "nnodes", "drops", "tunings", "seeds"), noise=True),
    "crossover": TrialKind(runners.crossover_trial, ("machines", "pairs"),
                           version=2, sweeps=("sizes",), traces=False),
    "sched": TrialKind(runners.sched_trial, (
        *_SIZED, "sched_policies", "job_mixes", "seeds"), version=2),
    "nhood": TrialKind(runners.nhood_trial, (
        *_SIZED, "nnodes", "drops", "patterns", "strategies", "seeds"),
        noise=True, version=2, adds=_degree),
    "offload": TrialKind(runners.offload_trial, (
        "machine_generations", "sizes", "seeds"),
        noise=True, version=2, adds=_generation, traces=False),
    "imb-pingpong": TrialKind(runners.imb_pingpong_trial, (*_SIZED, "pairs"),
                              adds=_imb(2)),
    "imb-alltoall": TrialKind(runners.imb_alltoall_trial, _SIZED, adds=_imb(1)),
    "nas": TrialKind(runners.nas_trial, ("machines", "backends", "benchmarks")),
}


#: ``json.dumps`` with these arguments builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(config: dict) -> str:
    """The one serialization of a config dict (sorted keys, no spaces)."""
    return _CANONICAL.encode(config)


def trial_hash(config: dict) -> str:
    """Stable content hash of a canonical trial config."""
    kind = TRIAL_KINDS.get(config.get("workload"))
    version = kind.version if kind is not None else _SCHEMA_VERSION
    payload = f"repro.campaign/v{version}:{canonical_json(config)}"
    return sha256(payload.encode()).hexdigest()


def group_config(config: dict) -> dict:
    """The config with the replicate axis removed (aggregation key)."""
    return {k: v for k, v in config.items() if k != "seed"}


def group_label(config: dict) -> str:
    """Human-readable name of a replicate group, stable across runs."""
    if "size" in config:
        size = fmt_size(config["size"])
    elif "sizes" in config:  # a crossover trial sweeps its own sizes
        size = f"{fmt_size(config['sizes'][0])}-{fmt_size(config['sizes'][-1])}"
    else:
        size = "-"
    parts = [
        config["workload"],
        config["machine"],
        config["backend"],
        size,
        f"n{config['nnodes']}",
    ]
    pair = config.get("pair")
    if pair and tuple(pair) != (0, 1):
        parts.append(f"c{pair[0]}-{pair[1]}")
    if config.get("drop"):
        parts.append(f"drop{config['drop']:g}")
    if config.get("tuning", "default") != "default":
        parts.append(config["tuning"])
    if config.get("eager_threshold") is not None:
        parts.append(f"eager{fmt_size(config['eager_threshold'])}")
    # Only the kind's own axes' keys: the keys of shared axes, and so
    # every label, stay as they were before a kind gained an axis.
    for axis in TRIAL_KINDS[config["workload"]].axes:
        if axis not in _SHARED:
            parts.append(config[_AXES[axis][0]])
    return "/".join(parts)


def _pick(kind: str, values: tuple, allowed: tuple) -> None:
    for value in values:
        if value not in allowed:
            raise BenchmarkError(
                f"unknown {kind} {value!r}; pick one of {allowed}"
            )


@dataclass(frozen=True)
class Trial:
    """One point of the cross-product: a canonical config plus its hash."""

    config: dict

    @cached_property
    def hash(self) -> str:
        """:func:`trial_hash` of the config, computed once per trial."""
        return trial_hash(self.config)

    @property
    def short(self) -> str:
        return self.hash[:12]

    @property
    def seed(self) -> int:
        return self.config["seed"]

    @property
    def group(self) -> str:
        """Hash-stable aggregation key (config minus the seed)."""
        return canonical_json(group_config(self.config))

    @property
    def label(self) -> str:
        return group_label(self.config)

    def describe(self) -> str:
        return f"{self.label} seed={self.seed} [{self.short}]"


@dataclass(frozen=True)
class CampaignSpec:
    """Axes of one experiment campaign.

    Every tuple field is an axis; scalars apply to all trials.  The
    axes the workload's :class:`TrialKind` reads multiply, in a fixed
    order (generation, machine, backend, benchmark, size, nnodes,
    pair, drop, tuning, sched policy, job mix, pattern, strategy,
    seed), so trial lists — and therefore the executor's record order
    — are deterministic for a given spec.
    """

    name: str = "campaign"
    workload: str = "pingpong"
    machines: tuple = ("xeon_e5345",)
    backends: tuple = ("default",)
    sizes: tuple = (256 * KiB,)
    nnodes: tuple = (1,)
    #: Core pairs for point-to-point workloads (shared vs remote cache).
    pairs: tuple = ((0, 1),)
    #: Injected wire drop rates (FaultPlan axis; 0.0 = no faults armed).
    drops: tuple = (0.0,)
    #: Collective tuning: "default" (hierarchy on) or "flat".
    tunings: tuple = ("default",)
    #: Noise-seed replicates; one trial per seed per config point.
    seeds: tuple = (0,)
    #: Pingpong round trips (or timed allreduce iterations, IMB
    #: repetitions, crossover-sweep repetitions per size) per trial; a
    #: "nas" trial times ``min(reps, the benchmark's iterations)``
    #: iterations and extrapolates to the full count.
    reps: int = 2
    #: Ranks per node for collective workloads (allreduce; the rank
    #: count of an "imb-alltoall" trial).
    procs_per_node: int = 2
    #: Lognormal jitter width; 0.0 runs the simulator deterministically.
    noise_sigma: float = 0.02
    #: Per-trial Engine watchdog budgets (LivelockError past either).
    max_events: int = 20_000_000
    max_sim_time: float = 60.0
    #: Scheduling-policy axis of the "sched" workload.
    sched_policies: tuple = ("fifo",)
    #: Job-mix axis of the "sched" workload (see repro.sched.job).
    job_mixes: tuple = ("pair",)
    #: Graph-pattern axis of the "nhood" workload (see repro.nhood).
    patterns: tuple = ("irregular",)
    #: Strategy axis of the "nhood" workload.
    strategies: tuple = ("direct", "node-aware")
    #: Target neighbour count of "irregular" nhood graphs (a trial
    #: builds ``min(degree, ranks - 1)``); written only into those
    #: trials' configs.
    degree: int = 12
    #: Machine-generation axis of the "offload" workload (each names a
    #: hardware era from :data:`GENERATIONS`, which fixes the trial's
    #: machine and backend).
    machine_generations: tuple = MACHINE_GENERATIONS
    #: Rendezvous switch of the IMB workloads in bytes (None keeps
    #: Nemesis' stock 64 KiB); written only into those trials' configs.
    eager_threshold: Optional[int] = None
    #: Benchmark axis of the "nas" workload: Table 1 row labels (see
    #: repro.bench.nas.BENCHMARKS).
    benchmarks: tuple = ("is.B.8",)
    #: When set, each executed trial writes a Perfetto trace to
    #: ``<trace_dir>/<hash>.trace.json`` (not part of the trial hash);
    #: a kind whose trials make several runs refuses it.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        _pick("workload", (self.workload,), tuple(TRIAL_KINDS))
        kind = TRIAL_KINDS[self.workload]
        read = kind.axes + kind.sweeps
        for axis in _AXES:
            values = getattr(self, axis)
            if not values:
                raise BenchmarkError(f"campaign axis {axis!r} is empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise BenchmarkError(
                        f"campaign axis {axis!r} repeats {value!r}"
                    )
            if axis in _CHOICES and (axis in _SHARED or axis in read):
                what, module, name = _CHOICES[axis]
                _pick(what, values, tuple(getattr(import_module(module), name)))
            # More values on an axis the runner ignores would only
            # repeat one measurement.
            if axis not in read and len(values) > 1 \
                    and tuple(values) != _DEFAULTS[axis]:
                raise BenchmarkError(f"{self.workload} trials ignore the "
                                     f"{axis} axis; give it one value")
        if any(s <= 0 for s in self.sizes):
            raise BenchmarkError(f"non-positive message size in {self.sizes}")
        if any(n < 1 for n in self.nnodes):
            raise BenchmarkError(f"node counts must be >= 1, got {self.nnodes}")
        if self.reps < 1:
            raise BenchmarkError(f"reps must be >= 1, got {self.reps}")
        if self.procs_per_node < 1:
            raise BenchmarkError(
                f"procs_per_node must be >= 1, got {self.procs_per_node}"
            )
        if not 0.0 <= self.noise_sigma <= 0.5:
            raise BenchmarkError(f"noise_sigma out of [0, 0.5]: {self.noise_sigma}")
        if self.noise_sigma and not kind.noise:
            raise BenchmarkError(
                f"{self.workload} trials run noise-free; set noise_sigma=0"
            )
        if self.trace_dir is not None and not kind.traces:
            raise BenchmarkError(f"{self.workload} trials make several runs "
                                 "each and write no trace; drop trace_dir")
        if "patterns" in read and self.degree < 1:
            raise BenchmarkError(f"degree must be >= 1, got {self.degree}")

    def _axes(self) -> list[tuple[str, tuple]]:
        """(field, JSON values) of every axis that multiplies the trial
        count, in :meth:`trials`' expansion order: the axes the kind
        reads (:data:`TRIAL_KINDS`)."""
        return [(axis, tuple(map(_AXES[axis][1], getattr(self, axis))))
                for axis in TRIAL_KINDS[self.workload].axes]

    def trials(self) -> list[Trial]:
        """Expand the cross-product into deterministic trial order.

        Every config holds the shared axes' keys, then the scalars,
        then the keys of the kind's own axes, sweeps and additions.  A
        shared axis the kind does not read holds one value, which every
        trial carries.
        """
        kind = TRIAL_KINDS[self.workload]
        axes = self._axes()
        keys = [_AXES[axis][0] for axis, _ in axes]
        base = {"workload": self.workload}
        for axis in _SHARED:
            key, form = _AXES[axis]
            base[key] = form(getattr(self, axis)[0])
        if "sizes" not in kind.axes:
            del base["size"]
        base.update(reps=int(self.reps), procs_per_node=int(self.procs_per_node),
                    noise_sigma=float(self.noise_sigma),
                    max_events=int(self.max_events),
                    max_sim_time=float(self.max_sim_time))
        out = []
        for point in itertools.product(*(values for _, values in axes)):
            config = base.copy()
            config.update(zip(keys, point))
            config["pair"] = list(config["pair"])
            for axis in kind.sweeps:
                config[axis] = list(map(_AXES[axis][1], getattr(self, axis)))
            if kind.adds is not None:
                config.update(kind.adds(self, config))
            out.append(Trial(config=config))
        return out

    def to_dict(self) -> dict:
        """JSON form embedded in campaign documents."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        """One line naming the axes that multiply into the trial count."""
        shown = [f"{len(v)} {axis}" for axis, v in self._axes() if len(v) > 1]
        n = len(self.trials())
        return (
            f"campaign {self.name!r}: {self.workload}, "
            f"{' x '.join(shown) or '1 config'} -> {n} trial"
            + ("s" if n != 1 else "")
        )


#: Each axis' default: an axis a kind does not read may keep it.
_DEFAULTS = {f.name: f.default for f in fields(CampaignSpec) if f.name in _AXES}
