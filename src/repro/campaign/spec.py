"""Declarative experiment campaigns: axes -> trials -> content hashes.

A :class:`CampaignSpec` names the axes of a study — machine preset,
LMT backend, message size, node count, injected drop rate, collective
tuning, and seeded replicates — and :meth:`CampaignSpec.trials`
expands their cross-product into :class:`Trial`\\ s.  Every trial
carries one *canonical config dict* (plain JSON types, sorted keys)
whose SHA-256 is the trial's identity: the executor keys the result
cache on it, so the same config always reuses the same stored result
and any axis change produces a new hash.

Hashes are computed once per trial: a :class:`Trial` memoises its
hash, so the executor can key every cache read and store write on it
without hashing again.  Each
:meth:`CampaignSpec.trials` call builds fresh trials, which hash once
each.

Replicates differ only in ``seed``; :func:`group_config` strips the
seed so :mod:`repro.campaign.stats` can aggregate across them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

from repro.core.policy import MODES
from repro.errors import BenchmarkError
from repro.units import KiB, fmt_size

__all__ = [
    "WORKLOADS",
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

#: Workloads the executor knows how to run (see repro.campaign.executor).
WORKLOADS = ("pingpong", "allreduce", "crossover", "sched", "nhood", "offload")

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

#: Every tuple-valued field of :class:`CampaignSpec`: each must be
#: non-empty and repeat no value.
_AXES = (
    "machines", "backends", "sizes", "nnodes", "pairs", "drops", "tunings",
    "seeds", "sched_policies", "job_mixes", "patterns", "strategies",
    "machine_generations",
)

#: Bumped whenever trial semantics change incompatibly; salted into
#: every hash so stale cached results can never be mistaken for fresh.
_SCHEMA_VERSION = 1

#: Per-workload bumps, so one workload's trials can change without
#: moving every other hash: sched and nhood trials gained per-job and
#: per-counter metrics, and offload trials an IMB-style second warm-up
#: round trip.
_WORKLOAD_VERSIONS = {"sched": 2, "nhood": 2, "offload": 2}


#: ``json.dumps`` with these arguments builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(config: dict) -> str:
    """The one serialization of a config dict (sorted keys, no spaces)."""
    return _CANONICAL.encode(config)


def trial_hash(config: dict) -> str:
    """Stable content hash of a canonical trial config."""
    version = _WORKLOAD_VERSIONS.get(config.get("workload"), _SCHEMA_VERSION)
    payload = f"repro.campaign/v{version}:{canonical_json(config)}"
    return hashlib.sha256(payload.encode()).hexdigest()


def group_config(config: dict) -> dict:
    """The config with the replicate axis removed (aggregation key)."""
    return {k: v for k, v in config.items() if k != "seed"}


def group_label(config: dict) -> str:
    """Human-readable name of a replicate group, stable across runs."""
    parts = [
        config["workload"],
        config["machine"],
        config["backend"],
        fmt_size(config["size"]),
        f"n{config['nnodes']}",
    ]
    pair = config.get("pair")
    if pair and tuple(pair) != (0, 1):
        parts.append(f"c{pair[0]}-{pair[1]}")
    if config.get("drop"):
        parts.append(f"drop{config['drop']:g}")
    if config.get("tuning", "default") != "default":
        parts.append(config["tuning"])
    # The sched, nhood and offload axes only exist on those workloads'
    # trials, so legacy labels (and the committed baseline documents
    # keyed on them) never move.
    for key in ("sched_policy", "job_mix", "pattern", "strategy",
                "machine_generation"):
        if key in config:
            parts.append(config[key])
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
    expansion order is fixed (machine, backend, size, nnodes, pair,
    drop, tuning, seed) so trial lists — and therefore the executor's
    record order — are deterministic for a given spec.
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
    #: Pingpong round trips (or timed allreduce iterations) per trial.
    reps: int = 2
    #: Ranks per node for collective workloads (allreduce).
    procs_per_node: int = 2
    #: Lognormal jitter width; 0.0 runs the simulator deterministically.
    noise_sigma: float = 0.02
    #: Per-trial Engine watchdog budgets (LivelockError past either).
    max_events: int = 20_000_000
    max_sim_time: float = 60.0
    #: Scheduling-policy axis, used only by the "sched" workload (the
    #: keys are absent from other workloads' configs, so legacy trial
    #: hashes and labels are untouched).
    sched_policies: tuple = ("fifo",)
    #: Job-mix axis of the "sched" workload (see repro.sched.job).
    job_mixes: tuple = ("pair",)
    #: Graph-pattern axis of the "nhood" workload (see repro.nhood) —
    #: like the scheduler axes, the keys never enter other workloads'
    #: configs, so legacy trial hashes are untouched.
    patterns: tuple = ("irregular",)
    #: Strategy axis of the "nhood" workload.
    strategies: tuple = ("direct", "node-aware")
    #: Target neighbour count of "irregular" nhood graphs (a trial
    #: builds ``min(degree, ranks - 1)``); written only into those
    #: trials' configs.
    degree: int = 12
    #: Machine-generation axis of the "offload" workload (each names a
    #: hardware era from :data:`GENERATIONS`; the trial's
    #: ``machine``/``backend`` axes are ignored there — the generation
    #: fixes both).  Keys never enter other workloads' configs, so
    #: legacy trial hashes are untouched.
    machine_generations: tuple = MACHINE_GENERATIONS
    #: When set, each executed trial writes a Perfetto trace to
    #: ``<trace_dir>/<hash>.trace.json`` (not part of the trial hash).
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        _pick("workload", (self.workload,), WORKLOADS)
        _pick("machine preset", self.machines, MACHINES)
        _pick("LMT backend", self.backends, MODES)
        for axis in _AXES:
            values = getattr(self, axis)
            if not values:
                raise BenchmarkError(f"campaign axis {axis!r} is empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise BenchmarkError(
                        f"campaign axis {axis!r} repeats {value!r}"
                    )
        if any(s <= 0 for s in self.sizes):
            raise BenchmarkError(f"non-positive message size in {self.sizes}")
        if any(n < 1 for n in self.nnodes):
            raise BenchmarkError(f"node counts must be >= 1, got {self.nnodes}")
        _pick("tuning", self.tunings, ("default", "flat"))
        if self.reps < 1:
            raise BenchmarkError(f"reps must be >= 1, got {self.reps}")
        if self.procs_per_node < 1:
            raise BenchmarkError(
                f"procs_per_node must be >= 1, got {self.procs_per_node}"
            )
        if not 0.0 <= self.noise_sigma <= 0.5:
            raise BenchmarkError(f"noise_sigma out of [0, 0.5]: {self.noise_sigma}")
        if self.workload == "sched":
            # Imported lazily: spec.py stays light for non-sched specs.
            from repro.sched.job import JOB_MIXES
            from repro.sched.scheduler import SCHED_POLICIES

            _pick("sched policy", self.sched_policies, SCHED_POLICIES)
            _pick("job mix", self.job_mixes, JOB_MIXES)
        if self.workload == "offload":
            _pick("machine generation", self.machine_generations,
                  MACHINE_GENERATIONS)
        if self.workload == "nhood":
            from repro.nhood.patterns import PATTERNS
            from repro.nhood.strategy import STRATEGIES

            _pick("pattern", self.patterns, PATTERNS)
            _pick("strategy", self.strategies, STRATEGIES)
            if self.degree < 1:
                raise BenchmarkError(f"degree must be >= 1, got {self.degree}")

    def _axes(self) -> list[tuple[str, tuple]]:
        """(field, values) of every axis in :meth:`trials`' expansion
        order; an axis the workload does not use has the one value None.

        The sched, nhood and offload axes multiply only their own
        workload's product and their keys enter only its configs, so
        other workloads' trial hashes never move.  For "offload" the
        generation axis *replaces* machine x backend: each generation
        fixes its preset and its offload mode (:data:`GENERATIONS`).
        """
        def only(workload: str, values: tuple) -> tuple:
            return values if self.workload == workload else (None,)

        offload = self.workload == "offload"
        return [
            ("machine_generations", only("offload", self.machine_generations)),
            ("machines", (None,) if offload else self.machines),
            ("backends", (None,) if offload else self.backends),
            ("sizes", self.sizes), ("nnodes", self.nnodes),
            ("pairs", self.pairs), ("drops", self.drops),
            ("tunings", self.tunings),
            ("sched_policies", only("sched", self.sched_policies)),
            ("job_mixes", only("sched", self.job_mixes)),
            ("patterns", only("nhood", self.patterns)),
            ("strategies", only("nhood", self.strategies)),
            ("seeds", self.seeds),
        ]

    def trials(self) -> list[Trial]:
        """Expand the cross-product into deterministic trial order."""
        generations = {g["generation"]: g for g in GENERATIONS}
        out = []
        for (generation, machine, backend, size, nn, pair, drop, tuning, pol,
             mix, pattern, strategy, seed) in itertools.product(
                 *(values for _, values in self._axes())):
            if generation is not None:
                machine = generations[generation]["machine"]
                backend = generations[generation]["offload_mode"]
            config = {
                "workload": self.workload,
                "machine": machine,
                "backend": backend,
                "size": int(size),
                "nnodes": int(nn),
                "pair": [int(pair[0]), int(pair[1])],
                "drop": float(drop),
                "tuning": tuning,
                "seed": int(seed),
                "reps": int(self.reps),
                "procs_per_node": int(self.procs_per_node),
                "noise_sigma": float(self.noise_sigma),
                "max_events": int(self.max_events),
                "max_sim_time": float(self.max_sim_time),
            }
            if pol is not None:
                config["sched_policy"] = pol
                config["job_mix"] = mix
            if pattern is not None:
                config["pattern"] = pattern
                config["strategy"] = strategy
                if pattern == "irregular":
                    config["degree"] = int(self.degree)
            if generation is not None:
                config["machine_generation"] = generation
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
