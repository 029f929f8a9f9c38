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
hash, so the executor and the coordinator can key every cache read,
store write and queue entry on it without hashing again.  Each
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

#: Machine generations the "offload" workload may sweep (each names a
#: preset; the generation label is the offload bench's vocabulary).
MACHINE_GENERATIONS = ("nehalem-era", "modern")

#: Bumped whenever trial semantics change incompatibly; salted into
#: every hash so stale cached results can never be mistaken for fresh.
_SCHEMA_VERSION = 1


#: ``json.dumps`` with these arguments builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(config: dict) -> str:
    """The one serialization of a config dict (sorted keys, no spaces)."""
    return _CANONICAL.encode(config)


def trial_hash(config: dict) -> str:
    """Stable content hash of a canonical trial config."""
    payload = f"repro.campaign/v{_SCHEMA_VERSION}:{canonical_json(config)}"
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
    # Scheduler axes only exist on "sched" trials, so legacy labels
    # (and the committed baseline documents keyed on them) never move.
    if "sched_policy" in config:
        parts.append(config["sched_policy"])
    if "job_mix" in config:
        parts.append(config["job_mix"])
    # Likewise the neighborhood axes only exist on "nhood" trials.
    if "pattern" in config:
        parts.append(config["pattern"])
    if "strategy" in config:
        parts.append(config["strategy"])
    # And the generation axis only exists on "offload" trials.
    if "machine_generation" in config:
        parts.append(config["machine_generation"])
    return "/".join(parts)


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
    drop, tuning, seed) so trial lists — and therefore executor queue
    order — are deterministic for a given spec.
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
    #: Machine-generation axis of the "offload" workload (each names a
    #: hardware era from repro.offload.bench.GENERATIONS; the trial's
    #: ``machine``/``backend`` axes are ignored there — the generation
    #: fixes both).  Keys never enter other workloads' configs, so
    #: legacy trial hashes are untouched.
    machine_generations: tuple = MACHINE_GENERATIONS
    #: When set, each executed trial writes a Perfetto trace to
    #: ``<trace_dir>/<hash>.trace.json`` (not part of the trial hash).
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise BenchmarkError(
                f"unknown workload {self.workload!r}; pick one of {WORKLOADS}"
            )
        for m in self.machines:
            if m not in MACHINES:
                raise BenchmarkError(
                    f"unknown machine preset {m!r}; pick from {MACHINES}"
                )
        for b in self.backends:
            if b not in MODES:
                raise BenchmarkError(
                    f"unknown LMT backend {b!r}; pick one of {MODES}"
                )
        for axis in ("machines", "backends", "sizes", "nnodes", "pairs",
                     "drops", "tunings", "seeds"):
            if not getattr(self, axis):
                raise BenchmarkError(f"campaign axis {axis!r} is empty")
        if any(s <= 0 for s in self.sizes):
            raise BenchmarkError(f"non-positive message size in {self.sizes}")
        if any(n < 1 for n in self.nnodes):
            raise BenchmarkError(f"node counts must be >= 1, got {self.nnodes}")
        for t in self.tunings:
            if t not in ("default", "flat"):
                raise BenchmarkError(f"tuning must be 'default' or 'flat': {t!r}")
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

            if not self.sched_policies or not self.job_mixes:
                raise BenchmarkError(
                    "sched campaigns need non-empty sched_policies and "
                    "job_mixes axes"
                )
            for p in self.sched_policies:
                if p not in SCHED_POLICIES:
                    raise BenchmarkError(
                        f"unknown sched policy {p!r}; pick from {SCHED_POLICIES}"
                    )
            for m in self.job_mixes:
                if m not in JOB_MIXES:
                    raise BenchmarkError(
                        f"unknown job mix {m!r}; pick from {JOB_MIXES}"
                    )
        if self.workload == "offload":
            if not self.machine_generations:
                raise BenchmarkError(
                    "offload campaigns need a non-empty machine_generations "
                    "axis"
                )
            for g in self.machine_generations:
                if g not in MACHINE_GENERATIONS:
                    raise BenchmarkError(
                        f"unknown machine generation {g!r}; pick from "
                        f"{MACHINE_GENERATIONS}"
                    )
        if self.workload == "nhood":
            from repro.nhood.patterns import PATTERNS
            from repro.nhood.strategy import STRATEGIES

            if not self.patterns or not self.strategies:
                raise BenchmarkError(
                    "nhood campaigns need non-empty patterns and "
                    "strategies axes"
                )
            for pat in self.patterns:
                if pat not in PATTERNS:
                    raise BenchmarkError(
                        f"unknown pattern {pat!r}; pick from {PATTERNS}"
                    )
            for s in self.strategies:
                if s not in STRATEGIES:
                    raise BenchmarkError(
                        f"unknown strategy {s!r}; pick from {STRATEGIES}"
                    )

    def trials(self) -> list[Trial]:
        """Expand the cross-product into deterministic trial order."""
        out = []
        # The scheduler axes multiply the product only for the "sched"
        # workload; elsewhere they contribute a single empty variant and
        # the keys never enter the config (hash compatibility).
        if self.workload == "sched":
            sched_axes = list(itertools.product(self.sched_policies, self.job_mixes))
        else:
            sched_axes = [(None, None)]
        # Same scheme for the neighborhood axes.
        if self.workload == "nhood":
            nhood_axes = list(itertools.product(self.patterns, self.strategies))
        else:
            nhood_axes = [(None, None)]
        # For the "offload" workload the generation axis *replaces* the
        # machine x backend product: each generation fixes its preset
        # and its offload engine mode (repro.offload.bench.GENERATIONS),
        # so sweeping machines/backends independently would only mint
        # duplicate configs.  Other workloads keep the legacy product
        # untouched — same loop values, same configs, same hashes.
        if self.workload == "offload":
            from repro.offload.bench import GENERATIONS

            gen_map = {g["generation"]: g for g in GENERATIONS}
            mb_axes = [
                (gen_map[g]["machine"], gen_map[g]["offload_mode"], g)
                for g in self.machine_generations
            ]
        else:
            mb_axes = [
                (m, b, None)
                for m, b in itertools.product(self.machines, self.backends)
            ]
        for (machine, backend, generation), size, nn, pair, drop, tuning, (
            pol, mix
        ), (pattern, strategy), seed in itertools.product(
            mb_axes, self.sizes, self.nnodes,
            self.pairs, self.drops, self.tunings, sched_axes, nhood_axes,
            self.seeds,
        ):
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
            if generation is not None:
                config["machine_generation"] = generation
            out.append(Trial(config=config))
        return out

    def to_dict(self) -> dict:
        """JSON form embedded in campaign documents."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Rebuild a spec from its :meth:`to_dict` JSON form.

        JSON turns tuples into lists, so every axis is coerced back
        (``pairs`` into a tuple of 2-tuples); the rebuilt spec's
        :meth:`trials` are identical to the original's — this is what
        makes a spec submitted over the service wire hash-compatible
        with the same spec run locally.  Unknown keys are rejected:
        silently dropping an axis would change the trial set.
        """
        if not isinstance(payload, dict):
            raise BenchmarkError(f"campaign spec must be a dict, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise BenchmarkError(f"unknown campaign spec field(s): {', '.join(unknown)}")
        kwargs = dict(payload)
        for axis in ("machines", "backends", "sizes", "nnodes", "drops",
                     "tunings", "seeds", "sched_policies", "job_mixes",
                     "patterns", "strategies", "machine_generations"):
            if axis in kwargs:
                kwargs[axis] = tuple(kwargs[axis])
        if "pairs" in kwargs:
            kwargs["pairs"] = tuple(tuple(p) for p in kwargs["pairs"])
        return cls(**kwargs)

    def describe(self) -> str:
        axes = (
            f"{len(self.machines)} machine(s) x {len(self.backends)} "
            f"backend(s) x {len(self.sizes)} size(s)"
        )
        extra = len(self.nnodes) * len(self.pairs) * len(self.drops) * len(
            self.tunings
        )
        if extra > 1:
            axes += f" x {extra} variant(s)"
        return (
            f"campaign {self.name!r}: {self.workload}, {axes}, "
            f"{len(self.seeds)} seed(s) -> {len(self.trials())} trials"
        )
