"""Committed campaign suites: the sched, nhood and offload experiments.

A suite is a tuple of :class:`~repro.campaign.spec.CampaignSpec`\\ s
whose trials reproduce one committed document (``BENCH_<name>.json``),
plus that document's self-checks as named predicates over the
resulting campaign documents.  Every spec is noise-free, so a suite
document is byte-reproducible.

``sched``
    The paper's Table 2 argument between co-located jobs on the
    shared-L2 ``nehalem8`` preset: a stream victim beside a pingpong
    aggressor in ``default`` (shm copies) and ``knem-ioat-async``
    (I/OAT DMA) mode; then three queued ``knem`` pingpongs under each
    scheduling policy.
``nhood``
    Node-aware neighbourhood exchanges against direct ones: irregular
    graphs in the message-bound regime (128 B halos, degree 12 and 16),
    where aggregation must win; 2-D stencils in the bandwidth-bound
    regime (4 KiB halos), where it must lose; and the aggregation
    leader's cache interference, staged through shm or KNEM + I/OAT.
``offload``
    The Sec. 3.5 DMAmin crossover per machine generation: KNEM against
    KNEM + I/OAT on the Xeon E5345 and against the DSA-class engine on
    the modern server, two sizes per octave.

CLI: ``repro-bench campaign run --suite NAME --out BENCH_NAME.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.bench.harness import sweep_sizes
from repro.campaign.executor import run_campaign
from repro.campaign.spec import MACHINE_GENERATIONS, CampaignSpec
from repro.errors import BenchmarkError
from repro.units import KiB, MiB

__all__ = ["SUITES", "Suite", "check_suite", "run_suite"]


@dataclass(frozen=True)
class Suite:
    """The specs of one suite and its named self-checks."""

    specs: tuple
    #: name -> predicate over the list of campaign documents.
    checks: dict


# ----------------------------------------------------------- document reads
def _trials(campaigns: list, **match) -> list[dict]:
    """The ok trial records whose config holds every ``match`` item."""
    return [
        t for doc in campaigns for t in doc["trials"]
        if t["status"] == "ok"
        and all(t["config"].get(k) == v for k, v in match.items())
    ]


def _metrics(campaigns: list, **match) -> dict:
    """The metrics of the one ok trial matching ``match``."""
    found = _trials(campaigns, **match)
    if len(found) != 1:
        raise LookupError(f"{len(found)} ok trials match {match}")
    return found[0]["metrics"]


def _victims(campaigns: list, mix: str) -> tuple[dict, dict]:
    """The stream victim's metrics beside the shm and the DMA aggressor."""
    return tuple(
        _metrics(campaigns, workload="sched", job_mix=mix, backend=mode)
        ["jobs"]["victim"]
        for mode in ("default", "knem-ioat-async")
    )


# -------------------------------------------------------------------- sched
def _sched_spec(name: str, **axes) -> CampaignSpec:
    return CampaignSpec(
        name=name, workload="sched", machines=("nehalem8",), seeds=(0,),
        noise_sigma=0.0, **axes,
    )


def _interference_spec(name: str, mix: str) -> CampaignSpec:
    """The victim beside a 4 MiB aggressor in shm and in DMA mode: the
    victim's 8 MiB working set fills nehalem8's shared L2."""
    return _sched_spec(
        name, backends=("default", "knem-ioat-async"), sizes=(4 * MiB,),
        job_mixes=(mix,),
    )


def _eviction_gap_ok(campaigns: list) -> bool:
    shm, dma = _victims(campaigns, "pair")
    return (shm["l2_lines_evicted_by_others"]
            > dma["l2_lines_evicted_by_others"])


def _slowdown_gap_ok(campaigns: list) -> bool:
    shm, dma = _victims(campaigns, "pair")
    return shm["slowdown"] > dma["slowdown"]


def _dma_evicts_nothing(campaigns: list) -> bool:
    return _victims(campaigns, "pair")[1]["l2_lines_evicted_by_others"] == 0


SCHED = Suite(
    specs=(
        _interference_spec("sched-interference", "pair"),
        _sched_spec(
            "sched-policies", backends=("knem",), sizes=(1 * MiB,),
            sched_policies=("fifo", "backfill", "gang"), job_mixes=("queue",),
        ),
    ),
    checks={
        "eviction_gap_ok": _eviction_gap_ok,
        "slowdown_gap_ok": _slowdown_gap_ok,
        "dma_evicts_nothing": _dma_evicts_nothing,
    },
)


# -------------------------------------------------------------------- nhood
def _nhood_spec(name: str, pattern: str, **axes) -> CampaignSpec:
    return CampaignSpec(
        name=name, workload="nhood", machines=("xeon_e5345",),
        backends=("default", "knem", "knem-ioat-async"),
        patterns=(pattern,), procs_per_node=4, reps=3, seeds=(0,),
        noise_sigma=0.0, **axes,
    )


def _strategy_pairs(campaigns: list, pattern: str) -> list[tuple[dict, dict]]:
    """(direct, node-aware) metrics of each nhood trial pair."""
    pairs = []
    for direct in _trials(campaigns, workload="nhood", pattern=pattern,
                          strategy="direct"):
        cfg = {**direct["config"], "strategy": "node-aware"}
        pairs.append((direct["metrics"], _metrics(campaigns, **cfg)))
    if not pairs:
        raise LookupError(f"no {pattern} trial pairs")
    return pairs


def _msg_gap_ok(campaigns: list) -> bool:
    """Node-aware cuts the wire message count on every graph."""
    return all(
        na["internode_msgs"] < direct["internode_msgs"]
        for pattern in ("irregular", "stencil2d")
        for direct, na in _strategy_pairs(campaigns, pattern)
    )


def _latency_ok(campaigns: list) -> bool:
    """... and wins end to end where the graph is message-bound."""
    return all(
        direct["seconds"] / na["seconds"] > 1.0
        for direct, na in _strategy_pairs(campaigns, "irregular")
    )


def _bandwidth_regime_ok(campaigns: list) -> bool:
    """... while losing where it is bandwidth-bound."""
    return all(
        direct["seconds"] / na["seconds"] < 1.0
        for direct, na in _strategy_pairs(campaigns, "stencil2d")
    )


def _interference_ok(campaigns: list) -> bool:
    """The shm-staging leader pollutes the victim's L2; the KNEM +
    I/OAT leader leaves it untouched."""
    shm, dma = _victims(campaigns, "nhood")
    return (
        shm["l2_lines_evicted_by_others"] > 0
        and dma["l2_lines_evicted_by_others"] == 0
        and shm["slowdown"] > dma["slowdown"]
    )


NHOOD = Suite(
    specs=(
        _nhood_spec("nhood-irregular-4", "irregular", nnodes=(4,),
                    sizes=(128,), degree=12),
        _nhood_spec("nhood-irregular-8", "irregular", nnodes=(8,),
                    sizes=(128,), degree=16),
        _nhood_spec("nhood-stencil2d", "stencil2d", nnodes=(4, 8),
                    sizes=(4 * KiB,)),
        _interference_spec("nhood-interference", "nhood"),
    ),
    checks={
        "msg_gap_ok": _msg_gap_ok,
        "latency_ok": _latency_ok,
        "bandwidth_regime_ok": _bandwidth_regime_ok,
        "interference_ok": _interference_ok,
    },
)


# ------------------------------------------------------------------ offload
def _offload_spec(generation: str, lo: int, hi: int) -> CampaignSpec:
    return CampaignSpec(
        name=f"offload-{generation}", workload="offload",
        machine_generations=(generation,), sizes=tuple(sweep_sizes(lo, hi)),
        reps=4, seeds=(0,), noise_sigma=0.0,
    )


def _sweep(campaigns: list, generation: str) -> list[dict]:
    """One generation's ok offload trials in size order."""
    found = sorted(
        _trials(campaigns, workload="offload", machine_generation=generation),
        key=lambda t: t["config"]["size"],
    )
    if not found:
        raise LookupError(f"no offload trials of {generation!r}")
    return found


def _crossover(campaigns: list, generation: str) -> Optional[int]:
    """Smallest swept size from which offload wins for good (the rule
    of :func:`repro.core.autotune.find_ioat_crossover`)."""
    crossover = None
    for t in _sweep(campaigns, generation):
        if not t["metrics"]["offload_wins"]:
            crossover = None
        elif crossover is None:
            crossover = t["config"]["size"]
    return crossover


def _crossover_found(campaigns: list, generation: str) -> bool:
    return _crossover(campaigns, generation) is not None


def _cpu_wins_below(campaigns: list, generation: str) -> bool:
    first = _sweep(campaigns, generation)[0]["metrics"]
    return first["cpu_mib_per_s"] > first["offload_mib_per_s"]


def _offload_wins_above(campaigns: list, generation: str) -> bool:
    last = _sweep(campaigns, generation)[-1]["metrics"]
    return last["offload_mib_per_s"] > last["cpu_mib_per_s"]


def _generations_differ(campaigns: list) -> bool:
    crossings = [_crossover(campaigns, g) for g in MACHINE_GENERATIONS]
    return None not in crossings and len(set(crossings)) == len(crossings)


OFFLOAD = Suite(
    specs=(
        _offload_spec("nehalem-era", 256 * KiB, 8 * MiB),
        _offload_spec("modern", 1 * MiB, 48 * MiB),
    ),
    checks={
        **{
            f"{g.replace('-', '_')}_{name}": partial(fn, generation=g)
            for g in MACHINE_GENERATIONS
            for name, fn in (
                ("crossover_found", _crossover_found),
                ("cpu_wins_below", _cpu_wins_below),
                ("offload_wins_above", _offload_wins_above),
            )
        },
        "generations_differ": _generations_differ,
    },
)

SUITES: dict[str, Suite] = {"sched": SCHED, "nhood": NHOOD, "offload": OFFLOAD}


# ---------------------------------------------------------------------- run
def _suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown suite {name!r}; pick one of {tuple(SUITES)}"
        ) from None


def check_suite(name: str, campaigns: list) -> dict[str, bool]:
    """Every named predicate of suite ``name`` over ``campaigns``.

    A predicate whose trials are missing or failed reads False.
    """
    checks: dict[str, bool] = {}
    for check, predicate in _suite(name).checks.items():
        try:
            checks[check] = bool(predicate(campaigns))
        except LookupError:
            checks[check] = False
    return checks


def run_suite(name: str, cache=None, workers: int = 0) -> dict:
    """Run every spec of suite ``name`` and check the results.

    Returns ``{"kind": "suite", "name", "campaigns", "checks"}``.  The
    campaign documents leave out how each trial was obtained (the
    ``cached`` flag and the executed / cache-hit counts), so a warm
    rerun writes the same bytes as a cold one.
    """
    campaigns = []
    for spec in _suite(name).specs:
        doc = run_campaign(spec, cache=cache, workers=workers).document()
        for record in doc["trials"]:
            del record["cached"]
        for key in ("executed", "cache_hits"):
            del doc["summary"][key]
        campaigns.append(doc)
    return {
        "kind": "suite",
        "name": name,
        "campaigns": campaigns,
        "checks": check_suite(name, campaigns),
    }
