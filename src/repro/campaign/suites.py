"""Committed campaign suites: every experiment the repository reports.

A suite is a tuple of :class:`~repro.campaign.spec.CampaignSpec`\\ s
whose trials reproduce one document, plus that document's self-checks
as named predicates over the resulting campaign documents.  Every spec
is noise-free, so a suite document is byte-reproducible.

The paper's artifacts (``repro-bench --figure N``, ``--table N``,
``--thresholds`` and ``--validate`` print from these documents):

``fig3`` .. ``fig7``
    IMB PingPong sweeps over LMT mode and core placement (Figs. 3-6)
    and the 8-rank IMB Alltoall sweep (Fig. 7).
``table1``, ``table2``
    NAS execution times per LMT mode; L2 misses of pingpong,
    alltoall and IS.
``thresholds``
    The Sec. 3.5 I/OAT crossovers against DMAmin.
``claims``
    The paper's 15 quantitative claims.  Each predicate returns its
    measured value, its pass interval, its signed margin and the
    paper's value (:func:`claim_result`), so a claim drifting toward
    failure shows before it fails.  ``BENCH_claims.json`` is committed.

Each figure and table also has a ``-fast`` suite with coarser specs
(``--fast``).  The other committed suites:

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

CLI: ``repro-bench campaign run --suite NAME --out BENCH_NAME.json``;
``campaign compare --suite NAME --baseline FILE`` gates a rerun
against a saved suite document, campaign by campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.bench.harness import sweep_sizes
from repro.campaign.executor import run_campaigns
from repro.campaign.spec import MACHINE_GENERATIONS, CampaignSpec
from repro.core.autotune import CrossoverResult, stable_win
from repro.errors import BenchmarkError
from repro.units import KiB, MiB

__all__ = [
    "SUITES",
    "Bound",
    "CLAIMS",
    "FIGURES",
    "TABLE_MODES",
    "Suite",
    "check_passed",
    "check_suite",
    "claim_result",
    "figure_sweep",
    "run_suite",
    "stable_win",
    "table1_rows",
    "table2_rows",
    "threshold_results",
]


@dataclass(frozen=True)
class Suite:
    """The specs of one suite and its named self-checks."""

    specs: tuple
    #: name -> predicate over the list of campaign documents: a bool,
    #: or a :func:`claim_result` dict for the claims.
    checks: dict = field(default_factory=dict)


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
    """Smallest swept size from which offload wins for good."""
    return stable_win(
        (t["config"]["size"], t["metrics"]["offload_wins"])
        for t in _sweep(campaigns, generation)
    )


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

# ---------------------------------------------------------------- the paper
#: Cores 0 and 1 share a 4 MiB L2 on the E5345; cores 0 and 4 sit on
#: different sockets (the paper notes that same-socket, different-die
#: pairs behave the same way, Sec. 4.2).
SHARED, REMOTE = (0, 1), (0, 4)

#: The four strategies of Fig. 7 and Tables 1-2, in column order.
TABLE_MODES = ("default", "vmsplice", "knem", "knem-ioat")

#: Fig. 7 and Table 2's 64 KiB Alltoall enable the new LMTs from 2 KiB:
#: the paper's Alltoall curves differ from 4 KiB on, well below
#: Nemesis' stock 64 KiB switch (the paper itself concludes "the
#: threshold's current value should be reduced").
LOWERED_EAGER = 2 * KiB


def _paper_spec(name: str, workload: str, **axes) -> CampaignSpec:
    """A noise-free, one-seed spec, on the paper's Xeon E5345 host
    unless ``axes`` names other machines."""
    axes.setdefault("machines", ("xeon_e5345",))
    return CampaignSpec(name=name, workload=workload, seeds=(0,),
                        noise_sigma=0.0, **axes)


@dataclass(frozen=True)
class Figure:
    """How a figure's trials print: one series per curve, each curve a
    ``(label, backend, pair)`` (pair None: any), y from ``metric``."""

    title: str
    xlabel: str
    ylabel: str
    curves: tuple
    metric: str = "mib_per_s"


def _curves(pairs: dict, modes: dict) -> tuple:
    return tuple(
        (f"{mode_label}{pair_label}", mode, pair)
        for pair_label, pair in pairs.items()
        for mode_label, mode in modes.items()
    )


_FOUR = {
    "default LMT": "default", "vmsplice LMT": "vmsplice",
    "KNEM LMT": "knem", "KNEM LMT with I/OAT": "knem-ioat",
}
_PINGPONG_AXES = ("message size", "throughput (MiB/s)")

#: Figure number -> how it prints.
FIGURES = {
    3: Figure(
        "Figure 3: IMB Pingpong, vmsplice vs writev vs default LMT",
        *_PINGPONG_AXES,
        _curves(
            {" - Shared Cache": SHARED, " - Different Dies": REMOTE},
            {"default LMT": "default", "vmsplice LMT": "vmsplice",
             "vmsplice LMT using writev": "vmsplice-writev"},
        ),
    ),
    4: Figure(
        "Figure 4: IMB Pingpong, 2 processes sharing a 4MiB L2",
        *_PINGPONG_AXES, _curves({"": SHARED}, _FOUR),
    ),
    5: Figure(
        "Figure 5: IMB Pingpong, 2 processes not sharing any cache",
        *_PINGPONG_AXES, _curves({"": REMOTE}, _FOUR),
    ),
    6: Figure(
        "Figure 6: KNEM synchronous vs asynchronous models",
        *_PINGPONG_AXES,
        _curves({"": REMOTE}, {
            "KNEM LMT - synchronous": "knem",
            "KNEM LMT - asynchronous": "knem-async",
            "KNEM LMT - synchronous with I/OAT": "knem-ioat",
            "KNEM LMT - asynchronous with I/OAT": "knem-ioat-async",
        }),
    ),
    7: Figure(
        "Figure 7: IMB Alltoall aggregated throughput, 8 processes",
        "message size (per pair)", "aggregated throughput (MiB/s)",
        _curves({"": None}, _FOUR),
        metric="aggregated_mib_per_s",
    ),
}


def _pingpong_figure(n: int, fast: bool) -> Suite:
    """Figs. 3-6: IMB PingPong from 64 KiB to 4 MiB, one campaign over
    the figure's modes x core pairs."""
    curves = FIGURES[n].curves
    return Suite(specs=(_paper_spec(
        f"fig{n}", "imb-pingpong",
        backends=tuple(dict.fromkeys(mode for _, mode, _ in curves)),
        pairs=tuple(dict.fromkeys(pair for _, _, pair in curves)),
        sizes=tuple(sweep_sizes(64 * KiB, 4 * MiB, 1 if fast else 2)),
        reps=6,
    ),))


def _alltoall_figure(fast: bool) -> Suite:
    """Fig. 7: IMB Alltoall over 8 ranks.  The default keeps Nemesis'
    stock 64 KiB switch (its sub-64 KiB curve *is* the eager-cell path,
    as measured in the paper); the new LMTs run from 2 KiB."""
    axes = dict(
        sizes=tuple(sweep_sizes(4 * KiB, 512 * KiB if fast else 4 * MiB,
                                1 if fast else 2)),
        procs_per_node=8, reps=2 if fast else 3,
    )
    return Suite(specs=(
        _paper_spec("fig7-default", "imb-alltoall", backends=("default",),
                    **axes),
        _paper_spec("fig7-lowered-eager", "imb-alltoall",
                    backends=TABLE_MODES[1:], eager_threshold=LOWERED_EAGER,
                    **axes),
    ))


def figure_sweep(n: int, campaigns: list):
    """Figure ``n`` as a :class:`~repro.bench.harness.Sweep` read from
    its suite's campaign documents."""
    from repro.bench.harness import Sweep

    fig = FIGURES[n]
    sweep = Sweep(title=fig.title, xlabel=fig.xlabel, ylabel=fig.ylabel)
    sizes = campaigns[0]["spec"]["sizes"]
    for label, mode, pair in fig.curves:
        match = {"backend": mode}
        if pair is not None:
            match["pair"] = list(pair)
        series = sweep.new_series(label)
        for size in sizes:
            series.add(size, _metrics(campaigns, size=size, **match)[fig.metric])
    return sweep


def _table1(fast: bool) -> Suite:
    """Table 1: the eight class-B NAS kernels per LMT mode, each timing
    at most 20 iterations (5 when fast) and extrapolating."""
    from repro.bench.nas import BENCHMARKS

    return Suite(specs=(_paper_spec(
        "table1", "nas", backends=TABLE_MODES, benchmarks=tuple(BENCHMARKS),
        reps=5 if fast else 20,
    ),))


def table1_rows(campaigns: list) -> list[tuple[str, dict]]:
    """``(kernel, {mode: seconds})`` per Table 1 row, in row order."""
    kernels = campaigns[0]["spec"]["benchmarks"]
    return [
        (k, {m: _metrics(campaigns, benchmark=k, backend=m)["seconds"]
             for m in TABLE_MODES})
        for k in kernels
    ]


#: Table 2's rows: (label, campaign name, message size; None for IS).
_TABLE2_ROWS = (
    ("64KiB Pingpong", "table2-pingpong", 64 * KiB),
    ("4MiB Pingpong", "table2-pingpong", 4 * MiB),
    ("64KiB Alltoall", "table2-alltoall-64k", 64 * KiB),
    ("4MiB Alltoall", "table2-alltoall-4m", 4 * MiB),
    ("is.B.8", "table2-is", None),
)


def _table2(fast: bool) -> Suite:
    """Table 2: L2 misses.  Pingpongs across dies, 4 repetitions;
    alltoalls over all 8 cores, 2 repetitions, the 64 KiB one with the
    lowered rendezvous switch for every mode; IS over 5 iterations (2
    when fast), extrapolated."""
    return Suite(specs=(
        _paper_spec("table2-pingpong", "imb-pingpong", backends=TABLE_MODES,
                    sizes=(64 * KiB, 4 * MiB), pairs=(REMOTE,), reps=4),
        _paper_spec("table2-alltoall-64k", "imb-alltoall",
                    backends=TABLE_MODES, sizes=(64 * KiB,), procs_per_node=8,
                    reps=2, eager_threshold=LOWERED_EAGER),
        _paper_spec("table2-alltoall-4m", "imb-alltoall",
                    backends=TABLE_MODES, sizes=(4 * MiB,), procs_per_node=8,
                    reps=2),
        _paper_spec("table2-is", "nas", backends=TABLE_MODES,
                    reps=2 if fast else 5),
    ))


def table2_rows(campaigns: list) -> dict[str, dict[str, float]]:
    """Row label -> {mode: L2 misses}: per measured repetition for the
    IMB rows (both ranks or all eight), whole-run for IS."""
    by_name = {c["name"]: c for c in campaigns}
    rows = {}
    for label, name, size in _TABLE2_ROWS:
        campaign = by_name[name]
        per_rep = 1 if size is None else campaign["spec"]["reps"]
        match = {} if size is None else {"size": size}
        rows[label] = {
            mode: _metrics([campaign], backend=mode, **match)["l2_misses"]
            / per_rep
            for mode in TABLE_MODES
        }
    return rows


#: Sec. 3.5's placements: the E5345's shared and unshared pairs, and
#: the 6 MiB-L2 X5460's shared pair.
THRESHOLDS = Suite(specs=tuple(
    _paper_spec(
        f"thresholds-{machine}", "crossover", machines=(machine,),
        pairs=pairs, sizes=tuple(sweep_sizes(256 * KiB, 8 * MiB)), reps=5,
    )
    for machine, pairs in (("xeon_e5345", (SHARED, REMOTE)),
                           ("xeon_x5460", (SHARED,)))
))


def threshold_results(campaigns: list) -> list:
    """One :class:`~repro.core.autotune.CrossoverResult` per crossover
    trial, in trial order."""
    from repro.hw import presets

    out = []
    for t in _trials(campaigns, workload="crossover"):
        cfg, m = t["config"], t["metrics"]
        out.append(CrossoverResult(
            topo_name=getattr(presets, cfg["machine"])().name,
            bindings=tuple(cfg["pair"]),
            shares_cache=m["shares_cache"],
            measured_crossover=m["crossover_bytes"],
            predicted_dmamin=m["predicted_dmamin"],
            sizes=tuple(cfg["sizes"]),
            knem_mib=tuple(m["knem_mib_per_s"]),
            ioat_mib=tuple(m["ioat_mib_per_s"]),
        ))
    return out


# ------------------------------------------------------------------ claims
@dataclass(frozen=True)
class Bound:
    """One measured value against its pass interval ``(lo, hi)`` (None:
    unbounded; ``closed`` includes the ends) and the paper's value."""

    value: float
    lo: Optional[float] = None
    hi: Optional[float] = None
    paper: Optional[float] = None
    closed: bool = False

    @property
    def passed(self) -> bool:
        return self.margin >= 0 if self.closed else self.margin > 0

    @property
    def margin(self) -> float:
        """Signed distance to the nearest bound, over the interval's
        width when two-sided, over the (non-zero) bound when
        one-sided."""
        if self.lo is not None and self.hi is not None:
            return min(self.value - self.lo, self.hi - self.value) / (
                self.hi - self.lo)
        if self.lo is not None:
            return (self.value - self.lo) / abs(self.lo)
        return (self.hi - self.value) / abs(self.hi)


def claim_result(measured: str, *bounds: Bound, unit: str = "x") -> dict:
    """A claim's check entry: pass when every bound holds; the value,
    interval, margin and paper value of the bound nearest to failing.
    With no bound (an exact check) the entry has no margin."""
    entry = {"pass": all(b.passed for b in bounds), "value": None,
             "interval": None, "closed": False, "margin": None,
             "paper": None, "unit": unit, "measured": measured}
    if bounds:
        b = min(bounds, key=lambda b: b.margin)
        entry.update(value=b.value, interval=[b.lo, b.hi], closed=b.closed,
                     margin=b.margin, paper=b.paper)
    return entry


def check_passed(check) -> bool:
    """Whether one ``checks`` entry of a suite document passed."""
    return check["pass"] if isinstance(check, dict) else bool(check)


def _pp(c: list, mode: str, size: int, pair: tuple) -> float:
    return _metrics(c, workload="imb-pingpong", backend=mode, size=size,
                    pair=list(pair))["mib_per_s"]


def _a2a(c: list, mode: str, size: int, eager: Optional[int] = None) -> float:
    return _metrics(c, workload="imb-alltoall", backend=mode, size=size,
                    eager_threshold=eager)["aggregated_mib_per_s"]


def _nas_speedup(c: list, kernel: str) -> float:
    """KNEM + I/OAT's improvement over the default (Table 1's column)."""
    base, fast = (_metrics(c, workload="nas", benchmark=kernel, backend=m)
                  ["seconds"] for m in ("default", "knem-ioat"))
    return base / fast - 1.0


def _ratio(num: float, den: float) -> str:
    return f"{num:.0f} vs {den:.0f} MiB/s ({num / den:.2f}x)"


def _ratio_claim(num: float, den: float, **bound) -> dict:
    return claim_result(_ratio(num, den), Bound(num / den, **bound))


def _c_fig3_splice_vs_writev(c):
    v = _pp(c, "vmsplice", 2 * MiB, SHARED)
    w = _pp(c, "vmsplice-writev", 2 * MiB, SHARED)
    return _ratio_claim(v, w, lo=1.5, paper=2.0)


def _c_fig3_regime_split(c):
    v_s, d_s = (_pp(c, m, 1 * MiB, SHARED) for m in ("vmsplice", "default"))
    v_r, d_r = (_pp(c, m, 1 * MiB, REMOTE) for m in ("vmsplice", "default"))
    return claim_result(
        f"shared {_ratio(v_s, d_s)}; remote {_ratio(v_r, d_r)}",
        Bound(v_s / d_s, hi=1.0), Bound(v_r / d_r, lo=1.0),
    )


def _c_fig4_knem_almost_default(c):
    k, d = (_pp(c, m, 1 * MiB, SHARED) for m in ("knem", "default"))
    return _ratio_claim(k, d, lo=0.9, hi=1.02, closed=True)


def _c_fig5_knem_factor(c):
    k, d = (_pp(c, m, 1 * MiB, REMOTE) for m in ("knem", "default"))
    return _ratio_claim(k, d, lo=2.2, paper=3.0)


def _c_fig5_knem_vs_vmsplice(c):
    k, v = (_pp(c, m, 1 * MiB, REMOTE) for m in ("knem", "vmsplice"))
    return _ratio_claim(k, v, lo=1.3, paper=2.0)


def _c_fig5_ioat_tail(c):
    i, d = (_pp(c, m, 4 * MiB, REMOTE) for m in ("knem-ioat", "default"))
    return _ratio_claim(i, d, lo=2.0, paper=2.5)


def _c_fig6_kthread_competition(c):
    a, s = (_pp(c, m, 1 * MiB, REMOTE) for m in ("knem-async", "knem"))
    return _ratio_claim(a, s, hi=0.75)


def _c_fig6_async_ioat(c):
    a, s = (_pp(c, m, 4 * MiB, REMOTE)
            for m in ("knem-ioat-async", "knem-ioat"))
    return _ratio_claim(a, s, lo=0.93)


def _c_fig7_knem_medium(c):
    k = _a2a(c, "knem", 32 * KiB, LOWERED_EAGER)
    d = _a2a(c, "default", 32 * KiB)
    return _ratio_claim(k, d, lo=1.6, paper=5.0)


def _c_fig7_ioat_tail(c):
    i, d = (_a2a(c, m, 2 * MiB) for m in ("knem-ioat", "default"))
    return _ratio_claim(i, d, lo=1.6, paper=2.0)


def _c_table1_is_speedup(c):
    s = _nas_speedup(c, "is.B.8")
    return claim_result(f"{s * 100:+.1f}%",
                        Bound(s, lo=0.15, hi=0.45, paper=0.258), unit="%")


def _c_table1_ep_insensitive(c):
    s = _nas_speedup(c, "ep.B.4")
    return claim_result(f"{s * 100:+.2f}%",
                        Bound(s, lo=-0.03, hi=0.03, paper=-0.009), unit="%")


def _c_table2_pingpong_misses(c):
    d, k, i = (
        _metrics(c, workload="imb-pingpong", backend=m, size=4 * MiB,
                 pair=list(REMOTE))["l2_misses"]
        for m in ("default", "knem", "knem-ioat")
    )
    measured = f"default {d:.0f} > knem {k:.0f} > ioat {i:.0f}"
    if not d > k > i:  # a zero count leaves the ratios below undefined
        return {**claim_result(measured), "pass": False}
    # The paper's 4 MiB pingpong row: 45k, 14k and 3.7k misses.
    return claim_result(
        measured,
        Bound(k / d, hi=1.0, paper=14e3 / 45e3),
        Bound(i / k, hi=1.0, paper=3.7e3 / 14e3),
    )


def _c_dmamin_formula(c):
    from repro.hw.presets import xeon_e5345, xeon_x5460

    e, x = xeon_e5345(), xeon_x5460()
    ok = (e.dmamin_bytes(2) == 1 * MiB and e.dmamin_bytes(1) == 2 * MiB
          and x.dmamin_bytes(2) == int(1.5 * MiB))
    entry = claim_result(
        f"E5345: {e.dmamin_bytes(2) // MiB}MiB/{e.dmamin_bytes(1) // MiB}MiB, "
        f"X5460: {x.dmamin_bytes(2) / MiB:.1f}MiB"
    )
    return {**entry, "pass": ok}


def _c_threshold_order(c):
    shared, remote = (
        _metrics(c, workload="crossover", pair=list(p))["crossover_bytes"]
        for p in (SHARED, REMOTE)
    )
    measured = f"shared {shared}, remote {remote}"
    if shared is None or remote is None:
        return {**claim_result(measured), "pass": False}
    # The paper measured 1 MiB shared and 2 MiB unshared.
    return claim_result(measured, Bound(remote / shared, lo=1.0, paper=2.0,
                                        closed=True))


#: Claim id -> (paper location, the claim quoted or paraphrased, check).
CLAIMS = {
    "fig3-splice-vs-writev": (
        "Sec. 4.1 / Fig. 3", "vmsplice beats writev up to a factor of 2",
        _c_fig3_splice_vs_writev),
    "fig3-regime-split": (
        "Sec. 4.1 / Fig. 3",
        "vmsplice wins across dies, loses under a shared cache",
        _c_fig3_regime_split),
    "fig4-knem-almost-default": (
        "Sec. 4.2 / Fig. 4",
        "with a shared cache KNEM remains almost as fast as Nemesis",
        _c_fig4_knem_almost_default),
    "fig5-knem-factor": (
        "Sec. 4.2 / Fig. 5",
        "KNEM is more than three times faster than Nemesis (we check >2.2x)",
        _c_fig5_knem_factor),
    "fig5-knem-vs-vmsplice": (
        "Sec. 4.2 / Fig. 5",
        "KNEM is twice as fast as vmsplice (we check >1.3x)",
        _c_fig5_knem_vs_vmsplice),
    "fig5-ioat-tail": (
        "Secs. 4.2/6 / Fig. 5",
        "I/OAT improves very large messages by a factor of 2.5 over "
        "Nemesis (we check >2x)", _c_fig5_ioat_tail),
    "fig6-kthread-competition": (
        "Sec. 4.3 / Fig. 6",
        "kernel-thread offload significantly reduces throughput",
        _c_fig6_kthread_competition),
    "fig6-async-ioat": (
        "Sec. 4.3 / Fig. 6",
        "the I/OAT model is not hurt by the asynchronous mode",
        _c_fig6_async_ioat),
    "fig7-knem-medium": (
        "Sec. 4.4 / Fig. 7",
        "Alltoall: KNEM far ahead of the default near 32 KiB (paper 5x; "
        "we check >1.6x)", _c_fig7_knem_medium),
    "fig7-ioat-tail": (
        "Sec. 4.4 / Fig. 7",
        "Alltoall: twice as high for very large messages thanks to I/OAT "
        "(we check >1.6x)", _c_fig7_ioat_tail),
    "table1-is-speedup": (
        "Sec. 4.5 / Table 1", "IS shows a ~25% speedup with KNEM and I/OAT",
        _c_table1_is_speedup),
    "table1-ep-insensitive": (
        "Sec. 4.5 / Table 1",
        "benchmarks without large messages show insignificant changes",
        _c_table1_ep_insensitive),
    "table2-pingpong-misses": (
        "Sec. 4.5 / Table 2",
        "single-copy strategies avoid cache misses; I/OAT most of all",
        _c_table2_pingpong_misses),
    "dmamin-formula": (
        "Sec. 3.5",
        "DMAmin = cache/(2 x sharers): 1 MiB shared, 2 MiB unshared, "
        "+50% on 6 MiB caches", _c_dmamin_formula),
    "threshold-order": (
        "Sec. 3.5", "the I/OAT threshold jumps when no cache is shared",
        _c_threshold_order),
}


def _pingpongs(name: str, modes: tuple, size: int, pairs: tuple) -> CampaignSpec:
    return _paper_spec(name, "imb-pingpong", backends=modes, sizes=(size,),
                       pairs=pairs, reps=6)


def _alltoalls(name: str, modes: tuple, sizes: tuple, **axes) -> CampaignSpec:
    return _paper_spec(name, "imb-alltoall", backends=modes, sizes=sizes,
                       procs_per_node=8, reps=2, **axes)


#: Exactly the trials the claims read.
CLAIMS_SUITE = Suite(
    specs=(
        _pingpongs("claims-pingpong-2m", ("vmsplice", "vmsplice-writev"),
                   2 * MiB, (SHARED,)),
        _pingpongs("claims-pingpong-1m", ("default", "vmsplice", "knem"),
                   1 * MiB, (SHARED, REMOTE)),
        _pingpongs("claims-pingpong-1m-async", ("knem-async",), 1 * MiB,
                   (REMOTE,)),
        _pingpongs("claims-pingpong-4m",
                   ("default", "knem", "knem-ioat", "knem-ioat-async"),
                   4 * MiB, (REMOTE,)),
        _alltoalls("claims-alltoall-32k-knem", ("knem",), (32 * KiB,),
                   eager_threshold=LOWERED_EAGER),
        _alltoalls("claims-alltoall-default", ("default",),
                   (32 * KiB, 2 * MiB)),
        _alltoalls("claims-alltoall-2m-ioat", ("knem-ioat",), (2 * MiB,)),
        _paper_spec("claims-nas", "nas", backends=("default", "knem-ioat"),
                    benchmarks=("ep.B.4", "is.B.8"), reps=2),
        _paper_spec("claims-threshold-order", "crossover",
                    pairs=(SHARED, REMOTE),
                    sizes=(512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB),
                    reps=3),
    ),
    checks={claim: check for claim, (_, _, check) in CLAIMS.items()},
)


def _artifacts(name: str, build) -> dict[str, Suite]:
    """``name`` and its coarser ``name-fast`` suite."""
    return {name: build(False), f"{name}-fast": build(True)}


SUITES: dict[str, Suite] = {
    "sched": SCHED,
    "nhood": NHOOD,
    "offload": OFFLOAD,
    **{
        suite: figure
        for n in FIGURES
        for suite, figure in _artifacts(
            f"fig{n}",
            _alltoall_figure if n == 7 else partial(_pingpong_figure, n),
        ).items()
    },
    **_artifacts("table1", _table1),
    **_artifacts("table2", _table2),
    "thresholds": THRESHOLDS,
    "claims": CLAIMS_SUITE,
}


# ---------------------------------------------------------------------- run
def _suite(name: str) -> Suite:
    try:
        return SUITES[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown suite {name!r}; pick one of {tuple(SUITES)}"
        ) from None


def check_suite(name: str, campaigns: list) -> dict:
    """Every named predicate of suite ``name`` over ``campaigns``: a
    bool, or a claim's :func:`claim_result` entry.

    A predicate whose trials are missing or failed reads False.
    """
    checks: dict = {}
    for check, predicate in _suite(name).checks.items():
        try:
            result = predicate(campaigns)
        except LookupError:
            result = False
        checks[check] = result if isinstance(result, dict) else bool(result)
    return checks


def run_suite(name: str, cache=None, workers: int = 0) -> dict:
    """Run every spec of suite ``name`` and check the results.

    All the suite's uncached trials share one worker pool
    (:func:`~repro.campaign.executor.run_campaigns`), so ``workers``
    stay busy across its campaigns, and each ``ok`` record is stored
    as it lands.  Returns ``{"kind": "suite", "name", "campaigns",
    "checks"}``, the campaigns in spec order.  The campaign documents
    leave out how each trial was obtained (the ``cached`` flag and the
    executed / cache-hit counts), so a warm rerun writes the same bytes
    as a cold one.
    """
    campaigns = []
    for run in run_campaigns(_suite(name).specs, cache=cache, workers=workers):
        doc = run.document()
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
