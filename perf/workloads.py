"""The benchmark's workloads, driven through repro's public entry points.

Each workload is a list of operations.  An operation runs public calls
and returns their simulated outputs as exact ``repr`` strings under
the keys of ``golden.json``; the harness compares them there, so any
change that moves a simulated number, or drops one, fails the
operation.  The campaign operations also raise :class:`Mismatch` when
a pass disagrees with an earlier one.

Why each workload exists is recorded in ``README.md`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.bench.imb as imb
import repro.bench.nas as nas
import repro.campaign as campaign
from repro.core.policy import LmtConfig
from repro.hw.presets import xeon_e5345
from repro.units import KiB, MiB

NAMES = ("p2p", "alltoall", "nas-is", "campaign")

GOLDEN = Path(__file__).resolve().parent / "golden.json"

P2P_MODES = ("default", "vmsplice", "knem", "knem-async", "knem-ioat")
P2P_SIZES = (4 * KiB, 64 * KiB, 1 * MiB, 4 * MiB)
#: Shared-L2 and cross-die core pairs.
P2P_PAIRS = ((0, 1), (0, 4))
#: Fewer round trips than IMB's default 2 + 6, so a run fits several rounds.
P2P_WARMUP, P2P_REPS = 1, 2

A2A_MODES = ("default", "knem", "knem-ioat")
#: Straddles the ~200 KiB I/OAT crossover of 8 concurrent streams.
A2A_BLOCKS = (32 * KiB, 128 * KiB, 256 * KiB)
A2A_REPS = 1
#: Fig. 7 lowers the rendezvous switch for the single-copy modes.
A2A_EAGER = 2 * KiB

#: Class A: the working sets still overflow the shared L2 several
#: times over, at a quarter of class B's host time and memory.
NAS_CLASS = "A"
#: One iteration keeps the default-mode op near a second of host time.
NAS_ITERATIONS = 1

CAMPAIGN_BACKENDS = ("default", "vmsplice", "knem", "knem-ioat")
CAMPAIGN_SIZES = (4 * KiB, 16 * KiB, 64 * KiB)
#: Noise seeds are drawn from this pool, so golden.json covers every
#: trial any benchmark seed can produce.
CAMPAIGN_SEED_POOL = 32
CAMPAIGN_SEEDS = 12
#: Warm resumes per resume operation.
RESUMES = 20


class Mismatch(Exception):
    """A pass disagrees with an earlier pass of the same run."""


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns ``{golden key: [repr, ...]}``
    with exactly the keys ``keys``."""

    name: str
    run: Callable[[], dict]
    keys: tuple[str, ...]


class Workload:
    """The operations of one workload plus any state they share.

    ``first`` is the op that warms a process up and that the set-up
    probes run: the cheapest one that leaves every other op ready.
    """

    def __init__(self, ops: list[Op], first: Op, close: Callable[[], None] = lambda: None):
        self.ops = ops
        self.first = first
        self.close = close


def noise_seeds(seed: int) -> tuple[int, ...]:
    """The campaign's noise-seed axis for benchmark seed ``seed``."""
    return tuple(sorted(random.Random(seed).sample(range(CAMPAIGN_SEED_POOL), CAMPAIGN_SEEDS)))


def campaign_spec(seeds) -> "campaign.CampaignSpec":
    return campaign.CampaignSpec(
        name="perf",
        backends=CAMPAIGN_BACKENDS,
        sizes=CAMPAIGN_SIZES,
        pairs=P2P_PAIRS,
        seeds=tuple(seeds),
        reps=1,
        noise_sigma=0.02,
    )


def trial_key(config: dict) -> str:
    return f"trial/{config['backend']}/{config['size']}/{config['pair'][0]}-{config['pair'][1]}/{config['seed']}"


def trial_outputs(records: list[dict]) -> dict:
    """Golden entries of a campaign's trial records."""
    out = {}
    for record in records:
        if record["status"] != "ok":
            raise Mismatch(f"trial {record['hash'][:12]} failed: {record['error']}")
        out[trial_key(record["config"])] = [
            repr(record["metrics"]["one_way_seconds"]), repr(record["metrics"]["elapsed"])
        ]
    return out


# ------------------------------------------------------------- workloads
def _p2p() -> Workload:
    topo = xeon_e5345()

    def op(mode, pair):
        """One IMB PingPong sweep over the message sizes, like IMB runs it."""
        keys = tuple(f"pingpong/{mode}/{size}/{pair[0]}-{pair[1]}" for size in P2P_SIZES)

        def run():
            out = {}
            for key, size in zip(keys, P2P_SIZES):
                r = imb.imb_pingpong(
                    topo, size, mode=mode, bindings=pair, warmup=P2P_WARMUP, repetitions=P2P_REPS
                )
                out[key] = [repr(r.one_way_seconds), repr(r.l2_misses)]
            return out

        return Op(f"pingpong/{mode}/{pair[0]}-{pair[1]}", run, keys)

    ops = [op(mode, pair) for mode, pair in itertools.product(P2P_MODES, P2P_PAIRS)]
    return Workload(ops, first=ops[-1])  # knem-ioat, cross-die: the cheapest sweep


def _alltoall() -> Workload:
    topo = xeon_e5345()

    def op(mode, block):
        key = f"alltoall/{mode}/{block}"
        config = None if mode == "default" else LmtConfig(mode=mode, eager_threshold=A2A_EAGER)

        def run():
            r = imb.imb_alltoall(topo, block, mode=mode, repetitions=A2A_REPS, config=config)
            return {key: [repr(r.seconds_per_op), repr(r.l2_misses)]}

        return Op(key, run, (key,))

    ops = [op(m, b) for m, b in itertools.product(A2A_MODES, A2A_BLOCKS)]
    return Workload(ops, first=ops[-len(A2A_BLOCKS)])  # knem-ioat, smallest block


def _nas_is() -> Workload:
    topo = xeon_e5345()
    spec = nas.get_spec("is", NAS_CLASS)

    def op(mode):
        key = f"nas/{spec.label}/{mode}/{NAS_ITERATIONS}"

        def run():
            r = nas.run_nas(spec, topo, mode=mode, iterations=NAS_ITERATIONS)
            return {key: [repr(r.seconds), repr(r.l2_misses)]}

        return Op(key, run, (key,))

    # knem-ioat runs about three times faster than the default mode.
    ops = [op("default"), op("knem-ioat")]
    return Workload(ops, first=ops[1])


class _Campaign:
    """A seeded pingpong campaign over sqlite stores under ``tmp``.

    Each cold pass executes every trial into a fresh store and leaves
    that store for the warm resumes that follow it.
    """

    def __init__(self, seed: int, tmp: Path) -> None:
        self.spec = campaign_spec(noise_seeds(seed))
        self.keys = tuple(trial_key(t.config) for t in self.spec.trials())
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)
        self.stores = itertools.count()
        self.aggregates = None
        self.cache = None
        self.path = None

    def _agree(self, records: list[dict]) -> None:
        aggregates = campaign.aggregate(records)
        if self.aggregates is None:
            self.aggregates = aggregates
        elif aggregates != self.aggregates:
            raise Mismatch("campaign aggregates differ from an earlier pass")

    def _drop_store(self) -> None:
        if self.cache is not None:
            self.cache.close()
            for leftover in self.tmp.glob(f"{self.path.name}*"):
                leftover.unlink()
        self.cache = self.path = None

    def cold(self) -> dict:
        """Every trial executed serially into a fresh store."""
        self._drop_store()
        self.path = self.tmp / f"cold{next(self.stores)}.db"
        self.cache = campaign.ResultCache.open(f"sqlite:{self.path}")
        run = campaign.run_campaign(self.spec, cache=self.cache)
        if run.executed != len(run.records):
            raise Mismatch(f"fresh store served {run.cache_hits} trials")
        self._agree(run.records)
        return trial_outputs(run.records)

    def warm(self) -> dict:
        """Serial resumes served entirely from the last cold pass's store,
        then document()."""
        if self.cache is None:
            raise Mismatch("no cold pass has filled a store to resume from")
        for _ in range(RESUMES):
            run = campaign.run_campaign(self.spec, cache=self.cache)
            if run.cache_hits != len(run.records):
                raise Mismatch(f"resume hit {run.cache_hits}/{len(run.records)} trials")
        document = run.document()
        if document["aggregates"] != self.aggregates:
            raise Mismatch("resumed aggregates differ from the cold pass")
        return trial_outputs(document["trials"])

    def close(self) -> None:
        self._drop_store()
        shutil.rmtree(self.tmp, ignore_errors=True)


def build(name: str, seed: int, tmp: Path | None) -> Workload:
    """The workload ``name`` with its inputs built (untimed set-up).

    ``tmp`` is a private directory for the campaign stores (unused by
    the other workloads); the caller must call :meth:`Workload.close`
    to remove it.
    """
    if name == "p2p":
        return _p2p()
    if name == "alltoall":
        return _alltoall()
    if name == "nas-is":
        return _nas_is()
    if name == "campaign":
        c = _Campaign(seed, tmp)
        cold = Op("campaign/cold", c.cold, c.keys)
        return Workload([cold, Op("campaign/resume", c.warm, c.keys)], first=cold, close=c.close)
    raise ValueError(f"unknown workload {name!r}; pick from {NAMES}")


def check(outputs: dict, golden: dict, keys: tuple[str, ...]) -> list[str]:
    """Keys whose outputs differ from (or are missing in) ``golden``, or
    that are missing from or extra to ``keys``."""
    wrong = [key for key, value in outputs.items() if golden.get(key) != value]
    return wrong + sorted(set(keys).symmetric_difference(outputs))
