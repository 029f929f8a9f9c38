"""Per-core activity timelines from obs spans.

Run any simulation with ``obs=ObsConfig(spans=True)``, then render what
each core and the DMA engine were doing over time::

    result = run_mpi(topo, 2, main, bindings=[0, 4],
                     mode="knem-ioat", obs=ObsConfig(spans=True))
    print(render_timeline(result.obs.spans, ncores=topo.ncores))

Lanes show ``#`` where a CPU copy or compute chunk was in flight
(``copy``/``compute`` spans on track ``core{N}``), the DMA lane shows
``=`` during device transfers (``dma``-kind spans), and (for cluster
runs) one lane per NIC shows ``~`` while frames are on the wire
(``wire`` spans on track ``nic{N}.tx``) — the visual version of the
paper's Fig. 2 (asynchronous transfer with I/OAT copy offload): the
core lanes go quiet while the DMA lane fills.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from repro.errors import BenchmarkError
from repro.obs.spans import Span

__all__ = ["render_timeline", "core_busy_fraction"]

_CORE_TRACK = re.compile(r"core(\d+)$")
_NIC_TX_TRACK = re.compile(r"nic(\d+)\.tx$")


def _lanes(spans: Iterable[Span]):
    """Closed timed spans by lane, plus the window they cover:
    ``(cores, dma, nics, lo, hi)``, where ``cores``/``nics`` map a
    core/node number to its ``(start, end)`` intervals and ``dma``
    lists the DMA intervals."""
    cores: dict[int, list] = {}
    dma: list = []
    nics: dict[int, list] = {}
    for s in spans:
        if s.end is None:
            continue
        if s.kind in ("copy", "compute"):
            m = _CORE_TRACK.match(s.track)
            if m:
                cores.setdefault(int(m.group(1)), []).append((s.start, s.end))
        elif s.kind == "dma":
            dma.append((s.start, s.end))
        elif s.kind == "wire":
            m = _NIC_TX_TRACK.match(s.track)
            if m:
                nics.setdefault(int(m.group(1)), []).append((s.start, s.end))
    intervals = [iv for ivs in (*cores.values(), dma, *nics.values()) for iv in ivs]
    if not intervals:
        raise BenchmarkError(
            "no copy/dma/wire spans; run with obs=ObsConfig(spans=True)"
        )
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    return cores, dma, nics, lo, hi


def render_timeline(
    spans: Iterable[Span],
    ncores: int,
    width: int = 72,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> str:
    """ASCII lanes: one per core, one for the DMA engine, and one per
    NIC that put frames on the wire (auto-detected from the spans)."""
    cores, dma, nics, lo, hi = _lanes(spans)
    t0 = lo if t0 is None else t0
    t1 = hi if t1 is None else t1
    span = max(t1 - t0, 1e-12)

    def paint(intervals, mark: str) -> str:
        lane = [" "] * width
        for start, end in intervals:
            a = int((start - t0) / span * (width - 1))
            b = int((end - t0) / span * (width - 1))
            a = min(max(a, 0), width - 1)
            b = min(max(b, a), width - 1)
            lane[a : b + 1] = mark * (b + 1 - a)
        return "".join(lane)

    lines = [f"timeline [{t0 * 1e6:.1f}us .. {t1 * 1e6:.1f}us]"]
    for core in range(ncores):
        lines.append(f"core{core:<3d}|" + paint(cores.get(core, ()), "#"))
    lines.append("dma    |" + paint(dma, "="))
    for node in sorted(nics):
        lines.append(f"nic{node:<4d}|" + paint(nics[node], "~"))
    lines.append("       " + "-" * width)
    legend = "       # cpu copy   = dma transfer"
    if nics:
        legend += "   ~ nic wire"
    lines.append(legend)
    return "\n".join(lines)


def core_busy_fraction(spans: Iterable[Span], core: int) -> float:
    """Fraction of the timeline window this core spent copying or
    computing: the union of its intervals, so concurrent chunks (a
    ``Sendrecv`` copying both ways at once) count once."""
    cores, _dma, _nics, lo, hi = _lanes(spans)
    busy = 0.0
    covered = lo
    for start, end in sorted(cores.get(core, ())):
        if end > covered:
            busy += end - max(start, covered)
            covered = end
    return busy / max(hi - lo, 1e-12)
