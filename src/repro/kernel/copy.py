"""The timed, cache-accurate CPU copy primitive.

Every CPU-driven transfer in the reproduction — the double-buffering
LMT, pipe ``writev``/``readv``, KNEM's synchronous and kernel-thread
copies, eager cells — funnels through :func:`cpu_copy`.  For each chunk
it:

1. streams the **source** through the coherence domain (read),
2. streams the **destination** (write-allocate),
3. converts the hit/miss breakdowns into CPU time, DRAM-bus bytes and
   FSB bytes, waits for all three resources concurrently on one
   :class:`~repro.sim.events.Join` (memory-level parallelism: the copy
   loop overlaps outstanding misses),
4. moves the real payload bytes (:func:`copy_payload`: a copy of
   untouched, all-zero memory moves none).

:func:`stream_access` is the computation-side sibling: it models an
application phase scanning a working set (no data copied, optional
extra arithmetic per byte).  NAS compute phases use it, which is how
communication-induced cache pollution slows application code — the
paper's IS mechanism.

Both run every chunk in their own generator frame: :func:`_start_chunk`
is a plain function that charges the chunk, starts its work and hands
back the one waitable to yield, and the caller then moves the payload
and closes the span.  A copy of one view a side that fits one chunk
(every Nemesis cell copy) is its own piece and skips
:func:`iter_lockstep`.  The coherence domain, the core and the memory
system are still entered through their methods, which is where
``perf/layertrace.py`` counts them.
"""

from __future__ import annotations

from math import inf
from typing import Iterator, Sequence

from repro.errors import KernelError
from repro.kernel.address_space import BufferView, copy_payload
from repro.sim.events import Join
from repro.units import CACHE_LINE, KiB

__all__ = ["cpu_copy", "stream_access", "iter_lockstep"]

#: Default interleaving granularity: cache state and resource usage are
#: updated at this grain so concurrent activities contend realistically.
DEFAULT_CHUNK = 64 * KiB


def _check_chunk(chunk: int) -> None:
    # A chunk of zero bytes would never advance the walk.
    if chunk <= 0:
        raise KernelError(f"copy chunk must be positive, got {chunk}")


def iter_lockstep(
    dst_views: Sequence[BufferView],
    src_views: Sequence[BufferView],
    chunk: int,
) -> Iterator[tuple[BufferView, BufferView]]:
    """Walk two iovec lists in lockstep, yielding equal-length pieces of
    at most ``chunk`` bytes."""
    _check_chunk(chunk)
    di = si = 0
    doff = soff = 0
    while di < len(dst_views) and si < len(src_views):
        dv, sv = dst_views[di], src_views[si]
        n = min(dv.nbytes - doff, sv.nbytes - soff, chunk)
        if n > 0:
            yield dv.sub(doff, n), sv.sub(soff, n)
            doff += n
            soff += n
        if doff >= dv.nbytes:
            di += 1
            doff = 0
        if soff >= sv.nbytes:
            si += 1
            soff = 0


def _start_chunk(machine, core, nbytes, src, dst, parent, span_kind, span_name):
    """Charge one chunk and start its CPU, DRAM and FSB work.

    ``src`` and ``dst`` are the chunk's stream breakdowns (``dst`` is
    ``None`` for a scan).  Returns ``(waitable, span, dram_bytes,
    fsb_bytes)``: the caller yields the waitable, then moves the payload
    and ends the span (``None`` when spans are off).
    """
    p = machine.params
    line = CACHE_LINE
    t_hit, t_fsb, t_dram = p.t_l2_hit, p.t_fsb, p.t_dram
    upgrade_weight = p.fsb_upgrade_weight
    local_hits, remote_hits, dram_lines, writeback_lines, upgrades = src
    access_cpu = (
        local_hits * line * t_hit
        + remote_hits * line * t_fsb
        + dram_lines * line * t_dram
    )
    dram_bytes = dram_lines * line
    # FSB transactions: cache-to-cache transfers and DRAM fills carry
    # a data phase; ownership upgrades are address-only and cost only
    # a fraction of a slot.
    fsb_bytes = (remote_hits + dram_lines + upgrades * upgrade_weight) * line
    if dst is not None:
        local_hits, remote_hits, dram_lines, writebacks, upgrades = dst
        access_cpu += (
            local_hits * line * t_hit
            + remote_hits * line * t_fsb
            + dram_lines * line * t_dram
        )
        dram_bytes += dram_lines * line
        fsb_bytes += (remote_hits + dram_lines + upgrades * upgrade_weight) * line
        writeback_lines += writebacks
    # A streaming copy loop overlaps its instruction stream with its
    # outstanding memory accesses (prefetch + OoO): the core is busy for
    # whichever is longer, not their sum.
    cpu = max(nbytes * p.t_instr, access_cpu)
    if writeback_lines:
        machine.memory.charge_writebacks(writeback_lines * CACHE_LINE)
    machine.papi[core].add("CPU_BUSY", cpu)

    obs = machine.engine.obs
    span = None
    if obs.enabled:
        span = obs.begin(
            span_name,
            kind=span_kind,
            track=f"core{core}",
            parent=parent,
            nbytes=nbytes,
        )
    if dram_bytes or fsb_bytes:
        memory = machine.memory
        join = Join(machine.engine, 1 + (dram_bytes > 0) + (fsb_bytes > 0))
        machine.cores[core].request(cpu, join)
        if dram_bytes:
            memory.dram_transfer(dram_bytes, join)
        if fsb_bytes:
            memory.fsb_transfer(fsb_bytes, join)
        return join, span, dram_bytes, fsb_bytes
    return machine.cores[core].request(cpu), span, dram_bytes, fsb_bytes


def cpu_copy(
    machine,
    core: int,
    dst_views: Sequence[BufferView],
    src_views: Sequence[BufferView],
    chunk: int = DEFAULT_CHUNK,
    parent=None,
):
    """Copy ``src_views`` into ``dst_views`` on ``core``.

    Generator; returns the number of bytes copied.  The views' total
    sizes need not match — the copy stops at the shorter of the two.
    ``parent`` links the emitted ``copy`` spans into a causal tree.
    """
    pieces = None
    if len(dst_views) == 1 and len(src_views) == 1:
        # One view a side that fits one chunk (a Nemesis cell's copy):
        # it is its own piece.  A non-positive chunk never fits, so
        # iter_lockstep still rejects it.
        dv, sv = dst_views[0], src_views[0]
        if 0 < dv.nbytes == sv.nbytes <= chunk:
            pieces = ((dv, sv),)
    if pieces is None:
        pieces = iter_lockstep(dst_views, src_views, chunk)
    coherence = machine.coherence
    line = CACHE_LINE
    copied = 0
    for dv, sv in pieces:
        n = dv.nbytes
        s = sv.buffer.phys + sv.offset
        d = dv.buffer.phys + dv.offset
        src_bd = coherence.read(core, s // line, -(-(s + n) // line))
        dst_bd = coherence.write(core, d // line, -(-(d + n) // line))
        wait, span, dram, fsb = _start_chunk(
            machine, core, n, src_bd, dst_bd, parent, "copy", "cpu.copy"
        )
        yield wait
        copy_payload(dv, sv)
        if span is not None:
            machine.engine.obs.end(span, dram=dram, fsb=fsb)
        machine.papi[core].add("BYTES_COPIED", n)
        copied += n
    return copied


def stream_access(
    machine,
    core: int,
    views: Sequence[BufferView],
    write: bool = False,
    intensity: float = 1.0,
    chunk: int = DEFAULT_CHUNK,
    parent=None,
):
    """Model a compute phase scanning ``views`` on ``core``.

    ``intensity`` multiplies the per-byte instruction cost (1.0 is a
    pure streaming scan; higher values model arithmetic per element).
    It must be finite and non-negative.  Generator; returns the number
    of bytes touched.
    """
    _check_chunk(chunk)
    if not 0 <= intensity < inf:
        raise KernelError(
            f"stream intensity must be finite and non-negative, got {intensity}"
        )
    coherence = machine.coherence
    line = CACHE_LINE
    touched = 0
    for view in views:
        nbytes = view.nbytes
        base = view.buffer.phys + view.offset
        offset = 0
        while offset < nbytes:
            n = min(chunk, nbytes - offset)
            a = base + offset
            l0, l1 = a // line, -(-(a + n) // line)
            if write:
                bd = coherence.write(core, l0, l1)
            else:
                bd = coherence.read(core, l0, l1)
            # Intensity scales the instruction-stream component only;
            # the memory-side costs come from the breakdown as usual.
            wait, span, dram, fsb = _start_chunk(
                machine, core, int(n * intensity), bd, None,
                parent, "compute", "stream.access",
            )
            yield wait
            if span is not None:
                machine.engine.obs.end(span, dram=dram, fsb=fsb)
            offset += n
            touched += n
    return touched
