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
"""

from __future__ import annotations

from functools import partial
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


def _charge_chunk(
    machine, core: int, nbytes: int, breakdowns, move=None,
    parent=None, span_kind="copy", span_name=None,
):
    """Wait for the CPU / DRAM / FSB work of one chunk, then move data."""
    p = machine.params
    line = CACHE_LINE
    t_hit, t_fsb, t_dram = p.t_l2_hit, p.t_fsb, p.t_dram
    upgrade_weight = p.fsb_upgrade_weight
    access_cpu = 0.0
    dram_bytes = 0
    fsb_bytes = 0
    writeback_lines = 0
    for local_hits, remote_hits, dram_lines, writebacks, upgrades in breakdowns:
        access_cpu += (
            local_hits * line * t_hit
            + remote_hits * line * t_fsb
            + dram_lines * line * t_dram
        )
        dram_bytes += dram_lines * line
        # FSB transactions: cache-to-cache transfers and DRAM fills carry
        # a data phase; ownership upgrades are address-only and cost only
        # a fraction of a slot.
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
            span_name or f"{span_kind}.chunk",
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
        yield join
    else:
        yield machine.cores[core].request(cpu)
    if move is not None:
        move()
    if span is not None:
        obs.end(span, dram=dram_bytes, fsb=fsb_bytes)


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
    copied = 0
    for dv, sv in iter_lockstep(dst_views, src_views, chunk):
        s0, s1 = machine.line_span(sv.phys, sv.nbytes)
        d0, d1 = machine.line_span(dv.phys, dv.nbytes)
        src_bd = machine.coherence.read(core, s0, s1)
        dst_bd = machine.coherence.write(core, d0, d1)
        yield from _charge_chunk(
            machine, core, dv.nbytes, (src_bd, dst_bd),
            partial(copy_payload, dv, sv),
            parent=parent, span_kind="copy", span_name="cpu.copy",
        )
        machine.papi[core].add("BYTES_COPIED", dv.nbytes)
        copied += dv.nbytes
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
    Generator; returns the number of bytes touched.
    """
    _check_chunk(chunk)
    touched = 0
    for view in views:
        offset = 0
        while offset < view.nbytes:
            n = min(chunk, view.nbytes - offset)
            piece = view.sub(offset, n)
            l0, l1 = machine.line_span(piece.phys, piece.nbytes)
            if write:
                bd = machine.coherence.write(core, l0, l1)
            else:
                bd = machine.coherence.read(core, l0, l1)
            # Intensity scales the instruction-stream component only;
            # the memory-side costs come from the breakdown as usual.
            yield from _charge_chunk(
                machine, core, int(n * intensity), (bd,),
                parent=parent, span_kind="compute", span_name="stream.access",
            )
            offset += n
            touched += n
    return touched
