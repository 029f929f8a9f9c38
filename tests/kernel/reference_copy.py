"""The CPU copy primitive as a nested generator: the reference for it.

Each chunk delegates to a ``_charge_chunk`` sub-generator and moves its
payload through a ``functools.partial``, and every piece comes from
``iter_lockstep``, as :mod:`repro.kernel.copy` did before its chunks ran
in one frame.  ``tests/kernel/test_copy_reference.py`` runs both on twin
machines and compares returns, simulated time, PAPI counters, spans and
payload bytes.
"""

from functools import partial

from repro.kernel.address_space import copy_payload
from repro.kernel.copy import DEFAULT_CHUNK, iter_lockstep
from repro.sim.events import Join
from repro.units import CACHE_LINE


def _charge_chunk(
    machine, core, nbytes, breakdowns, move=None,
    parent=None, span_kind="copy", span_name=None,
):
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
        fsb_bytes += (remote_hits + dram_lines + upgrades * upgrade_weight) * line
        writeback_lines += writebacks
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


def cpu_copy(machine, core, dst_views, src_views, chunk=DEFAULT_CHUNK, parent=None):
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
    machine, core, views, write=False, intensity=1.0, chunk=DEFAULT_CHUNK, parent=None,
):
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
            yield from _charge_chunk(
                machine, core, int(n * intensity), (bd,),
                parent=parent, span_kind="compute", span_name="stream.access",
            )
            offset += n
            touched += n
    return touched
