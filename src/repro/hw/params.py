"""Calibrated timing constants for the simulated hardware.

Every constant is expressed per byte or per event, with a provenance
note tying it to a number in the paper (or to well-known Core2-era
microarchitecture figures).  The calibration targets are *shapes*: who
wins in each regime of Figures 3-7, and where the crossovers fall.

All times are seconds; all rates are bytes/second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import GiB, KiB, MiB

__all__ = ["HwParams"]


def _per_byte(rate_bytes_per_s: float) -> float:
    """Seconds per byte at the given streaming rate."""
    return 1.0 / rate_bytes_per_s


@dataclass(frozen=True)
class HwParams:
    """Timing model of an E5345-class SMP node.

    A CPU copy moves each byte through one *read* access and one *write*
    access; per-access cost depends on where the line is found (local
    L2, a remote cache via FSB snoop, or DRAM).  The headline calibration
    identities, matching the paper's plateaus:

    - both streams hot in a shared L2:   1 / (2 * t_l2_hit)   ~ 6.0 GiB/s  (Fig. 4 default peak)
    - source snooped from a remote L2:   1 / (t_fsb + t_l2_hit) ~ 3.7 GiB/s (Fig. 5 KNEM plateau)
    - both streams through DRAM:         1 / (2 * t_dram)     ~ 2.2 GiB/s  (single-copy, very large)
    - double-buffered copy through DRAM: two such copies back-to-back    ~ 1.1 GiB/s (Fig. 4/5 default tail)
    - I/OAT DMA:                         dma_rate             ~ 2.6 GiB/s  (Fig. 4-6 I/OAT tail, "2.5x Nemesis")
    """

    # ---- cache geometry ------------------------------------------------
    cache_line: int = 64
    #: L2 capacity per die; overridden per preset (4 MiB E5345, 6 MiB X5460).
    l2_bytes: int = 4 * MiB

    # ---- per-access costs (per byte moved) -----------------------------
    #: Instruction-stream cap of a memcpy loop (L1-resident ceiling).
    t_instr: float = _per_byte(11.0 * GiB)
    #: L2 hit service, per byte per access.
    t_l2_hit: float = _per_byte(12.0 * GiB)
    #: Cache-to-cache transfer over the FSB (snoop hit), per byte.
    t_fsb: float = _per_byte(5.0 * GiB)
    #: DRAM service, per byte per access (load-miss or RFO fill).
    t_dram: float = _per_byte(4.5 * GiB)

    # ---- shared bandwidth resources ------------------------------------
    #: Aggregate DRAM bandwidth shared by all cores + DMA (the MCH
    #: serves two FSBs; 8-core streaming sustains ~6.4 GiB/s).
    dram_bus_rate: float = 6.4 * GiB
    #: Aggregate FSB data bandwidth for cache-to-cache transfers,
    #: DRAM fills and upgrade transactions.  Calibrated so that one
    #: cache-to-cache stream (KNEM) runs near 3.5 GiB/s while the
    #: double-buffer's two crossings saturate it (Fig. 5 regime split).
    fsb_rate: float = 4.0 * GiB
    #: FSB cost weight of an ownership-upgrade transaction relative to
    #: a full line transfer: upgrades are address-only (no data phase),
    #: so they consume only a snoop/arbitration slot.
    fsb_upgrade_weight: float = 0.125

    # ---- I/OAT DMA engine ----------------------------------------------
    #: Steady-state copy rate of one DMA channel (cache-bypassing).
    dma_rate: float = 2.9 * GiB
    #: Number of independent I/OAT channels.  The paper's host exposes
    #: one usable channel (KNEM 0.5 used a single channel); later
    #: MCH revisions offer four — the ablation benchmarks explore it.
    dma_channels: int = 1
    #: Cost of submitting one descriptor (device doorbell over I/O bus).
    dma_submit: float = 2.0e-6
    #: Largest physically-contiguous chunk per descriptor: one page run.
    dma_max_desc_bytes: int = 64 * KiB
    #: Extra submission cost when a user buffer is not page aligned
    #: ("the I/OAT performance is not very stable because of page
    #: alignment problems", Sec. 4.2).
    dma_misalign_penalty: float = 1.5e-6

    # ---- DSA-style memory-operation engines ------------------------------
    #: Shared-work-queue copy engines per socket (Park et al.'s DSA
    #: shape).  0 = the node has none; every Nehalem-era preset keeps
    #: the default so legacy timing is bit-identical.
    dsa_engines: int = 0
    #: Steady-state copy rate of one DSA engine (cache-bypassing).
    dsa_rate: float = 20.0 * GiB
    #: Cost of one ENQCMD/doorbell into a shared work queue.  A *batch*
    #: descriptor amortizes this: one enqueue covers the whole batch.
    dsa_enqueue: float = 0.3e-6
    #: Largest contiguous chunk per descriptor.
    dsa_max_desc_bytes: int = 2 * MiB
    #: Descriptors per batch descriptor; longer requests pay one
    #: enqueue per ceil(n / dsa_batch_max) batch.
    dsa_batch_max: int = 32
    #: Completion notification: "poll" spins on the completion record
    #: (latency = dsa_poll_period, CPU busy), "interrupt" sleeps and
    #: pays the wakeup latency once (CPU idle).
    dsa_completion: str = "poll"
    #: Completion-record poll period while spinning (the simulated spin
    #: loop coalesces several checks per scheduling quantum).
    dsa_poll_period: float = 0.5e-6
    #: Interrupt delivery + wakeup latency for interrupt completions.
    dsa_interrupt_latency: float = 2.0e-6

    # ---- kernel costs ---------------------------------------------------
    #: One syscall entry+exit ("about 100ns on an Intel Xeon", Sec. 3.1).
    t_syscall: float = 100e-9
    #: Pinning one page (get_user_pages-style walk).
    t_pin_page: float = 100e-9
    #: vmsplice per-chunk VFS bookkeeping (file descriptors, pipe buffer
    #: management — "higher initialization costs due to Virtual File
    #: System requirements", Sec. 4.2).
    t_vfs_chunk: float = 1.8e-6
    #: Cost of attaching one page to a pipe buffer in vmsplice (no copy).
    t_splice_page: float = 120e-9
    #: KNEM per-command overhead (ioctl on the pseudo-char device).
    t_knem_cmd: float = 0.9e-6
    #: Waking the peer process (futex/poll detection latency); higher
    #: across dies because the flag cacheline ping-pongs over the FSB.
    t_wakeup_shared: float = 0.25e-6
    t_wakeup_remote: float = 1.1e-6
    #: Copy-ring cell handoff: the Nemesis LMT polls queue-state flags
    #: in shared memory; across dies the flag and queue cachelines
    #: bounce over the FSB and the poll loop observes them late.
    #: Calibrated against the paper's measured double-buffer pipeline
    #: efficiency (Fig. 5: ~1.2 GiB/s across dies vs ~5.7 GiB/s shared).
    t_handoff_shared: float = 0.3e-6
    t_handoff_remote: float = 10.0e-6
    #: Pipe state synchronization per readv chunk (pipe mutex + wait
    #: queues bounce between dies): "vmsplice involves much more
    #: synchronization between source and destination processes,
    #: causing a large overhead when no cache is shared" (Sec. 4.2).
    t_pipe_sync_shared: float = 2.5e-6
    t_pipe_sync_remote: float = 10.0e-6

    # ---- MPI library costs ----------------------------------------------
    #: Per-message software overhead of the Nemesis queues.
    t_mpi_overhead: float = 0.4e-6
    #: Nemesis eager cell payload: eager messages are chunked into
    #: cacheline-queue cells of this size, each paying a queue
    #: enqueue/dequeue cost on both sides.
    eager_cell_bytes: int = 4 * KiB
    #: Per-cell queue operation cost (enqueue or dequeue: lock-free
    #: queue update + flag cacheline management).
    t_cell_op: float = 1.2e-6
    #: Receiver progress-poll period: an asynchronous completion is
    #: noticed at worst this much late.
    t_poll_period: float = 0.5e-6

    # ---- protocol constants ---------------------------------------------
    #: Nemesis copy-buffer cell size for the double-buffering LMT.
    shm_chunk: int = 16 * KiB
    #: Number of cells in the shared copy ring.
    shm_cells: int = 2
    #: Kernel pipe capacity: PIPE_BUFFERS(16) x 4 KiB pages (Sec. 3.1).
    pipe_capacity: int = 64 * KiB
    #: KNEM kernel-copy chunking (progress/pollability granularity).
    knem_chunk: int = 64 * KiB
    #: Eager/rendezvous switch in Nemesis ("the LMT is enabled when the
    #: message size passes 64 KiB").
    lmt_threshold: int = 64 * KiB

    def copy_rate_dram(self) -> float:
        """Steady single-copy rate through DRAM (bytes/s)."""
        return 1.0 / (2.0 * self.t_dram)

    def scaled(self, **overrides: float) -> "HwParams":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)
