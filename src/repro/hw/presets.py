"""The paper's evaluation hosts, as topology presets.

Sec. 4: "Most experiments were run on a dual-socket quad-core Intel
Xeon E5345 (2.33 GHz).  Each processor has two 4 MiB L2 caches shared
between a pair of cores.  We also ran experiments on other hosts, such
as a single-socket quad-core Xeon X5460 (3.16 GHz) with two 6 MiB L2
caches, and observed similar behavior."

``nehalem8`` models the paper's forward-looking discussion (Sec. 6):
an 8-core part with one large cache shared by all cores, used by the
NUMA/affinity extension experiments.
"""

from __future__ import annotations

from repro.hw.params import HwParams
from repro.hw.topology import TopologySpec
from repro.units import GiB, MiB

__all__ = [
    "xeon_e5345",
    "xeon_x5460",
    "nehalem8",
    "modern_server",
    "cluster_of",
]


def xeon_e5345(params: HwParams | None = None) -> TopologySpec:
    """Dual-socket quad-core 2.33 GHz; 4 MiB L2 per core pair (8 cores)."""
    return TopologySpec(
        name="xeon-e5345",
        sockets=2,
        dies_per_socket=2,
        cores_per_die=2,
        params=params or HwParams(l2_bytes=4 * MiB),
    )


def xeon_x5460(params: HwParams | None = None) -> TopologySpec:
    """Single-socket quad-core 3.16 GHz; 6 MiB L2 per core pair.

    The higher clock scales the cache-hit and instruction tiers by the
    frequency ratio; DRAM and DMA rates are board-level and unchanged.
    """
    if params is None:
        base = HwParams()
        ratio = 3.16 / 2.33
        params = base.scaled(
            l2_bytes=6 * MiB,
            t_instr=base.t_instr / ratio,
            t_l2_hit=base.t_l2_hit / ratio,
        )
    return TopologySpec(
        name="xeon-x5460",
        sockets=1,
        dies_per_socket=2,
        cores_per_die=2,
        params=params,
    )


def nehalem8(params: HwParams | None = None) -> TopologySpec:
    """A Nehalem-style 8-core host with one 8 MiB cache shared by all
    cores of a socket (the Sec. 6 'upcoming processors' scenario)."""
    return TopologySpec(
        name="nehalem-8c",
        sockets=1,
        dies_per_socket=1,
        cores_per_die=8,
        params=params or HwParams(l2_bytes=8 * MiB),
    )


def modern_server(params: HwParams | None = None) -> TopologySpec:
    """A modern-generation server socket for the re-derived DMAmin story:
    16 cores sharing one 32 MiB LLC, DDR5-class bandwidth, and DSA-style
    memory-operation engines (see :mod:`repro.hw.dma`).

    Calibration identities, same style as the E5345 docstring:

    - cache-hot CPU copy:       1 / (2 * t_l2_hit)  ~ 24 GiB/s
    - single copy through DRAM: 1 / (2 * t_dram)    ~  9 GiB/s
    - DSA engine copy:          dsa_rate            ~ 20 GiB/s

    The engine sits *between* the hot-cache and DRAM-bound CPU rates, so
    the crossover logic of the paper survives a fifteen-year hardware
    generation: CPU copy still wins while the working set is
    cache-resident, offload still wins once it is not — but the larger
    LLC pushes DMAmin from ~1 MiB up into the multi-MiB range.
    """
    if params is None:
        params = HwParams(
            l2_bytes=32 * MiB,
            # Per-access costs: DDR5-class core and memory speeds.
            t_instr=1.0 / (44.0 * GiB),
            t_l2_hit=1.0 / (48.0 * GiB),
            t_fsb=1.0 / (20.0 * GiB),
            t_dram=1.0 / (18.0 * GiB),
            dram_bus_rate=48.0 * GiB,
            fsb_rate=32.0 * GiB,
            # The chipset DMA engine grew up too (I/OAT successor).
            dma_rate=6.0 * GiB,
            dma_channels=4,
            # DSA-style engines: one shared-work-queue engine per socket.
            dsa_engines=1,
            dsa_rate=20.0 * GiB,
            # Modern kernels enter/exit faster than the 2009 figure.
            t_syscall=60e-9,
            t_pin_page=80e-9,
        )
    return TopologySpec(
        name="modern-server",
        sockets=1,
        dies_per_socket=1,
        cores_per_die=16,
        params=params,
    )


def cluster_of(topo: TopologySpec, nnodes: int, fabric=None) -> "ClusterSpec":
    """``nnodes`` identical ``topo`` hosts joined by one fabric.

    Example::

        from repro import cluster_of, run_cluster, xeon_e5345
        from repro.units import MiB

        spec = cluster_of(xeon_e5345(), nnodes=2)

        def main(ctx):
            comm = ctx.comm
            buf = ctx.alloc(1 * MiB)
            if ctx.rank == 0:
                yield comm.Send(buf, dest=comm.size - 1)   # crosses the wire
            elif ctx.rank == comm.size - 1:
                status = yield comm.Recv(buf, source=0)
                assert status.path == "nic+rdma"

        result = run_cluster(spec, procs_per_node=4, main=main)

    ``fabric`` overrides the default :class:`~repro.net.fabric.FabricParams`
    (e.g. ``FabricParams().scaled(link_rate=5 * GiB)``).
    """
    from repro.net.fabric import ClusterSpec, FabricParams

    return ClusterSpec(
        node=topo, nnodes=nnodes, fabric=fabric or FabricParams()
    )
