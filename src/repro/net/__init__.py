"""The simulated internode fabric (cluster-scale layer).

The paper's evaluation is intranode; this subpackage grows the
reproduction toward the ROADMAP's cluster-scale target by adding the
layer the Sec. 6 discussion points at: an internode fabric the LMT
backends compose with.  The design deliberately mirrors the intranode
hardware model —

- :mod:`~repro.net.nic` — per-node NICs with in-order descriptor
  queues and completion events, the same pattern as
  :class:`repro.hw.dma.DmaEngine`;
- :mod:`~repro.net.switch` — a crossbar with a configurable per-port
  contention model (output-queued, shared-bus, or ideal);
- :mod:`~repro.net.protocol` — the wire protocol: eager sends through
  bounce buffers below a threshold, RTS/CTS rendezvous with RDMA
  writes above it;
- :mod:`~repro.net.lmt` — the rendezvous protocol packaged as an
  :class:`~repro.core.lmt.LmtBackend`, so internode transfers ride the
  exact same communicator code path as the intranode LMTs;
- :mod:`~repro.net.fabric` / :mod:`~repro.net.cluster` — parameters,
  cluster specs, and the ``Cluster`` wrapper around N ``Machine``\\ s.

``repro.mpi.cluster.run_cluster`` builds on all of it.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.net.cluster": ("Cluster",),
    "repro.net.fabric": ("ClusterSpec", "Fabric", "FabricParams"),
    "repro.net.lmt": ("NicRdmaLmt", "NicStagedLmt"),
    "repro.net.nic": ("NetDescriptor", "Nic", "NicRequest"),
    "repro.net.protocol": ("NetEagerPacket",),
    "repro.net.switch": ("Switch",),
})

__all__ = [
    "Cluster",
    "ClusterSpec",
    "Fabric",
    "FabricParams",
    "NetDescriptor",
    "Nic",
    "NicRdmaLmt",
    "NicRequest",
    "NicStagedLmt",
    "NetEagerPacket",
    "Switch",
]
