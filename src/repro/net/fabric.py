"""Fabric parameters, cluster specs, and the assembled fabric.

The timing model is deliberately simple — a full-duplex host link into
a single crossbar switch — but each stage is a real simulated resource,
so contention shapes (incast at one port, shared-bus saturation,
pipeline overlap of NIC descriptors) emerge rather than being asserted.

A message crosses, in order:

1. sender CPU: doorbell write posting the work request;
2. sender NIC TX: per-descriptor wire serialization at ``link_rate``
   overlapped with the DMA read from host DRAM;
3. host->switch propagation (``link_latency``) + forwarding decision
   (``switch_latency``);
4. switch egress: the contention model (see :mod:`repro.net.switch`);
5. switch->host propagation (``link_latency``);
6. receiver NIC RX: DMA write into host DRAM, then completion
   (``t_completion`` models the CQE poll/interrupt path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.hw.topology import TopologySpec
from repro.units import GiB, KiB

__all__ = ["FabricParams", "ClusterSpec", "Fabric"]

_CONTENTION_MODES = ("output", "bus", "ideal")


@dataclass(frozen=True)
class FabricParams:
    """Tunable knobs of the internode fabric.

    Defaults model a 10 Gb-class fabric of the paper's era: per-link
    bandwidth well below the intranode copy rates, and end-to-end
    small-message latency several times the intranode wakeup path.
    """

    #: Per-direction host-link bandwidth (wire serialization rate).
    link_rate: float = 1.25 * GiB
    #: Switch egress-port drain rate (usually matches the link).
    port_rate: float = 1.25 * GiB
    #: One-hop propagation + PHY/driver latency (host<->switch).
    link_latency: float = 2.2e-6
    #: Head-of-packet forwarding decision inside the switch.
    switch_latency: float = 0.4e-6
    #: Egress contention model: "output" (per-port FIFO), "bus" (one
    #: shared FIFO for the whole switch), or "ideal" (latency only).
    contention: str = "output"

    #: Largest wire segment per NIC descriptor (NIC-side MTU batching).
    nic_max_desc_bytes: int = 32 * KiB
    #: CPU cost of posting one work request (doorbell over PCIe).
    t_doorbell: float = 0.8e-6
    #: Delay between last-byte landing and the consumer noticing the
    #: completion entry (CQ poll / interrupt coalescing).
    t_completion: float = 1.0e-6
    #: Registering (pinning + NIC translation entry) one page.
    t_reg_page: float = 0.35e-6
    #: Wire size of a control packet (RTS/CTS/headers).
    ctrl_bytes: int = 64

    #: Eager/rendezvous protocol switch for internode messages.  The
    #: default sits near the break-even where two bounce copies cost
    #: about as much as registration plus the extra RTS/CTS round trip.
    eager_max: int = 16 * KiB
    #: Send-side bounce buffers per NIC (eager messages stage here).
    tx_bounce_count: int = 8
    #: Receive-side preposted bounce buffers per NIC.
    rx_bounce_count: int = 16

    #: Reliable-delivery knobs (active when a fault plan is armed).
    #: The retransmission timer for a request is
    #: ``rto_min + rto_factor * serialization_time``, doubled per retry
    #: (exponential backoff) up to ``max_retries`` attempts, after which
    #: the request fails with :class:`repro.errors.RetryExhaustedError`.
    rto_min: float = 50e-6
    rto_factor: float = 4.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.contention not in _CONTENTION_MODES:
            raise SimulationError(
                f"unknown contention model {self.contention!r}; "
                f"pick one of {_CONTENTION_MODES}"
            )
        if self.link_rate <= 0 or self.port_rate <= 0:
            raise SimulationError("fabric rates must be positive")
        if self.max_retries < 0:
            raise SimulationError("max_retries must be >= 0")
        if self.rto_min <= 0 or self.rto_factor < 0:
            raise SimulationError("retransmission timer knobs must be positive")

    @property
    def ack_latency(self) -> float:
        """Return path of a (tiny) hardware ack: two hops + forwarding,
        no serialization term."""
        return 2 * self.link_latency + self.switch_latency

    def scaled(self, **overrides) -> "FabricParams":
        """Return a copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **overrides)


@dataclass(frozen=True)
class ClusterSpec:
    """N identical nodes joined by one fabric."""

    node: TopologySpec
    nnodes: int
    fabric: FabricParams = field(default_factory=FabricParams)

    def __post_init__(self) -> None:
        if self.nnodes < 1:
            raise SimulationError(f"cluster needs >= 1 node, got {self.nnodes}")

    @property
    def ncores(self) -> int:
        return self.nnodes * self.node.ncores

    def describe(self) -> str:
        return (
            f"{self.nnodes}x {self.node.name} "
            f"({self.node.ncores} cores/node, "
            f"link {self.fabric.link_rate / GiB:.2f} GiB/s, "
            f"{self.fabric.contention} contention)"
        )


class Fabric:
    """The assembled interconnect: one switch + one NIC per machine.

    ``faults`` (a :class:`repro.faults.FaultPlan` or pre-built
    :class:`~repro.faults.FaultState`) arms the fault model and the
    NICs' reliable-delivery machinery; ``noise`` (a
    :class:`repro.sim.noise.NoiseModel`, or a bare int taken as an
    explicit seed) jitters the NIC wire/service times so retry timers
    across nodes don't fire in lockstep.  Both default to off, leaving
    timings bit-identical to a bare fabric.
    """

    def __init__(
        self, engine, machines, params: FabricParams, faults=None, noise=None
    ) -> None:
        from repro.net.nic import Nic
        from repro.net.switch import Switch
        from repro.sim.noise import NoiseModel

        self.engine = engine
        self.params = params
        self.faults = self._fault_state(faults)
        self.noise = NoiseModel.coerce(noise)
        self.switch = Switch(engine, len(machines), params, faults=self.faults)
        self.nics = [
            Nic(engine, machine, node, self)
            for node, machine in enumerate(machines)
        ]
        self.switch.bind(self.nics)

    @staticmethod
    def _fault_state(faults):
        if faults is None:
            return None
        from repro.faults import FaultState

        if isinstance(faults, FaultState):
            return faults
        return FaultState(faults)

    def jitter(self, duration: float) -> float:
        """Apply the fabric's noise model to a wire/service time."""
        if self.noise is None:
            return duration
        return self.noise.jitter(duration)

    def nic(self, node: int) -> "Nic":  # noqa: F821
        return self.nics[node]

    @property
    def nnodes(self) -> int:
        return len(self.nics)
