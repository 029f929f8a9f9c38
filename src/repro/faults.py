"""Seeded, deterministic fault injection for the simulated stack.

The paper's kernel-assisted LMTs are *optional accelerators*: real
MPICH2 falls back to the double-buffered shared-memory path when
vmsplice or the KNEM module is unavailable, and real fabrics carry
retransmission and registration-failure handling.  This module is the
simulator's fault model — the single place every injectable failure is
described — and the rest of the stack (``repro.net``, ``repro.core``,
``repro.sim``) consumes it:

- **per-link packet faults**: drop and corruption probabilities, per
  link or fabric-wide, drawn from per-link seeded substreams so two
  runs with the same :class:`FaultPlan` make identical decisions
  regardless of how flows interleave;
- **timed link windows**: degradation windows (wire slows by a factor)
  and flap windows (link fully down) with ``[t0, t1)`` semantics;
- **node capability masks**: "KNEM module not loaded", "no vmsplice",
  "NIC cannot register memory" — consumed by
  :class:`repro.core.policy.LmtPolicy` to walk the paper's real
  fallback chain (KNEM -> vmsplice -> shm double-buffering, and
  internode RDMA rendezvous -> staged bounce-buffer pipeline);
- **injectable registration failures**: the first N registration
  attempts on a node fail with
  :class:`repro.errors.RegistrationError`, exercising the dynamic
  rendezvous downgrade.

A :class:`FaultPlan` is an immutable description; :class:`FaultState`
is the per-run mutable instance (RNG substreams, remaining injection
budgets, counters).  A zero-rate plan is *perfectly transparent*: the
reliability machinery arms, but no simulated timing changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError
from repro.sim.rng import Pcg64Stream, check_seed

__all__ = ["LinkFault", "LinkWindow", "FaultPlan", "FaultState", "CAPABILITIES"]

#: Capabilities a node may have masked off.  ``knem``/``vmsplice``
#: gate the intranode LMT chain; ``rdma-reg`` gates internode memory
#: registration (no registration -> no RDMA rendezvous).
CAPABILITIES = ("knem", "vmsplice", "rdma-reg", "dsa")


def _check_prob(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"{name} must be a probability in [0, 1], got {p}")


@dataclass(frozen=True)
class LinkFault:
    """Per-(src, dst) overrides of the fabric-wide packet fault rates."""

    drop: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        _check_prob("LinkFault.drop", self.drop)
        _check_prob("LinkFault.corrupt", self.corrupt)


@dataclass(frozen=True)
class LinkWindow:
    """A timed ``[t0, t1)`` condition on one link (or all links).

    ``src``/``dst`` of None are wildcards.  As a *degradation* window,
    ``factor`` multiplies the wire serialization time (2.0 = link at
    half rate); as a *flap* window the link is fully down and every
    packet in the window is lost.
    """

    t0: float
    t1: float
    src: Optional[int] = None
    dst: Optional[int] = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise SimulationError(f"empty window [{self.t0}, {self.t1})")
        if self.factor < 1.0:
            raise SimulationError(f"degradation factor must be >= 1: {self.factor}")

    def covers(self, src: int, dst: int, now: float) -> bool:
        if not self.t0 <= now < self.t1:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, seeded description of every fault to inject in a run."""

    seed: int = 0
    #: Fabric-wide per-descriptor drop / corruption probabilities.
    drop: float = 0.0
    corrupt: float = 0.0
    #: Per-(src_node, dst_node) overrides of the rates above.
    links: dict = field(default_factory=dict)
    #: Timed wire-slowdown windows (``factor`` multiplies wire time).
    degraded: tuple = ()
    #: Timed link-down windows (all packets lost inside the window).
    flaps: tuple = ()
    #: node -> capabilities masked OFF (e.g. ``{0: frozenset({"knem"})}``
    #: models "KNEM module not loaded on node 0").
    masked: dict = field(default_factory=dict)
    #: node -> number of registration attempts that fail before the NIC
    #: "recovers" (injected pin/translation-entry failures).
    reg_failures: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_seed("FaultPlan.seed", self.seed)
        _check_prob("FaultPlan.drop", self.drop)
        _check_prob("FaultPlan.corrupt", self.corrupt)
        for node, caps in self.masked.items():
            for cap in caps:
                if cap not in CAPABILITIES:
                    raise SimulationError(
                        f"unknown capability {cap!r} masked on node {node}; "
                        f"pick from {CAPABILITIES}"
                    )

    # ------------------------------------------------------ capabilities
    def node_allows(self, node: int, capability: str) -> bool:
        """True unless ``capability`` is masked off on ``node``."""
        return capability not in self.masked.get(node, ())

    def link_rates(self, src: int, dst: int) -> LinkFault:
        override = self.links.get((src, dst))
        if override is not None:
            return override
        return LinkFault(drop=self.drop, corrupt=self.corrupt)


class FaultState:
    """The mutable per-run instance of a :class:`FaultPlan`.

    Holds one seeded RNG substream per link — decisions on one link are
    independent of traffic on every other, which keeps fault sequences
    reproducible under protocol changes elsewhere — plus the remaining
    registration-failure budgets and the injection counters that flow
    into :func:`repro.bench.reporting.resilience_block`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rngs: dict[tuple[int, int], Pcg64Stream] = {}
        self._reg_left = dict(plan.reg_failures)
        # Injection counters (diagnostics / reporting).
        self.drops_injected = 0
        self.corruptions_injected = 0
        self.flap_drops = 0
        self.reg_failures_injected = 0

    # ------------------------------------------------------------- wire
    def _rng(self, src: int, dst: int) -> Pcg64Stream:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = Pcg64Stream([self.plan.seed, src, dst])
        return rng

    def link_up(self, src: int, dst: int, now: float) -> bool:
        """False while a flap window covers this link."""
        for window in self.plan.flaps:
            if window.covers(src, dst, now):
                return False
        return True

    def should_drop(self, src: int, dst: int, now: float) -> bool:
        p = self.plan.link_rates(src, dst).drop
        if p <= 0.0:
            return False
        if self._rng(src, dst).random() < p:
            self.drops_injected += 1
            return True
        return False

    def should_corrupt(self, src: int, dst: int, now: float) -> bool:
        p = self.plan.link_rates(src, dst).corrupt
        if p <= 0.0:
            return False
        if self._rng(src, dst).random() < p:
            self.corruptions_injected += 1
            return True
        return False

    def note_flap_drop(self) -> None:
        self.flap_drops += 1

    def degrade_factor(self, src: int, dst: int, now: float) -> float:
        """Wire-time multiplier from the degradation windows covering
        this link now (stacked windows multiply)."""
        factor = 1.0
        for window in self.plan.degraded:
            if window.covers(src, dst, now):
                factor *= window.factor
        return factor

    # ----------------------------------------------------- capabilities
    def node_allows(self, node: int, capability: str) -> bool:
        return self.plan.node_allows(node, capability)

    def take_reg_failure(self, node: int) -> bool:
        """Consume one injected registration failure for ``node`` (True
        if this registration attempt should fail)."""
        left = self._reg_left.get(node, 0)
        if left <= 0:
            return False
        self._reg_left[node] = left - 1
        self.reg_failures_injected += 1
        return True

    # ------------------------------------------------------- diagnostics
    def counters(self) -> dict:
        return {
            "drops_injected": self.drops_injected,
            "corruptions_injected": self.corruptions_injected,
            "flap_drops": self.flap_drops,
            "reg_failures_injected": self.reg_failures_injected,
        }
