"""Static machine topology: sockets, dies, cores, cache sharing.

The paper's central variable is *which cores share which L2 cache*.
On the Xeon E5345 each package holds two dual-core dies; each die has a
4 MiB L2 shared by its pair of cores.  Binding the two pingpong ranks to
(0,1) gives the "shared cache" curves; (0,2) is "same socket, different
dies"; (0,4) is "different sockets" — the last two behave alike
("similar to the non-shared-cache case", Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareError
from repro.hw.params import HwParams

__all__ = ["TopologySpec", "CorePlacement"]


@dataclass(frozen=True)
class CorePlacement:
    """Location of one core in the machine."""

    core: int
    die: int
    socket: int


@dataclass(frozen=True)
class TopologySpec:
    """Immutable description of an SMP node.

    Parameters
    ----------
    name:
        Human-readable host name (e.g. ``"xeon-e5345"``).
    sockets:
        Number of physical packages.
    dies_per_socket:
        Dies per package; one last-level cache per die.
    cores_per_die:
        Cores sharing each die's cache.
    params:
        Timing constants (includes the per-die L2 size).
    """

    name: str
    sockets: int
    dies_per_socket: int
    cores_per_die: int
    params: HwParams = field(default_factory=HwParams)

    def __post_init__(self) -> None:
        if min(self.sockets, self.dies_per_socket, self.cores_per_die) < 1:
            raise HardwareError(f"degenerate topology: {self}")

    # -- derived sizes --------------------------------------------------
    @property
    def ncores(self) -> int:
        return self.sockets * self.dies_per_socket * self.cores_per_die

    @property
    def ndies(self) -> int:
        return self.sockets * self.dies_per_socket

    @property
    def l2_lines(self) -> int:
        return self.params.l2_bytes // self.params.cache_line

    # -- placement queries ----------------------------------------------
    def placement(self, core: int) -> CorePlacement:
        die = self.die_of(core)
        socket = die // self.dies_per_socket
        return CorePlacement(core=core, die=die, socket=socket)

    def die_of(self, core: int) -> int:
        if not 0 <= core < self.ncores:
            raise HardwareError(f"core {core} out of range for {self.name}")
        return core // self.cores_per_die

    def socket_of(self, core: int) -> int:
        return self.placement(core).socket

    def cores_of_die(self, die: int) -> list[int]:
        if not 0 <= die < self.ndies:
            raise HardwareError(f"die {die} out of range for {self.name}")
        base = die * self.cores_per_die
        return list(range(base, base + self.cores_per_die))

    def shares_cache(self, core_a: int, core_b: int) -> bool:
        """True when the two cores share a last-level cache."""
        return self.die_of(core_a) == self.die_of(core_b)

    def same_socket(self, core_a: int, core_b: int) -> bool:
        return self.socket_of(core_a) == self.socket_of(core_b)

    # -- the paper's threshold inputs ------------------------------------
    def cores_sharing_cache(self) -> int:
        """Cores per last-level cache (the denominator input of DMAmin)."""
        return self.cores_per_die

    def dmamin_bytes(self, processes_using_cache: int | None = None) -> int:
        """The paper's dynamic I/OAT threshold (Sec. 3.5):

        ``DMAmin = cache_size / (2 x processes using the cache)``

        With one MPI process per core this reduces to the
        architecture-only form ``cache / (2 x cores sharing it)``.
        """
        sharers = (
            processes_using_cache
            if processes_using_cache is not None
            else self.cores_sharing_cache()
        )
        if sharers < 1:
            raise HardwareError(f"sharers must be >= 1, got {sharers}")
        return self.params.l2_bytes // (2 * sharers)

    def describe(self) -> str:
        from repro.units import fmt_size

        return (
            f"{self.name}: {self.sockets} socket(s) x {self.dies_per_socket} "
            f"die(s) x {self.cores_per_die} core(s), "
            f"{fmt_size(self.params.l2_bytes)} L2 per die"
        )
