"""repro — a simulation-based reproduction of *Cache-Efficient,
Intranode, Large-Message MPI Communication with MPICH2-Nemesis*
(Buntinas, Goglin, Goodell, Mercier, Moreaud — ICPP 2009).

Quickstart::

    from repro import run_mpi, xeon_e5345
    from repro.units import MiB

    def main(ctx):
        comm = ctx.comm
        buf = ctx.alloc(1 * MiB)
        if ctx.rank == 0:
            yield comm.Send(buf, dest=1)
        else:
            status = yield comm.Recv(buf, source=0)
            print(status.path)          # "knem"

    result = run_mpi(xeon_e5345(), nprocs=2, main=main,
                     bindings=[0, 4], mode="knem")
    print(result.elapsed, result.l2_misses())

Layers (see DESIGN.md): :mod:`repro.sim` (event engine),
:mod:`repro.hw` (caches, FSB, DRAM, I/OAT), :mod:`repro.kernel`
(pipes/vmsplice, KNEM device), :mod:`repro.mpi` (Nemesis runtime),
:mod:`repro.core` (the LMT backends and threshold policy — the paper's
contribution), :mod:`repro.bench` (IMB + NAS + figure/table
generators).
"""

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable


class _LazyPackage(ModuleType):
    """A package whose re-exports load on first access.

    Subclassed once per package by :func:`_lazy_exports`, which fills
    in ``_sources`` (name -> defining module) and ``_computed``
    (name -> zero-argument factory).
    """

    _sources: dict[str, str]
    _computed: dict[str, Callable[[], Any]]

    def __getattr__(self, name: str) -> Any:
        if name in self._sources:
            value = getattr(import_module(self._sources[name]), name)
        elif name in self._computed:
            value = self._computed[name]()
        else:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        # Cached, so later reads are plain namespace lookups and every
        # read returns the same object.
        self.__dict__[name] = value
        return value

    def __dir__(self) -> list[str]:
        return sorted(self.__dict__.keys() | self._sources.keys() | self._computed.keys())

    def __setattr__(self, name: str, value: Any) -> None:
        # Loading submodule ``pkg.x`` binds it on the package as ``x``.
        # Where a re-export has the same name (the function
        # ``repro.mpi.coll.alltoall`` and its module), the export wins,
        # whichever of the two loads first.
        if name in self._sources and getattr(value, "__name__", None) == f"{self.__name__}.{name}":
            return
        super().__setattr__(name, value)


def _lazy_exports(
    package: str,
    exports: dict[str, tuple[str, ...]],
    computed: dict[str, Callable[[], Any]] | None = None,
) -> None:
    """Resolve ``package``'s re-exported names on first access.

    ``exports`` maps each defining module to the names the package
    re-exports from it, like ``from module import name, ...``, except
    that nothing is imported until one of them is read.  ``computed``
    maps further names to factories called on first read.  Package
    ``__init__`` files use this for names from other layers, so an
    entry point loads only the layers it runs (see
    ``docs/architecture.md``).
    """
    sources = {name: module for module, names in exports.items() for name in names}
    sys.modules[package].__class__ = type(
        "LazyPackage", (_LazyPackage,), {"_sources": sources, "_computed": computed or {}}
    )


_lazy_exports(__name__, {
    "repro.core.policy": ("ClusterLmtPolicy", "LmtConfig", "LmtPolicy", "MODES"),
    "repro.faults": ("FaultPlan", "FaultState", "LinkFault", "LinkWindow"),
    "repro.hw.machine": ("Machine",),
    "repro.hw.params": ("HwParams",),
    "repro.hw.presets": ("cluster_of", "modern_server", "nehalem8", "xeon_e5345", "xeon_x5460"),
    "repro.hw.topology": ("TopologySpec",),
    "repro.mpi.cluster": ("ClusterRunResult", "run_cluster"),
    "repro.mpi.communicator": ("ANY_SOURCE", "ANY_TAG", "Communicator"),
    "repro.mpi.world": ("MpiRunResult", "RankContext", "run_mpi"),
    "repro.net.fabric": ("ClusterSpec", "FabricParams"),
    "repro.obs": ("MetricsRegistry", "ObsCollector", "ObsConfig"),
    "repro.sim.engine": ("Engine",),
})

__version__ = "1.0.0"

__all__ = [
    "run_mpi",
    "run_cluster",
    "RankContext",
    "MpiRunResult",
    "ClusterRunResult",
    "ClusterSpec",
    "ClusterLmtPolicy",
    "FabricParams",
    "FaultPlan",
    "FaultState",
    "LinkFault",
    "LinkWindow",
    "cluster_of",
    "Communicator",
    "ANY_SOURCE",
    "ANY_TAG",
    "LmtConfig",
    "LmtPolicy",
    "MODES",
    "MetricsRegistry",
    "ObsCollector",
    "ObsConfig",
    "Machine",
    "HwParams",
    "TopologySpec",
    "xeon_e5345",
    "xeon_x5460",
    "nehalem8",
    "modern_server",
    "Engine",
    "__version__",
]
