"""NAS Parallel Benchmark communication skeletons (Table 1).

Each benchmark is a :class:`~repro.bench.nas.spec.NasSpec`: per-rank
working-set arrays plus a list of per-iteration *phases* (streaming
compute over the arrays, fixed flop time, point-to-point exchanges,
collectives).  The phase interpreter in :mod:`~repro.bench.nas.runner`
executes the skeleton on the simulated MPI runtime, so communication
strategy changes affect both the transfer times *and* — through cache
pollution — the compute phases, which is the paper's IS mechanism.

Message sizes and iteration counts follow the NPB 3 class-B problem
definitions; the per-iteration fixed compute time of each benchmark is
calibrated so the *default-LMT* column lands near the paper's Table 1
(the other columns are produced by the simulation, not fitted).
"""

from importlib import import_module

from repro import _lazy_exports
from repro.bench.nas.spec import (
    Alltoall,
    Alltoallv,
    Compute,
    Exchange,
    NasSpec,
    Phase,
    Reduce,
    Stream,
    scale_spec,
)

#: Benchmark name -> the module holding its calibrated class-B spec.
_MODULES = {
    "bt": "bt", "cg": "cg", "ep": "ep", "ft": "ft",
    "is": "is_", "lu": "lu", "mg": "mg", "sp": "sp",
}

#: Table 1's rows, in order (class B, the paper's configuration).
_TABLE1 = ("bt.B.4", "cg.B.8", "ep.B.4", "ft.B.8", "is.B.8", "lu.B.8", "mg.B.8", "sp.B.8")


def _class_b(name: str) -> NasSpec:
    return import_module(f"{__name__}.{_MODULES[name]}").SPEC


#: Problem-class scaling relative to class B: (volume ratio, iterations).
#: Volumes follow the NPB 3 problem definitions (grid-size or key-count
#: ratios); iteration counts are the official per-class values.
CLASS_FACTORS = {
    "is": {"A": (0.25, 10), "B": (1.0, 10), "C": (4.0, 10)},
    "ft": {"A": (0.125, 6), "B": (1.0, 20), "C": (2.0, 20)},
    "cg": {"A": (0.147, 15), "B": (1.0, 75), "C": (2.73, 75)},
    "ep": {"A": (0.25, 10), "B": (1.0, 10), "C": (4.0, 10)},
    "bt": {"A": (0.247, 200), "B": (1.0, 200), "C": (4.01, 200)},
    "lu": {"A": (0.247, 250), "B": (1.0, 250), "C": (4.01, 250)},
    "mg": {"A": (1.0, 4), "B": (1.0, 20), "C": (8.0, 20)},
    "sp": {"A": (0.247, 400), "B": (1.0, 400), "C": (4.01, 400)},
}


def get_spec(name: str, klass: str = "B") -> NasSpec:
    """Spec for any benchmark and problem class (A, B or C).

    Class B returns the calibrated Table 1 spec verbatim; A and C are
    derived by NPB volume scaling (their absolute times are estimates,
    not calibrated against published numbers).
    """
    if name not in _MODULES:
        raise KeyError(f"unknown NAS benchmark {name!r}; pick from {sorted(_MODULES)}")
    factors = CLASS_FACTORS[name]
    if klass not in factors:
        raise KeyError(f"unknown class {klass!r}; pick from {sorted(factors)}")
    base = _class_b(name)
    if klass == "B":
        return base
    vol, iters = factors[klass]
    return scale_spec(base, klass, vol, iters)


# The kernel modules load on first use; BENCHMARKS is built once, on
# first read, and cached.
_lazy_exports(
    __name__,
    {"repro.bench.nas.runner": ("NasResult", "run_nas")},
    computed={"BENCHMARKS": lambda: {row: _class_b(row.split(".")[0]) for row in _TABLE1}},
)

__all__ = [
    "NasSpec",
    "scale_spec",
    "get_spec",
    "CLASS_FACTORS",
    "Phase",
    "Compute",
    "Stream",
    "Exchange",
    "Alltoall",
    "Alltoallv",
    "Reduce",
    "NasResult",
    "run_nas",
    "BENCHMARKS",
]
