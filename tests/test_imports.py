"""Import layering: an entry point loads only the layers it runs.

Package ``__init__`` files resolve other layers' names lazily, and the
intranode stack (``sim``, ``hw``, ``kernel``, ``core``, ``mpi``) loads
nothing from the internode fabric, the fault injector, the campaign
suites or the exporters until a caller uses them.
NumPy loads only when a payload byte is touched or a reduction combines
touched data: noise and fault streams draw from the pure-Python
``repro.sim.rng`` stream.  The subprocess checks start
from a clean ``sys.modules``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _loaded_after(code: str, package: str = "repro") -> list[str]:
    """The ``package`` modules loaded by ``code`` in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package!r} + '.'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


#: Never loaded by an intranode run (exact name, or name + ".").
NOT_INTRANODE = (
    "repro.net",
    "repro.mpi.cluster",
    "repro.faults",
    "repro.sim.rng",
    "repro.obs.export",
    "repro.bench.store",
    "repro.sched",
    "repro.nhood",
    "repro.campaign.suites",
)

NAS_KERNELS = ("bt", "cg", "ep", "ft", "is_", "lu", "mg", "sp")


def test_alltoall_run_loads_only_the_intranode_stack():
    loaded = _loaded_after(
        "import repro\n"
        "import repro.bench.imb as imb\n"
        "import repro.bench.nas\n"
        "import repro.campaign\n"
        "from repro.core.policy import LmtConfig\n"
        "from repro.hw.presets import xeon_e5345\n"
        "imb.imb_alltoall(xeon_e5345(), 32 * 1024, mode='knem-ioat', repetitions=1)\n"
    )
    assert "repro.mpi.coll.alltoall" in loaded  # the probe did run
    stray = [
        m for m in loaded
        if any(m == p or m.startswith(p + ".") for p in NOT_INTRANODE)
        or m in {f"repro.bench.nas.{k}" for k in NAS_KERNELS}
    ]
    assert stray == []


def _numpy_loaded_after(code: str) -> bool:
    return "numpy" in _loaded_after(code, "numpy")


def test_untouched_pingpong_never_imports_numpy():
    assert not _numpy_loaded_after(
        "import repro.bench.imb as imb\n"
        "from repro.hw.presets import xeon_e5345\n"
        "r = imb.imb_pingpong(xeon_e5345(), 256 * 1024, mode='knem', repetitions=1)\n"
        "assert r.one_way_seconds > 0\n"
    )


@pytest.mark.parametrize("mode", ["knem-ioat", "default"])
def test_untouched_alltoall_never_imports_numpy(mode):
    assert not _numpy_loaded_after(
        "import repro.bench.imb as imb\n"
        "from repro.hw.presets import xeon_e5345\n"
        f"imb.imb_alltoall(xeon_e5345(), 32 * 1024, mode={mode!r}, repetitions=1)\n"
    )


def test_nas_is_run_never_imports_numpy():
    # IS loads the reduction module (through the hierarchical
    # collectives) but never combines payload bytes.
    loaded = _loaded_after(
        "import repro.bench.nas as nas\n"
        "from repro.hw.presets import xeon_e5345\n"
        "nas.run_nas(nas.get_spec('is', 'A'), xeon_e5345(), mode='knem-ioat',"
        " iterations=1)\n"
        "import sys\n"
        "assert 'numpy' not in sys.modules\n"
    )
    assert "repro.mpi.coll.reduce" in loaded


def test_noise_run_never_imports_numpy():
    assert not _numpy_loaded_after(
        "from repro.hw.presets import xeon_e5345\n"
        "from repro.mpi import run_mpi\n"
        "from repro.sim.noise import NoiseModel\n"
        "def main(ctx):\n"
        "    yield ctx.compute(1e-6)\n"
        "r = run_mpi(xeon_e5345(), 2, main, noise=NoiseModel(seed=1))\n"
        "assert r.world.noise.samples_drawn > 0\n"
    )


@pytest.mark.parametrize("drop", [0.1, 0.0])
def test_fault_run_never_imports_numpy(drop):
    assert not _numpy_loaded_after(
        "from repro import ClusterSpec, FaultPlan, run_cluster\n"
        "from repro.hw.presets import xeon_e5345\n"
        "def main(ctx):\n"
        "    buf = ctx.alloc(64 * 1024)\n"
        "    if ctx.rank == 0:\n"
        "        yield ctx.comm.Send(buf, dest=1)\n"
        "    else:\n"
        "        yield ctx.comm.Recv(buf, source=0)\n"
        "r = run_cluster(ClusterSpec(node=xeon_e5345(), nnodes=2), 2, main,\n"
        "                bindings=[(0, 0), (1, 0)],\n"
        f"                faults=FaultPlan(seed=3, drop={drop}))\n"
        f"assert bool(r.fabric.faults._rngs) == {drop > 0}  # substreams drawn\n"
    )


def test_serial_noisy_campaign_loads_neither_numpy_nor_multiprocessing():
    assert not _numpy_loaded_after(
        "import sys\n"
        "from repro.campaign import CampaignSpec, run_campaign\n"
        "spec = CampaignSpec(name='probe', sizes=(64 * 1024,), seeds=(0, 1),"
        " noise_sigma=0.02)\n"
        "run = run_campaign(spec, workers=1)\n"
        "assert not run.failures and run.executed == 2\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )


def test_noise_coerce_takes_numpy_integers_but_not_bools():
    import numpy as np

    from repro.errors import SimulationError
    from repro.sim.noise import NoiseModel

    model = NoiseModel.coerce(np.int64(3))
    assert isinstance(model, NoiseModel) and model.seed == 3
    assert model.factor() == NoiseModel(seed=3).factor()
    for bad in (True, np.bool_(True), 3.0):
        with pytest.raises(SimulationError):
            NoiseModel.coerce(bad)


def test_cli_help_loads_only_the_cli():
    loaded = _loaded_after(
        "import repro.bench.cli\n"
        "try:\n"
        "    repro.bench.cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    assert loaded == ["repro", "repro.bench", "repro.bench.cli"]


def test_submodule_import_does_not_shadow_a_lazy_export():
    # ``repro.mpi.coll.alltoall`` names both a module and a function;
    # loading the module first must leave the function exported.
    loaded = _loaded_after(
        "import repro.mpi.coll.alltoall\n"
        "from repro.mpi.coll import alltoall\n"
        "from repro.mpi.coll import gather\n"
        "assert callable(alltoall) and alltoall.__name__ == 'alltoall'\n"
        "assert callable(gather) and gather.__name__ == 'gather'\n"
    )
    assert "repro.mpi.coll.gather" in loaded


def _packages() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", _packages())
def test_package_exports_resolve(name):
    package = importlib.import_module(name)
    for attr in getattr(package, "__all__", ()):
        value = getattr(package, attr)
        assert attr in dir(package), f"{name}.{attr} missing from dir()"
        assert getattr(package, attr) is value, f"{name}.{attr} changed between reads"
        if attr != "__version__":
            assert not isinstance(value, ModuleType), f"{name}.{attr} is a module"
    with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
        getattr(package, "no_such_name")


def test_benchmarks_is_one_dict():
    import repro.bench.nas as nas

    assert nas.BENCHMARKS is nas.BENCHMARKS
    assert list(nas.BENCHMARKS) == [
        "bt.B.4", "cg.B.8", "ep.B.4", "ft.B.8", "is.B.8", "lu.B.8", "mg.B.8", "sp.B.8",
    ]
    assert nas.get_spec("cg") is nas.BENCHMARKS["cg.B.8"]
