"""Tests for NAS problem-class scaling."""

import pytest

from repro.bench.nas import BENCHMARKS, CLASS_FACTORS, get_spec, run_nas
from repro.hw import xeon_e5345

TOPO = xeon_e5345()


@pytest.fixture(scope="module")
def is_c_default():
    """One is.C default-mode iteration, shared by the class tests."""
    return run_nas(get_spec("is", "C"), TOPO, mode="default", iterations=1)


def test_class_b_is_the_calibrated_spec():
    assert get_spec("is", "B") is BENCHMARKS["is.B.8"]


def test_unknown_names_and_classes_rejected():
    with pytest.raises(KeyError):
        get_spec("zz")
    with pytest.raises(KeyError):
        get_spec("is", "D")


def test_class_scaling_of_arrays_and_label():
    a = get_spec("is", "A")
    b = get_spec("is", "B")
    c = get_spec("is", "C")
    assert a.label == "is.A.8" and c.label == "is.C.8"
    assert a.arrays["keys"] == b.arrays["keys"] // 4
    assert c.arrays["keys"] == b.arrays["keys"] * 4


def test_all_benchmarks_have_all_classes():
    for name in CLASS_FACTORS:
        for klass in ("A", "B", "C"):
            spec = get_spec(name, klass)
            assert spec.iterations >= 1
            assert all(v >= 4096 for v in spec.arrays.values())


def test_exchange_scales_with_surface_not_volume():
    b = get_spec("bt", "B")
    c = get_spec("bt", "C")
    from repro.bench.nas.spec import Exchange

    b_x = next(p for p in b.iteration if isinstance(p, Exchange))
    c_x = next(p for p in c.iteration if isinstance(p, Exchange))
    vol = CLASS_FACTORS["bt"]["C"][0]
    assert c_x.nbytes == pytest.approx(b_x.nbytes * vol ** (2 / 3), rel=0.01)


def test_is_classes_order_runtime(is_c_default):
    """Class A < B < C in simulated runtime, roughly by volume."""
    times = {"C": is_c_default.seconds}
    for klass in ("A", "B"):
        spec = get_spec("is", klass)
        times[klass] = run_nas(spec, TOPO, mode="default", iterations=1).seconds
    assert times["A"] < times["B"] < times["C"]
    assert times["C"] / times["A"] > 6  # 16x volume, sublinear is fine


def test_class_c_keeps_paper_speedup_shape(is_c_default):
    """The IS speedup mechanism survives scaling: bigger keys arrays,
    same communication-bound structure."""
    fast = run_nas(get_spec("is", "C"), TOPO, mode="knem-ioat", iterations=1)
    assert fast.speedup_vs(is_c_default) > 0.1
