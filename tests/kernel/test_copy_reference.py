"""The one-frame copy path against the nested-generator reference.

Twin machines run the same program, one through :mod:`repro.kernel.copy`
and one through ``reference_copy``: a warm-up scan on one core, a
vectored copy on another (while a third core scans the destination),
then a write scan of the destination.  Every return, the simulated
clock, every PAPI counter, the background writeback bytes, every span
and every destination byte must agree.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw import Machine, xeon_e5345
from repro.kernel import copy as lean
from repro.kernel.address_space import AddressSpace
from repro.obs import ObsConfig
from repro.sim import Engine
from repro.units import KiB

from . import reference_copy as ref

# (offset into its buffer, view length): zero-length views included.
_views = st.lists(
    st.tuples(st.integers(0, 130), st.one_of(st.integers(0, 40 * KiB), st.just(0))),
    min_size=1,
    max_size=4,
)


def _run(impl, spec):
    eng = Engine(obs=ObsConfig(spans=True) if spec["obs"] else None)
    m = Machine(eng, xeon_e5345())
    space = AddressSpace(m, pid=0)

    def views_of(layout, name):
        views = []
        for i, (offset, nbytes) in enumerate(layout):
            buf = space.alloc(offset + nbytes + 7, name=f"{name}{i}")
            views.append(buf.view(offset, nbytes))
        return views

    src = views_of(spec["src"], "src")
    dst = views_of(spec["dst"], "dst")
    rng = np.random.default_rng(spec["seed"])
    if spec["written_src"]:
        for v in src:
            v.buffer.data[:] = rng.integers(0, 256, v.buffer.nbytes)
    if spec["written_dst"]:
        for v in dst[::2]:
            v.buffer.data[:] = 1
    warm, core, other = spec["cores"]
    chunk, intensity = spec["chunk"], spec["intensity"]

    def copier():
        scanned = yield from impl.stream_access(
            m, warm, src, write=spec["warm_write"], intensity=intensity, chunk=chunk
        )
        copied = yield from impl.cpu_copy(m, core, dst, src, chunk=chunk)
        written = yield from impl.stream_access(m, core, dst, write=True, chunk=chunk)
        return scanned, copied, written, eng.now

    def scanner():
        return (yield from impl.stream_access(m, other, dst, intensity=intensity))

    results = eng.run_processes([copier(), scanner()])
    spans = [
        (s.span_id, s.parent_id, s.name, s.kind, s.track, s.start, s.end, s.attrs)
        for s in eng.obs.spans
    ]
    payload = [
        (v.buffer._data is None, bytes(v.array) if v.buffer._data is not None else b"")
        for v in dst
    ]
    return {
        "results": results,
        "now": eng.now,
        "papi": m.papi.snapshot(),
        "background": m.memory.background_bytes,
        "spans": spans,
        "payload": payload,
    }


_spec = st.fixed_dictionaries(
    {
        "src": _views,
        "dst": _views,
        # Chunks smaller and larger than the pieces, and one cell.
        "chunk": st.one_of(
            st.sampled_from([1 * KiB, 16 * KiB, 64 * KiB]),
            st.integers(1000, 100 * KiB),
        ),
        # (warm-up core, copying core, concurrent scanner): shared and
        # cross-die pairs.
        "cores": st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
        "obs": st.booleans(),
        "written_src": st.booleans(),
        "written_dst": st.booleans(),
        "warm_write": st.booleans(),
        "intensity": st.sampled_from([0.0, 0.5, 1.0, 2.5, 20.0]),
        "seed": st.integers(0, 3),
    }
)


@settings(max_examples=200, deadline=None)
# One view a side that fits one chunk: the lean path's single piece.
@example(
    spec={
        "src": [(0, 16 * KiB)], "dst": [(0, 16 * KiB)], "chunk": 16 * KiB,
        "cores": (0, 4, 1), "obs": True, "written_src": True, "written_dst": False,
        "warm_write": True, "intensity": 1.0, "seed": 0,
    }
)
# Equal single views larger than the chunk take the lockstep walk.
@example(
    spec={
        "src": [(3, 40 * KiB)], "dst": [(61, 40 * KiB)], "chunk": 16 * KiB,
        "cores": (0, 1, 2), "obs": False, "written_src": False, "written_dst": True,
        "warm_write": False, "intensity": 2.5, "seed": 1,
    }
)
@given(spec=_spec)
def test_lean_copy_matches_nested_generator_reference(spec):
    got, want = _run(lean, spec), _run(ref, spec)
    for key in want:
        assert got[key] == want[key], key
