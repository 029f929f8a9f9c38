"""Property tests for iovec expansion and coalescing (hypothesis).

These pin the invariants the neighborhood strategies lean on: an
``Indexed`` gather/scatter list always expands to an iovec covering
exactly its bytes, address-adjacent blocks merge, and zero-length
blocks vanish.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Machine, xeon_e5345
from repro.kernel.address_space import AddressSpace
from repro.mpi.datatypes import Indexed, _coalesce
from repro.sim import Engine

BUF_BYTES = 1 << 16


def _buf():
    machine = Machine(Engine(), xeon_e5345())
    return AddressSpace(machine, 0).alloc(BUF_BYTES)


# Non-overlapping in-bounds (disp, length) blocks, gaps allowed,
# zero-length blocks sprinkled in.
@st.composite
def block_lists(draw, max_blocks=12):
    n = draw(st.integers(1, max_blocks))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, BUF_BYTES), min_size=2 * n, max_size=2 * n
            )
        )
    )
    blocks = []
    for i in range(n):
        disp, end = cuts[2 * i], cuts[2 * i + 1]
        blocks.append((disp, end - disp))
    return blocks


@given(blocks=block_lists())
@settings(max_examples=60, deadline=None)
def test_indexed_iovec_covers_exactly_its_bytes(blocks):
    buf = _buf()
    t = Indexed(blocks)
    views = t.iovec(buf)
    assert t.size == sum(n for _, n in blocks)
    assert sum(v.nbytes for v in views) == t.size
    assert all(v.nbytes > 0 for v in views)  # zero blocks vanish
    # Views land exactly where the (sorted, disjoint) blocks said.
    covered = sorted((v.offset, v.nbytes) for v in views)
    wanted = []
    for disp, length in sorted(b for b in blocks if b[1] > 0):
        if wanted and wanted[-1][0] + wanted[-1][1] == disp:
            wanted[-1] = (wanted[-1][0], wanted[-1][1] + length)
        else:
            wanted.append((disp, length))
    assert covered == wanted


@given(blocks=block_lists())
@settings(max_examples=60, deadline=None)
def test_coalesce_merges_adjacent_and_preserves_bytes(blocks):
    buf = _buf()
    views = [buf.view(d, n) for d, n in blocks if n > 0]
    merged = _coalesce(views)
    assert sum(v.nbytes for v in merged) == sum(v.nbytes for v in views)
    # No two consecutive outputs from the same buffer stay adjacent.
    for a, b in zip(merged, merged[1:]):
        assert not (a.buffer is b.buffer and a.offset + a.nbytes == b.offset)
    # Merging never reorders: flattened byte ranges appear in input order.
    flat = [(v.offset, v.nbytes) for v in merged]
    assert flat == sorted(flat)
