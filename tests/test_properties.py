"""Cross-module property tests (hypothesis).

The cache simulator already has its bit-for-bit reference property
tests; here the remaining load-bearing invariants get the same
treatment: iovec walking, block partitioning, datatype expansion,
processor-sharing conservation, and end-to-end MPI permutation
properties on small random instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Machine, xeon_e5345
from repro.kernel.address_space import AddressSpace
from repro.kernel.copy import iter_lockstep
from repro.mpi.datatypes import Indexed
from repro.sim import Engine, ProcessorSharing


def _space():
    return AddressSpace(Machine(Engine(), xeon_e5345()), 0)


# -------------------------------------------------------- iter_lockstep --
@settings(max_examples=100, deadline=None)
@given(
    dst_sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
    src_sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
    chunk=st.integers(1, 4096),
)
def test_iter_lockstep_partitions_exactly(dst_sizes, src_sizes, chunk):
    """Pieces tile min(total_dst, total_src) bytes with no overlap, in
    order, each at most `chunk` long, and the piece pair lengths match."""
    space = _space()
    dst = [space.alloc(n).view() for n in dst_sizes]
    src = [space.alloc(n).view() for n in src_sizes]
    pieces = list(iter_lockstep(dst, src, chunk))
    total = sum(d.nbytes for d, _ in pieces)
    assert total == min(sum(dst_sizes), sum(src_sizes))
    assert all(d.nbytes == s.nbytes for d, s in pieces)
    assert all(0 < d.nbytes <= chunk for d, _ in pieces)
    #

    # Destination pieces are disjoint and ascending within each buffer.
    cursor = {}
    for d, _ in pieces:
        key = id(d.buffer)
        assert cursor.get(key, 0) <= d.offset
        cursor[key] = d.offset + d.nbytes


# ----------------------------------------------------------- _blocks --
@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 16),
    per_block=st.integers(1, 2048),
)
def test_blocks_partition_buffer(p, per_block):
    from repro.mpi.coll.alltoall import _blocks

    space = _space()
    buf = space.alloc(p * per_block)
    blocks, block = _blocks(buf, p)
    assert block == per_block
    assert len(blocks) == p
    offset = 0
    for views in blocks:
        for v in views:
            assert v.offset == offset
            offset += v.nbytes
    assert offset == p * per_block


# ---------------------------------------------------------- datatypes --
@settings(max_examples=100, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 50)), min_size=1, max_size=8
    )
)
def test_indexed_iovec_total(blocks):
    # Make blocks disjoint by construction: sort and push apart.
    disjoint = []
    cursor = 0
    for disp, length in sorted(blocks):
        start = max(disp, cursor)
        disjoint.append((start, length))
        cursor = start + length
    space = _space()
    t = Indexed(disjoint)
    buf = space.alloc(t.extent + 16)
    views = t.iovec(buf)
    assert sum(v.nbytes for v in views) == t.size


# ------------------------------------------------- processor sharing --
@settings(max_examples=60, deadline=None)
@given(
    works=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=8),
    rate=st.floats(0.5, 10.0),
)
def test_processor_sharing_conserves_work(works, rate):
    """All jobs submitted at t=0 finish by exactly sum(work)/rate, and
    no job finishes before its fair-share lower bound."""
    eng = Engine()
    core = ProcessorSharing(eng, rate=rate)
    ends = []

    def job(w):
        yield core.request(w)
        ends.append(eng.now)

    eng.run_processes([(lambda w=w: (yield from job(w)))() for w in works])
    total = sum(works) / rate
    assert max(ends) == pytest.approx(total, rel=1e-6)
    # No completion before the smallest possible time (its own work
    # at full rate) nor after the total.
    for w, t in zip(sorted(works), sorted(ends)):
        assert t >= w / rate - 1e-9


# ------------------------------------------------ end-to-end alltoall --
@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from([2, 3, 4]),
    block=st.integers(64, 2048),
    seed=st.integers(0, 2**16),
)
def test_alltoall_is_a_transpose(p, block, seed):
    """Alltoall == matrix transpose of the (rank, block) payload grid,
    for random sizes and rank counts."""
    from repro.mpi import run_mpi

    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 255, size=(p, p, block), dtype=np.uint8)

    def main(ctx):
        send = ctx.alloc(block * p)
        recv = ctx.alloc(block * p)
        for j in range(p):
            send.data[j * block : (j + 1) * block] = payload[ctx.rank, j]
        yield ctx.comm.Alltoall(send, recv)
        return recv.data.copy()

    r = run_mpi(xeon_e5345(), p, main)
    for rank, got in enumerate(r.results):
        for j in range(p):
            assert np.array_equal(
                got[j * block : (j + 1) * block], payload[j, rank]
            ), (rank, j)
