"""Reduce and allreduce with MPICH2-style algorithm selection.

- **Reduce**: binomial tree (each parent combines its children's
  contributions on the way up).
- **Allreduce**: recursive doubling for short vectors; Rabenseifner's
  algorithm (reduce-scatter by recursive halving, then allgather by
  recursive doubling) for long vectors on power-of-two communicators;
  reduce + broadcast as the general fallback.

Reduction operates on real bytes: ``dtype`` reinterprets the byte
buffers (default ``uint8``) and ``op`` combines NumPy arrays in place
(default wrap-around addition).  The arithmetic is *timed* as two
streaming passes (read the incoming buffer, read-modify-write the
accumulator) through the simulated caches.  Vectors split only on
element boundaries; a byte count that is not a whole number of
``dtype`` elements raises :class:`~repro.errors.MpiError` before any
message moves.

The built-in addition is demand-zero, like
:func:`~repro.kernel.address_space.copy_payload`: when no buffer under
either operand was ever read or written, both hold zeros, and 0 + 0 is
bitwise 0 in every integer and float dtype, so the step runs its two
timed passes and then allocates nothing (NumPy is imported only when a
step does combine data).  The rule is limited to the built-in op: a
user ``op`` need not map zeros to zero, so it always sees materialised,
zero-filled operands, and so does any step with a touched operand
(float ``-0.0 + 0.0`` is ``+0.0``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MpiError
from repro.kernel.copy import cpu_copy, stream_access
from repro.mpi.datatypes import as_views
from repro.mpi.request import Request

__all__ = [
    "reduce",
    "allreduce",
    "allreduce_recursive_doubling",
    "allreduce_rabenseifner",
    "reduce_scatter_block",
]

_REDUCE_TAG = -3000
_ALLRED_TAG = -3500
_SCATTER_TAG = -5000


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _default_op(acc, incoming) -> None:
    acc += incoming  # wrap-around add on the chosen dtype


def _itemsize(dtype) -> int:
    """Bytes per element of ``dtype`` (``None`` is the default ``uint8``)."""
    if dtype is None:
        return 1
    import numpy as np

    return np.dtype(dtype).itemsize


def _check_elements(nbytes: int, dtype, what: str = "reduction") -> int:
    """``dtype``'s itemsize; raises unless ``nbytes`` is a whole number
    of elements."""
    itemsize = _itemsize(dtype)
    if nbytes % itemsize:
        raise MpiError(
            f"{what} of {nbytes}B is not a whole number of {itemsize}B elements"
        )
    return itemsize


def _untouched(views) -> bool:
    return all(v.buffer._data is None for v in views)


def _combine(comm, dst_views, src_views, op, dtype):
    """Timed, real combination of two equal-size iovecs."""
    machine = comm.machine
    core = comm.core
    # Timing: stream the incoming data, then read-modify-write ours.
    yield from stream_access(machine, core, src_views, write=False, intensity=1.0)
    yield from stream_access(machine, core, dst_views, write=True, intensity=1.0)
    if op is _default_op and _untouched(src_views) and _untouched(dst_views):
        return  # zeros plus zeros: the accumulator already holds the sum
    import numpy as np

    if dtype is None:
        dtype = np.uint8
    # Real data: concatenate, combine, scatter back.
    src = np.concatenate([v.array for v in src_views]).view(dtype)
    acc = np.concatenate([v.array for v in dst_views]).view(dtype)
    op(acc, src)
    out = acc.view(np.uint8)
    offset = 0
    for v in dst_views:
        v.array[:] = out[offset : offset + v.nbytes]
        offset += v.nbytes


def _scratch(comm, attr: str, nbytes: int):
    buf = getattr(comm, attr, None)
    if buf is None or buf.nbytes < nbytes:
        buf = comm.world.spaces[comm.world_rank].alloc(
            nbytes, name=f"{attr}.r{comm.rank}"
        )
        setattr(comm, attr, buf)
    return buf


# ------------------------------------------------------------- reduce --
def reduce(
    comm,
    sendbuf,
    recvbuf,
    root: int = 0,
    op: Optional[Callable] = None,
    dtype=None,
):
    """Binomial-tree reduction to ``root``.  Generator.

    ``recvbuf`` is required at the root; other ranks may pass None.
    """
    op = op or _default_op
    p = comm.size
    rank = comm.rank
    if rank == root and recvbuf is None:
        raise MpiError("root must supply a receive buffer to Reduce")
    send_views = as_views(sendbuf)
    nbytes = sum(v.nbytes for v in send_views)
    _check_elements(nbytes, dtype)

    # Every rank accumulates into a scratch (cached per communicator).
    acc = _scratch(comm, "_reduce_acc", nbytes)
    tmp = _scratch(comm, "_reduce_tmp", nbytes)
    yield from cpu_copy(comm.machine, comm.core, [acc.view(0, nbytes)], send_views)

    vrank = (rank - root) % p
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank - mask + root) % p
            yield comm.Send(acc.view(0, nbytes), dest=parent, tag=_REDUCE_TAG)
            break
        if vrank + mask < p:
            child = (vrank + mask + root) % p
            yield comm.Recv(tmp.view(0, nbytes), source=child, tag=_REDUCE_TAG)
            yield from _combine(
                comm, [acc.view(0, nbytes)], [tmp.view(0, nbytes)], op, dtype
            )
        mask <<= 1

    if rank == root:
        recv_views = as_views(recvbuf)
        yield from cpu_copy(
            comm.machine, comm.core, recv_views, [acc.view(0, nbytes)]
        )


# ----------------------------------------------------------- allreduce --
def allreduce(comm, sendbuf, recvbuf, op=None, dtype=None):
    """Algorithm-selecting allreduce (generator)."""
    nbytes = sum(v.nbytes for v in as_views(sendbuf))
    tuning = comm.world.coll_tuning
    if nbytes >= tuning.hier_allreduce_min:
        from repro.mpi.coll.hier import allreduce_hier, hier_applicable

        if hier_applicable(comm):
            return allreduce_hier(comm, sendbuf, recvbuf, op, dtype)
    if _is_pow2(comm.size) and comm.size > 1:
        if (
            nbytes >= tuning.allreduce_rabenseifner_min
            and nbytes // _itemsize(dtype) >= comm.size
        ):
            return allreduce_rabenseifner(comm, sendbuf, recvbuf, op, dtype)
        return allreduce_recursive_doubling(comm, sendbuf, recvbuf, op, dtype)
    return _allreduce_reduce_bcast(comm, sendbuf, recvbuf, op, dtype)


def _allreduce_reduce_bcast(comm, sendbuf, recvbuf, op=None, dtype=None):
    """Reduce to rank 0 then broadcast (general fallback).  Generator."""
    from repro.mpi.coll.bcast import bcast

    yield from reduce(comm, sendbuf, recvbuf, 0, op, dtype)
    yield from bcast(comm, recvbuf, root=0)


def allreduce_recursive_doubling(comm, sendbuf, recvbuf, op=None, dtype=None):
    """Recursive doubling: log p rounds exchanging and combining the
    full vector with partner rank XOR 2^k.  Power-of-two ranks only.
    Generator."""
    op = op or _default_op
    p = comm.size
    rank = comm.rank
    if not _is_pow2(p):
        raise MpiError("recursive-doubling allreduce needs power-of-two ranks")
    send_views = as_views(sendbuf)
    recv_views = as_views(recvbuf)
    nbytes = sum(v.nbytes for v in send_views)
    _check_elements(nbytes, dtype)

    yield from cpu_copy(comm.machine, comm.core, recv_views, send_views)
    if p == 1:
        return
    tmp = _scratch(comm, "_ar_tmp", nbytes)

    mask = 1
    step = 0
    while mask < p:
        peer = rank ^ mask
        sreq = comm.Isend(recv_views, dest=peer, tag=_ALLRED_TAG - step)
        rreq = comm.Irecv(tmp.view(0, nbytes), source=peer, tag=_ALLRED_TAG - step)
        yield from Request.waitall([sreq, rreq])
        yield from _combine(comm, recv_views, [tmp.view(0, nbytes)], op, dtype)
        mask <<= 1
        step += 1


def allreduce_rabenseifner(comm, sendbuf, recvbuf, op=None, dtype=None):
    """Rabenseifner: reduce-scatter (recursive halving) + allgather
    (recursive doubling).  Each rank combines only 2/p of the vector
    per round — the long-vector winner.  Power-of-two ranks, contiguous
    buffers.  Generator."""
    op = op or _default_op
    p = comm.size
    rank = comm.rank
    if not _is_pow2(p):
        raise MpiError("Rabenseifner allreduce needs power-of-two ranks")
    send_views = as_views(sendbuf)
    recv_views = as_views(recvbuf)
    if len(recv_views) != 1:
        yield from _allreduce_reduce_bcast(comm, send_views, recv_views, op, dtype)
        return
    recv = recv_views[0]
    nbytes = recv.nbytes
    itemsize = _check_elements(nbytes, dtype)

    yield from cpu_copy(comm.machine, comm.core, recv_views, send_views)
    if p == 1:
        return
    tmp = _scratch(comm, "_rab_tmp", nbytes)
    # Blocks split the vector on element boundaries.
    base, extra = divmod(nbytes // itemsize, p)

    def chunk(lo_block: int, count: int, of=None):
        lo = lo_block * base + min(lo_block, extra)
        hi_block = lo_block + count
        hi = hi_block * base + min(hi_block, extra)
        return (of or recv).sub(lo * itemsize, (hi - lo) * itemsize)

    # --- reduce-scatter by recursive halving --------------------------
    lo, count = 0, p  # my active block range
    mask = p >> 1
    step = 0
    while mask >= 1:
        peer = rank ^ mask
        half = count // 2
        if rank & mask:
            keep_lo, send_lo = lo + half, lo
        else:
            keep_lo, send_lo = lo, lo + half
        sreq = comm.Isend(chunk(send_lo, half), dest=peer, tag=_ALLRED_TAG - 50 - step)
        rreq = comm.Irecv(
            chunk(keep_lo, half, of=tmp.view(0, nbytes)),
            source=peer,
            tag=_ALLRED_TAG - 50 - step,
        )
        yield from Request.waitall([sreq, rreq])
        yield from _combine(
            comm,
            [chunk(keep_lo, half)],
            [chunk(keep_lo, half, of=tmp.view(0, nbytes))],
            op,
            dtype,
        )
        lo, count = keep_lo, half
        mask >>= 1
        step += 1

    # --- allgather by recursive doubling -------------------------------
    mask = 1
    step = 0
    while mask < p:
        peer = rank ^ mask
        # The sibling's range is my range reflected across this bit.
        peer_lo = _sibling_lo(lo, count, mask, rank)
        sreq = comm.Isend(chunk(lo, count), dest=peer, tag=_ALLRED_TAG - 200 - step)
        rreq = comm.Irecv(chunk(peer_lo, count), source=peer, tag=_ALLRED_TAG - 200 - step)
        yield from Request.waitall([sreq, rreq])
        lo = min(lo, peer_lo)
        count *= 2
        mask <<= 1
        step += 1


def _sibling_lo(lo: int, count: int, mask: int, rank: int) -> int:
    """During the allgather phase each rank owns an aligned range of
    ``count`` blocks; the partner (rank XOR mask) owns the sibling
    range offset by ``count`` within the 2*count-aligned group."""
    group = (lo // (2 * count)) * (2 * count)
    return group + count if lo == group else group


def reduce_scatter_block(comm, sendbuf, recvbuf, op=None, dtype=None):
    """MPI_Reduce_scatter_block: element-wise reduction of p equal
    blocks, rank j keeping block j.

    Power-of-two communicators use recursive halving (each round
    combines only the half you keep); others reduce at rank 0 and
    scatter.  Generator.
    """
    op = op or _default_op
    p = comm.size
    rank = comm.rank
    send_views = as_views(sendbuf)
    recv_views = as_views(recvbuf)
    total = sum(v.nbytes for v in send_views)
    if total % p:
        raise MpiError(f"reduce_scatter payload of {total}B not divisible by {p}")
    block = total // p
    _check_elements(block, dtype, what="reduce_scatter block")
    if sum(v.nbytes for v in recv_views) < block:
        raise MpiError("reduce_scatter receive buffer smaller than one block")

    if not _is_pow2(p) or len(send_views) != 1 or p == 1:
        # Fallback: full reduce at 0, then a linear scatter of the blocks.
        full = _scratch(comm, "_rs_full", total)
        yield from reduce(
            comm, send_views, full.view(0, total) if rank == 0 else None, 0, op, dtype
        )
        if rank != 0:
            yield comm.Recv(recv_views, source=0, tag=_SCATTER_TAG)
            return
        requests = [
            comm.Isend(full.view(dst * block, block), dest=dst, tag=_SCATTER_TAG)
            for dst in range(1, p)
        ]
        yield from cpu_copy(comm.machine, comm.core, recv_views, [full.view(0, block)])
        yield from Request.waitall(requests)
        return

    work = _scratch(comm, "_rs_work", total)
    tmp = _scratch(comm, "_rs_tmp", total)
    yield from cpu_copy(
        comm.machine, comm.core, [work.view(0, total)], send_views
    )

    lo, count = 0, p
    mask = p >> 1
    step = 0
    while mask >= 1:
        peer = rank ^ mask
        half = count // 2
        if rank & mask:
            keep_lo, send_lo = lo + half, lo
        else:
            keep_lo, send_lo = lo, lo + half
        sreq = comm.Isend(
            work.view(send_lo * block, half * block),
            dest=peer,
            tag=_REDUCE_TAG - 300 - step,
        )
        rreq = comm.Irecv(
            tmp.view(keep_lo * block, half * block),
            source=peer,
            tag=_REDUCE_TAG - 300 - step,
        )
        yield from Request.waitall([sreq, rreq])
        yield from _combine(
            comm,
            [work.view(keep_lo * block, half * block)],
            [tmp.view(keep_lo * block, half * block)],
            op,
            dtype,
        )
        lo, count = keep_lo, half
        mask >>= 1
        step += 1

    assert lo == rank and count == 1
    yield from cpu_copy(
        comm.machine,
        comm.core,
        _clip(recv_views, block),
        [work.view(rank * block, block)],
    )


def _clip(views, nbytes):
    out = []
    left = nbytes
    for v in views:
        if left <= 0:
            break
        n = min(v.nbytes, left)
        out.append(v.sub(0, n))
        left -= n
    return out
