"""Alltoall and alltoallv with MPICH2-style algorithm selection.

- **tiny blocks**: Bruck's algorithm — log2(p) rounds, each packing
  the blocks whose destination has bit k set into one combined message
  (latency-optimal; pays three local data rotations);
- **medium blocks** (up to 32 KiB): the *scattered* algorithm — post
  every irecv and isend at once, then wait.  All p-1 incoming messages
  converge on each receiver's single queue simultaneously, so the eager
  path's cell traffic and queue serialization dominate — this is the
  regime where Fig. 7 shows KNEM "up to five times" ahead of the
  default.
- **large blocks**: pairwise exchange — p-1 rounds, one distinct peer
  per round (XOR schedule on power-of-two communicators).  All p-1
  transfers of a round are in flight across the node, which saturates
  the memory system and drops the effective I/OAT threshold
  (Sec. 4.4).
"""

from __future__ import annotations

from repro.errors import MpiError
from repro.kernel.copy import cpu_copy
from repro.mpi.datatypes import as_views
from repro.mpi.request import Request
from repro.units import KiB

__all__ = [
    "alltoall",
    "alltoallv",
    "alltoall_bruck",
    "alltoall_scattered",
    "alltoall_pairwise",
    "MEDIUM_BLOCK_MAX",
]

_A2A_TAG = -7000
_A2AV_TAG = -8000
_BRUCK_TAG = -7500

#: Largest per-pair block handled by the scattered algorithm.
MEDIUM_BLOCK_MAX = 32 * KiB


def _blocks(buf, p: int):
    """Split a buffer argument into p equal per-rank block view-lists."""
    views = as_views(buf)
    total = sum(v.nbytes for v in views)
    if total % p:
        raise MpiError(f"buffer of {total}B not divisible into {p} blocks")
    block = total // p
    if len(views) == 1:
        base = views[0]
        return [[base.sub(i * block, block)] for i in range(p)], block
    # General iovec: walk and slice.
    out = []
    vi, voff = 0, 0
    for _ in range(p):
        need = block
        pieces = []
        while need > 0:
            v = views[vi]
            n = min(need, v.nbytes - voff)
            pieces.append(v.sub(voff, n))
            voff += n
            need -= n
            if voff >= v.nbytes:
                vi += 1
                voff = 0
        out.append(pieces)
    return out, block


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def alltoall(comm, sendbuf, recvbuf):
    """Alltoall of equal blocks — the algorithm selector.

    Plain function: picks by per-pair block size and returns the chosen
    algorithm's generator (whose ``__name__`` identifies the choice).
    """
    p = comm.size
    _, block = _blocks(sendbuf, p)
    tuning = comm.world.coll_tuning
    if p > 2 and block <= tuning.alltoall_bruck_max:
        return alltoall_bruck(comm, sendbuf, recvbuf)
    if block <= tuning.alltoall_medium_max:
        return alltoall_scattered(comm, sendbuf, recvbuf)
    return alltoall_pairwise(comm, sendbuf, recvbuf)


def alltoall_scattered(comm, sendbuf, recvbuf):
    """Scattered alltoall: every irecv and isend posted at once.
    Generator."""
    p = comm.size
    rank = comm.rank
    send_blocks, _ = _blocks(sendbuf, p)
    recv_blocks, _ = _blocks(recvbuf, p)

    # Own block: local copy.
    yield from cpu_copy(
        comm.machine, comm.core, recv_blocks[rank], send_blocks[rank]
    )
    if p == 1:
        return

    with comm.world.collective_hint(p - 1):
        requests = []
        for step in range(1, p):
            peer = rank ^ step if _is_pow2(p) else (rank - step) % p
            requests.append(
                comm.Irecv(recv_blocks[peer], source=peer, tag=_A2A_TAG)
            )
        for step in range(1, p):
            peer = rank ^ step if _is_pow2(p) else (rank + step) % p
            requests.append(
                comm.Isend(send_blocks[peer], dest=peer, tag=_A2A_TAG)
            )
        yield from Request.waitall(requests)


def alltoall_pairwise(comm, sendbuf, recvbuf):
    """Pairwise-exchange alltoall: one distinct peer per round.
    Generator."""
    p = comm.size
    rank = comm.rank
    send_blocks, _ = _blocks(sendbuf, p)
    recv_blocks, _ = _blocks(recvbuf, p)

    yield from cpu_copy(
        comm.machine, comm.core, recv_blocks[rank], send_blocks[rank]
    )
    if p == 1:
        return

    with comm.world.collective_hint(p - 1):
        for step in range(1, p):
            if _is_pow2(p):
                send_to = recv_from = rank ^ step
            else:
                send_to = (rank + step) % p
                recv_from = (rank - step) % p
            rreq = comm.Irecv(
                recv_blocks[recv_from], source=recv_from, tag=_A2A_TAG + step
            )
            sreq = comm.Isend(
                send_blocks[send_to], dest=send_to, tag=_A2A_TAG + step
            )
            yield from Request.waitall([sreq, rreq])


def alltoall_bruck(comm, sendbuf, recvbuf):
    """Bruck's alltoall for tiny blocks.  Generator.

    Phase 1: local rotation (block j of my send buffer conceptually
    moves to position (j - rank) mod p).  Phase 2: log2-ceil(p) rounds;
    in round k every rank ships the rotated blocks whose index has bit
    k set to rank + 2^k.  Phase 3: inverse rotation into the receive
    buffer.  The rotations are real (timed) local copies — Bruck trades
    bandwidth for latency, which is why it only wins for tiny payloads.
    """
    p = comm.size
    rank = comm.rank
    machine = comm.machine
    send_blocks, block = _blocks(sendbuf, p)
    recv_blocks, _ = _blocks(recvbuf, p)

    # Working store: rotated blocks + a staging area for each round.
    store = comm.world.spaces[comm.world_rank].alloc(
        block * p, name=f"bruck.store.r{comm.rank}"
    )
    stage_in = comm.world.spaces[comm.world_rank].alloc(
        block * p, name=f"bruck.in.r{comm.rank}"
    )

    def store_block(i):
        return store.view(i * block, block)

    # Phase 1: rotation — store[j] = send_block[(rank + j) mod p].
    for j in range(p):
        yield from cpu_copy(
            machine, comm.core, [store_block(j)], send_blocks[(rank + j) % p]
        )

    # Phase 2: log rounds.
    mask = 1
    round_no = 0
    while mask < p:
        dest = (rank + mask) % p
        source = (rank - mask) % p
        indices = [j for j in range(p) if j & mask]
        sreq = comm.Isend(
            [store_block(j) for j in indices],
            dest=dest,
            tag=_BRUCK_TAG - round_no,
        )
        stage_views = [
            stage_in.view(k * block, block) for k in range(len(indices))
        ]
        rreq = comm.Irecv(stage_views, source=source, tag=_BRUCK_TAG - round_no)
        yield from Request.waitall([sreq, rreq])
        for k, j in enumerate(indices):
            yield from cpu_copy(machine, comm.core, [store_block(j)], [stage_views[k]])
        mask <<= 1
        round_no += 1

    # Phase 3: inverse rotation — recv_block[(rank - j) mod p] = store[j].
    for j in range(p):
        yield from cpu_copy(
            machine, comm.core, recv_blocks[(rank - j) % p], [store_block(j)]
        )


def alltoallv(comm, sendbuf, send_counts, recvbuf, recv_counts):
    """Pairwise-exchange alltoall with per-peer byte counts.

    ``send_counts[j]`` bytes go to rank j (packed consecutively in
    ``sendbuf``); ``recv_counts[j]`` bytes arrive from rank j (packed
    consecutively in ``recvbuf``).  Generator.
    """
    p = comm.size
    rank = comm.rank
    if len(send_counts) != p or len(recv_counts) != p:
        raise MpiError("alltoallv counts must have one entry per rank")
    send_views = as_views(sendbuf)
    recv_views = as_views(recvbuf)
    if len(send_views) != 1 or len(recv_views) != 1:
        raise MpiError("alltoallv requires contiguous buffers")
    sv, rv = send_views[0], recv_views[0]
    if sum(send_counts) > sv.nbytes or sum(recv_counts) > rv.nbytes:
        raise MpiError("alltoallv counts exceed buffer size")

    send_off = [0] * p
    recv_off = [0] * p
    for j in range(1, p):
        send_off[j] = send_off[j - 1] + send_counts[j - 1]
        recv_off[j] = recv_off[j - 1] + recv_counts[j - 1]

    def sblock(j):
        return sv.sub(send_off[j], send_counts[j])

    def rblock(j):
        return rv.sub(recv_off[j], recv_counts[j])

    if send_counts[rank]:
        yield from cpu_copy(
            comm.machine, comm.core, [rblock(rank)], [sblock(rank)]
        )
    if p == 1:
        return

    with comm.world.collective_hint(p - 1):
        for step in range(1, p):
            if _is_pow2(p):
                peer = rank ^ step
                send_to = recv_from = peer
            else:
                send_to = (rank + step) % p
                recv_from = (rank - step) % p
            requests = []
            if recv_counts[recv_from]:
                requests.append(
                    comm.Irecv(
                        [rblock(recv_from)], source=recv_from, tag=_A2AV_TAG + step
                    )
                )
            if send_counts[send_to]:
                requests.append(
                    comm.Isend([sblock(send_to)], dest=send_to, tag=_A2AV_TAG + step)
                )
            if requests:
                yield from Request.waitall(requests)
