"""Pinned IMB PingPong timings of the five offloaded LMT modes.

vmsplice-ioat, knem-ioat and knem-ioat-async run on the paper's Xeon
E5345 and submit to its I/OAT engine; dsa and dsa-auto run on the
modern preset and submit to its DSA engine.  A change to descriptor
splitting, doorbell cost, queue routing or the status line of either
engine shows here as a changed ``repr``.  The sizes straddle the
64 KiB I/OAT descriptor, the 2 MiB DSA descriptor and an unaligned
tail; the bindings share a die or cross the sockets.
"""

import pytest

from repro.bench.imb import imb_pingpong
from repro.hw import modern_server, xeon_e5345

TOPOS = {
    "vmsplice-ioat": xeon_e5345,
    "knem-ioat": xeon_e5345,
    "knem-ioat-async": xeon_e5345,
    "dsa": modern_server,
    "dsa-auto": modern_server,
}

#: (mode, nbytes, bindings) -> (one_way_seconds, l2_misses) at the
#: default warmup and repetitions.
PINNED = {
    ("vmsplice-ioat", 69632, (0, 1)): (3.288201845366374e-05, 0.0),
    ("vmsplice-ioat", 69632, (0, 4)): (3.45820184536638e-05, 0.0),
    ("vmsplice-ioat", 262144, (0, 1)): (0.00010360642241379361, 0.0),
    ("vmsplice-ioat", 262144, (0, 4)): (0.00010530642241379352, 0.0),
    ("vmsplice-ioat", 3145828, (0, 1)): (0.001194689183537018, 0.0),
    ("vmsplice-ioat", 3145828, (0, 4)): (0.0011963891835370182, 0.0),
    ("vmsplice-ioat", 9437184, (0, 1)): (0.003568131206896565, 0.0),
    ("vmsplice-ioat", 9437184, (0, 4)): (0.0035698312068965614, 0.0),
    ("knem-ioat", 69632, (0, 1)): (3.241201845366379e-05, 0.0),
    ("knem-ioat", 69632, (0, 4)): (3.32620184536638e-05, 0.0),
    ("knem-ioat", 262144, (0, 1)): (0.00010763642241379307, 0.0),
    ("knem-ioat", 262144, (0, 4)): (0.000108486422413793, 0.0),
    ("knem-ioat", 3145828, (0, 1)): (0.0012647191835370624, 0.0),
    ("knem-ioat", 3145828, (0, 4)): (0.0012655691835370627, 0.0),
    ("knem-ioat", 9437184, (0, 1)): (0.0037821612068964076, 0.0),
    ("knem-ioat", 9437184, (0, 4)): (0.003783011206896406, 0.0),
    ("knem-ioat-async", 69632, (0, 1)): (3.4932571779448404e-05, 0.0),
    ("knem-ioat-async", 69632, (0, 4)): (3.578257177944841e-05, 0.0),
    ("knem-ioat-async", 262144, (0, 1)): (0.00011015697573957772, 0.0),
    ("knem-ioat-async", 262144, (0, 4)): (0.00011100697573957769, 0.0),
    ("knem-ioat-async", 3145828, (0, 1)): (0.0012672397368628464, 0.0),
    ("knem-ioat-async", 3145828, (0, 4)): (0.0012680897368628468, 0.0),
    ("knem-ioat-async", 9437184, (0, 1)): (0.0037846817602221936, 0.0),
    ("knem-ioat-async", 9437184, (0, 4)): (0.003785531760222191, 0.0),
    ("dsa", 69632, (0, 1)): (9.630000000000001e-06, 0.0),
    ("dsa", 69632, (0, 4)): (9.630000000000001e-06, 0.0),
    ("dsa", 262144, (0, 1)): (2.7150000000000037e-05, 0.0),
    ("dsa", 262144, (0, 4)): (2.7150000000000037e-05, 0.0),
    ("dsa", 3145828, (0, 1)): (0.000274949999999995, 0.0),
    ("dsa", 3145828, (0, 4)): (0.000274949999999995, 0.0),
    ("dsa", 9437184, (0, 1)): (0.0008105499999999819, 0.0),
    ("dsa", 9437184, (0, 4)): (0.0008105499999999819, 0.0),
    ("dsa-auto", 69632, (0, 1)): (6.6320772298177196e-06, 0.0),
    ("dsa-auto", 69632, (0, 4)): (6.6320772298177196e-06, 0.0),
    ("dsa-auto", 262144, (0, 1)): (1.786252604166667e-05, 0.0),
    ("dsa-auto", 262144, (0, 4)): (1.786252604166667e-05, 0.0),
    ("dsa-auto", 3145828, (0, 1)): (0.0001861652795537284, 0.0),
    ("dsa-auto", 3145828, (0, 4)): (0.0001861652795537284, 0.0),
    ("dsa-auto", 9437184, (0, 1)): (0.0008105499999999819, 0.0),
    ("dsa-auto", 9437184, (0, 4)): (0.0008105499999999819, 0.0),
}


@pytest.mark.parametrize("mode, nbytes, bindings", list(PINNED))
def test_offload_pingpong_timing_is_pinned(mode, nbytes, bindings):
    seconds, misses = PINNED[mode, nbytes, bindings]
    result = imb_pingpong(TOPOS[mode](), nbytes, mode=mode, bindings=bindings)
    assert repr(result) == (
        f"PingPongResult(nbytes={nbytes}, mode={mode!r}, bindings={bindings}, "
        f"repetitions=6, one_way_seconds={seconds!r}, l2_misses={misses!r})"
    )
