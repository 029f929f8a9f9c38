"""``Pcg64Stream`` against numpy's ``default_rng``, bit for bit.

The noise and fault streams draw from :class:`repro.sim.rng.Pcg64Stream`
instead of numpy, and every committed simulated number (golden outputs,
trial hashes, campaign documents) assumes numpy's exact stream.  These
checks pin each part — SeedSequence, PCG64 words, uniform doubles, the
ziggurat normal and lognormal — to numpy.  numpy is imported here only.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.rng import Pcg64Stream, check_seed

ENTROPY = [0, 2**32, 2**64 + 3, [0, 0, 1], [3, 1, 0], [2**33 + 5, 7, 2]]


class BranchProbe(Pcg64Stream):
    """Counts the ziggurat's slow paths: every ``random()`` inside
    ``standard_normal`` is a tail draw when the strip index of the last
    top-level word is 0, else a wedge test."""

    def __init__(self, entropy) -> None:
        super().__init__(entropy)
        self.top = 0
        self.tail = self.wedge = 0
        self._nested = False

    def next_uint64(self) -> int:
        word = super().next_uint64()
        if not self._nested:
            self.top = word
        return word

    def random(self) -> float:
        self._nested = True
        try:
            u = super().random()
        finally:
            self._nested = False
        if self.top & 0xFF == 0:
            self.tail += 1
        else:
            self.wedge += 1
        return u


@pytest.mark.parametrize("entropy", ENTROPY, ids=str)
def test_raw_words_and_uniforms_match_numpy(entropy):
    ours = Pcg64Stream(entropy)
    bits = np.random.default_rng(entropy).bit_generator
    assert [ours.next_uint64() for _ in range(2000)] == bits.random_raw(2000).tolist()
    ours, theirs = Pcg64Stream(entropy), np.random.default_rng(entropy)
    assert [ours.random() for _ in range(2000)] == theirs.random(2000).tolist()


def test_normals_and_lognormals_match_numpy_through_both_slow_paths():
    tail = wedge = 0
    for entropy in ENTROPY:
        ours, theirs = BranchProbe(entropy), np.random.default_rng(entropy)
        n = 25_000
        assert [ours.standard_normal() for _ in range(n)] == (
            theirs.standard_normal(n).tolist()
        )
        for sigma in (0.02, 0.5):
            assert [ours.lognormal(sigma) for _ in range(2000)] == (
                theirs.lognormal(0.0, sigma, 2000).tolist()
            )
        tail += ours.tail
        wedge += ours.wedge
    assert tail >= 1 and wedge >= 1


def test_scalar_draws_match_numpy_scalar_calls():
    # The simulator draws one value per call, as these numpy calls do.
    ours, theirs = Pcg64Stream(7), np.random.default_rng(7)
    for _ in range(200):
        assert ours.lognormal(0.02) == theirs.lognormal(mean=0.0, sigma=0.02)
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("bad", [-1, 1.0, True, "3", None])
def test_check_seed_rejects_non_seeds(bad):
    with pytest.raises(SimulationError, match="Thing.seed"):
        check_seed("Thing.seed", bad)


def test_check_seed_takes_numpy_integers():
    assert check_seed("seed", np.uint64(2**63)) == 2**63
    assert type(check_seed("seed", np.int32(5))) is int


@pytest.mark.parametrize("bad", [[1, -2, 3], "3", 1.5, [1, "2"]])
def test_stream_rejects_bad_entropy(bad):
    with pytest.raises(SimulationError):
        Pcg64Stream(bad)
