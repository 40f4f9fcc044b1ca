import numpy as np

from ddchain.rng import SplitMix64, derive_seed, mix64

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


class ScalarSplitMix64:
    """Reference splitmix64 stream, one draw per call, for the vector draws."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def uniform_open(self):
        # The top 53 bits k give the odd numerator: (2k + 1 - 2^53) / 2^53.
        k = self.next_u64() >> 11
        return ((k << 1) + 1 - (1 << 53)) / float(1 << 53)


def test_known_splitmix64_stream():
    # Reference outputs of splitmix64 for seed 0 (first three draws).
    gen = ScalarSplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_uniform_open_strictly_inside_interval():
    gen = SplitMix64(123)
    draws = gen.uniform_open_vector(20000)
    assert np.all(draws > -1.0)
    assert np.all(draws < 1.0)
    assert abs(draws.mean()) < 0.02  # loose sanity on symmetry


def test_streams_are_deterministic():
    a = SplitMix64(99).uniform_open_vector(64)
    b = SplitMix64(99).uniform_open_vector(64)
    assert np.array_equal(a, b)


def test_derived_streams_differ_by_tag():
    base = 2024
    s1 = SplitMix64(derive_seed(base, 1)).uniform_open_vector(16)
    s2 = SplitMix64(derive_seed(base, 2)).uniform_open_vector(16)
    assert not np.array_equal(s1, s2)


def test_derive_seed_depends_on_all_tags():
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) == derive_seed(5, 1)


def test_mix64_is_stable():
    # Pins the mixing function so derived seeds never drift.
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF


def test_uniform_open_vector_matches_scalar_draws():
    # The array expression against the scalar reference stream, bit for
    # bit, and both leave the stream at the same state.
    for seed in (0, 1, 2024, 0x9E3779B97F4A7C15, 2**64 - 1):
        for n in (0, 1, 129, 20000):
            vector, scalar = SplitMix64(seed), ScalarSplitMix64(seed)
            draws = vector.uniform_open_vector(n)
            expected = np.array([scalar.uniform_open() for _ in range(n)], dtype=float)
            assert draws.dtype == np.float64 and draws.shape == (n,)
            assert draws.tobytes() == expected.tobytes(), (seed, n)
            assert vector._state == scalar.state, (seed, n)
