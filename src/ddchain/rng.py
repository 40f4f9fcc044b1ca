"""Deterministic random streams for disorder sampling.

Every random number used by this package comes from the splitmix64
generator below, keyed by a 64-bit seed plus small integer stream tags.
The full mapping (seed, tags, draw index) -> double is fixed by this
module alone, so disorder realizations are bit-for-bit reproducible
across runs, processes, and platforms. Library RNGs are deliberately
not used: their streams are not a stable contract.

Uniform doubles on the open interval (-1, 1) are produced from the top
53 bits of each 64-bit output, mapped to odd multiples of 2^-53. The
endpoints are unreachable by construction.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SCALE = float(1 << 53)


def mix64(x):
    """splitmix64 finalizer: a bijective 64-bit mixing function (elementwise on uint64 arrays)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent sub-seed from a base seed and integer tags.

    Each tag is folded in through one splitmix64 advance-and-mix round,
    so (seed, tag_a) and (seed, tag_b) streams are decorrelated for
    tag_a != tag_b. Used to give each sampling purpose (static bonds,
    site energies, per-period noise, ...) its own stream.
    """
    s = seed & _MASK64
    for t in tags:
        s = mix64((s + _GOLDEN + (t & _MASK64)) & _MASK64)
    return s


class SplitMix64:
    """Minimal splitmix64 stream: 64-bit state, one output per advance."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform_open(self) -> float:
        """One double, uniform on the open interval (-1, 1).

        The 53 top bits k give the odd numerator 2k+1, so the result is
        (2k + 1 - 2^53) / 2^53: symmetric about zero and strictly inside
        (-1, 1), with every value exactly representable.
        """
        k = self.next_u64() >> 11
        return ((k << 1) + 1 - (1 << 53)) / _SCALE

    def uniform_open_vector(self, n: int) -> np.ndarray:
        """The next ``n`` draws of ``uniform_open``, as one uint64 array expression."""
        x = mix64(np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN + self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return (((x >> 11) << 1 | 1).astype(np.int64) - (1 << 53)).astype(float) / _SCALE
