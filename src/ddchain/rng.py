"""Deterministic random streams for disorder sampling.

Every random number used by this package comes from the splitmix64
generator below, keyed by a 64-bit seed plus small integer stream tags.
The full mapping (seed, tags, draw index) -> double is fixed by this
module alone, so disorder realizations are bit-for-bit reproducible
across runs, processes, and platforms. Library RNGs are deliberately
not used: their streams are not a stable contract.
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

    def uniform_open_vector(self, n: int) -> np.ndarray:
        """The next ``n`` doubles of the stream, uniform on the open interval (-1, 1).

        Draw i (i = 1..n) is the output mix64(state + i * golden) of one
        splitmix64 advance. Its top 53 bits k give the odd numerator
        2k+1, so the draw is (2k + 1 - 2^53) / 2^53: symmetric about zero
        and strictly inside (-1, 1), with every value exactly
        representable. All n draws are one uint64 array expression, and
        the state moves on by n advances.
        """
        x = mix64(np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN + self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return (((x >> 11) << 1 | 1).astype(np.int64) - (1 << 53)).astype(float) / _SCALE
