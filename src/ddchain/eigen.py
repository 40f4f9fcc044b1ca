"""Spectral decomposition of real symmetric tridiagonal Hamiltonians.

Backed by LAPACK through ``scipy.linalg.eigh_tridiagonal``; the wrapper
adds a deterministic eigenvector sign convention and maps solver
failures onto the package error type. Eigenvalues come back ascending
with a full orthonormal eigenvector matrix, which is what the spectral
propagator needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .model import TridiagonalHamiltonian

# Times per block in spectral_sum: its exponential block is at most _CHUNK x N.
_CHUNK = 4096


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and the matrix whose column k is the unit
    eigenvector for eigenvalue k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


def decompose(h: TridiagonalHamiltonian) -> SpectralDecomposition:
    """Full spectral decomposition of ``h``.

    Deterministic for identical input: each eigenvector is flipped so
    that its first non-negligible component is positive.

    Raises NumericalError if the underlying eigensolver fails to
    converge.
    """
    try:
        eigenvalues, vectors = scipy.linalg.eigh_tridiagonal(h.diagonal, h.off_diagonal)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"tridiagonal eigensolver failed for size {h.size}: {exc}") from exc
    _canonicalize_signs(vectors)
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralDecomposition(eigenvalues, vectors)


def spectral_sum(energies: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * exp(-i energies[k] t) at each t of ``times``,
    evaluated over blocks of _CHUNK times."""
    t = np.asarray(times, dtype=float)
    out = np.empty(len(t), dtype=complex)
    for s in range(0, len(t), _CHUNK):
        out[s : s + _CHUNK] = np.exp(-1j * np.outer(t[s : s + _CHUNK], energies)) @ weights
    return out


def _canonicalize_signs(vectors: np.ndarray) -> None:
    # First component of each column whose magnitude is non-negligible
    # (relative to the column max) decides the sign.
    absv = np.abs(vectors)
    lead = np.argmax(absv > 1e-12 * absv.max(axis=0), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] = -vectors[:, flip]
