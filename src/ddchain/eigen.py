"""Spectral decomposition of real symmetric tridiagonal Hamiltonians.

Backed by LAPACK's divide-and-conquer solver ``dstevd``, called directly
through ``scipy.linalg.lapack`` so the driver (and so the bytes) does not
follow scipy's choice for ``eigh_tridiagonal``; the wrapper maps solver
failures onto the package error type. Eigenvalues come back ascending
with a full orthonormal eigenvector matrix, which is what the spectral
propagator needs. Eigenvector signs are whatever LAPACK returns: every
use (V f(E) V^T, V_f^T V_p, squared rows, moduli) is exactly invariant
under flipping a column, so no sign convention is imposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

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
    """Full spectral decomposition of ``h`` by LAPACK ``dstevd``.

    Deterministic for identical input at a given BLAS thread count. For
    a few hundred sites and more, dstevd's threaded merge products make
    the eigenvector bits depend on that count as well.

    Raises NumericalError if the eigensolver fails to converge.
    """
    if h.size == 1:  # the wrapper rejects an empty off-diagonal
        eigenvalues, vectors = h.diagonal.copy(), np.ones((1, 1))
    else:
        eigenvalues, vectors, info = scipy.linalg.lapack.dstevd(h.diagonal, h.off_diagonal)
        if info != 0:
            raise NumericalError(f"tridiagonal eigensolver failed for size {h.size}: info={info}")
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

