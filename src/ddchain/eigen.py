"""Spectral decomposition of real symmetric tridiagonal Hamiltonians.

Backed by LAPACK's divide-and-conquer solver through ``np.linalg.eigh``,
which runs ``dsyevd`` on the dense matrix. Its Householder reduction
leaves a matrix that is already tridiagonal exactly as it is (every
reflector is the identity), and it then calls the same ``dstedc`` as the
tridiagonal driver ``dstevd``, so the eigenpairs are ``dstevd``'s bits
without loading scipy. Eigenvalues come back ascending with a full
orthonormal eigenvector matrix, which is what the spectral propagator
needs. Eigenvector signs are whatever LAPACK returns: every use
(V f(E) V^T, V_f^T V_p, squared rows, moduli) is exactly invariant under
flipping a column, so no sign convention is imposed. ``phases`` forms
every array of spectral phases exp(-i E t), and refuses an overflowing E t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def decompose(h: TridiagonalHamiltonian) -> SpectralDecomposition:
    """Full spectral decomposition of ``h``, bit for bit LAPACK ``dstevd``'s.

    The dense matrix is filled entry by entry, never summed, so it holds
    exactly the entries of ``h``. A diagonal holding -0.0 is the one known
    case whose bits can differ from ``dstevd``'s (by up to 7e-10 on
    zero-diagonal chains); the model's builders add their offsets to
    zeros, so they never make one.
    The eigenvectors come back as a Fortran-ordered copy, the layout
    ``dstevd`` returns: the propagator's products pick their BLAS kernels
    by memory order, and a C-ordered basis changes their bits.

    Deterministic for identical input at a given BLAS thread count. For
    a few hundred sites and more, the threaded merge products make the
    eigenvector bits depend on that count as well.

    Raises NumericalError if the eigensolver fails to converge.
    """
    n = h.size
    matrix = np.diag(h.diagonal)
    rows = np.arange(n - 1)
    matrix[rows + 1, rows] = matrix[rows, rows + 1] = h.off_diagonal
    try:
        eigenvalues, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolver failed for size {n}: {exc}") from exc
    vectors = vectors.copy(order="F")
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralDecomposition(eigenvalues, vectors)


def phases(rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i rate t) for each rate (row) and time (column); NumericalError on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at an infinite eigenvalue
        products = np.outer(rates, times)
    if not np.isfinite(products).all():
        raise NumericalError("a spectral phase E t overflows")
    return np.exp(-1j * products)


def spectral_sum(energies: np.ndarray, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k weights[k] exp(-i energies[k] t) at each t of ``times``, over blocks of _CHUNK."""
    t = np.asarray(times, dtype=float)
    out = np.empty(len(t), dtype=complex)
    for s in range(0, len(t), _CHUNK):
        out[s : s + _CHUNK] = phases(t[s : s + _CHUNK], energies) @ weights
    return out

