import math

import numpy as np
import pytest
import scipy.linalg

from ddchain.eigen import _CHUNK, _canonicalize_signs, decompose, spectral_sum
from ddchain.model import TridiagonalHamiltonian


def random_tridiagonal(rng, n):
    return TridiagonalHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n - 1))


def dense(h):
    mat = np.diag(h.diagonal)
    mat += np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)
    return mat


def test_two_site_analytic():
    dec = decompose(TridiagonalHamiltonian(np.zeros(2), np.ones(1)))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    s = 1 / math.sqrt(2)
    assert np.allclose(dec.eigenvectors[:, 0], [s, -s], atol=1e-12)
    assert np.allclose(dec.eigenvectors[:, 1], [s, s], atol=1e-12)


def test_three_site_analytic():
    # Characteristic polynomial x^3 - 2x = 0 has roots -sqrt(2), 0, +sqrt(2).
    dec = decompose(TridiagonalHamiltonian(np.zeros(3), np.ones(2)))
    assert np.allclose(dec.eigenvalues, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_open_chain_closed_form_spectrum():
    # Zero diagonal with uniform coupling J has eigenvalues 2J cos(k pi / (n+1)).
    n, j = 129, 1.0
    dec = decompose(TridiagonalHamiltonian(np.zeros(n), np.full(n - 1, j)))
    exact = np.sort(2 * j * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.abs(dec.eigenvalues - exact).max() <= 1e-10


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(5)
    dec = decompose(random_tridiagonal(rng, 60))
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_orthonormality_residual_reconstruction_trace():
    rng = np.random.default_rng(17)
    for n in (2, 3, 7, 50, 200):
        h = random_tridiagonal(rng, n)
        dec = decompose(h)
        v = dec.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-10
        mat = dense(h)
        residual = mat @ v - v * dec.eigenvalues
        bound = 1e-10 * (1 + np.abs(dec.eigenvalues))
        assert np.all(np.abs(residual).max(axis=0) <= bound)
        assert np.abs((v * dec.eigenvalues) @ v.T - mat).max() <= 1e-9
        scale = max(1.0, np.abs(h.diagonal).sum())
        assert abs(dec.eigenvalues.sum() - h.diagonal.sum()) <= 1e-9 * scale


def test_sign_convention_first_significant_component_positive():
    rng = np.random.default_rng(23)
    dec = decompose(random_tridiagonal(rng, 40))
    for k in range(40):
        col = dec.eigenvectors[:, k]
        lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
        assert lead > 0


def test_sign_convention_with_decoupled_blocks():
    # A zero coupling makes some eigenvectors start with exact zeros.
    dec = decompose(TridiagonalHamiltonian(np.array([0.3, 0.1]), np.zeros(1)))
    assert np.allclose(dec.eigenvalues, [0.1, 0.3], atol=1e-15)
    assert np.allclose(dec.eigenvectors[:, 0], [0.0, 1.0], atol=1e-15)
    assert np.allclose(dec.eigenvectors[:, 1], [1.0, 0.0], atol=1e-15)


def canonicalize_signs_loop(vectors):
    # Reference: scan each column for its first non-negligible component.
    absv = np.abs(vectors)
    cutoff = 1e-12 * absv.max(axis=0)
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        for i in range(vectors.shape[0]):
            if absv[i, k] > cutoff[k]:
                if col[i] < 0:
                    np.negative(col, out=col)
                break


def assert_canonicalization_matches_loop(vectors):
    expected = vectors.copy()
    canonicalize_signs_loop(expected)
    _canonicalize_signs(vectors)
    assert vectors.tobytes() == expected.tobytes()


def test_vectorized_signs_match_loop_on_random_matrices():
    rng = np.random.default_rng(41)
    for n in (1, 2, 5, 40):
        mat = rng.standard_normal((n, n))
        # Leading exact zeros and sub-cutoff dust in some columns.
        mat[: n // 2, ::3] = 0.0
        mat[: n // 3, 1::4] = 1e-14
        assert_canonicalization_matches_loop(mat)


def test_vectorized_signs_match_loop_on_decoupled_blocks():
    rng = np.random.default_rng(43)
    for n in (2, 6, 30):
        off = rng.uniform(-2, 2, n - 1)
        off[:: max(1, n // 3)] = 0.0
        _, vectors = scipy.linalg.eigh_tridiagonal(rng.uniform(-2, 2, n), off)
        assert np.any(vectors[0] == 0.0)
        assert_canonicalization_matches_loop(vectors)


def test_single_site():
    dec = decompose(TridiagonalHamiltonian(np.array([0.7]), np.zeros(0)))
    assert dec.eigenvalues[0] == pytest.approx(0.7, abs=1e-15)
    assert dec.eigenvectors[0, 0] == 1.0


def test_decomposition_is_deterministic():
    rng = np.random.default_rng(31)
    h = random_tridiagonal(rng, 80)
    a = decompose(h)
    b = decompose(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_spectral_sum_matches_one_dense_product_bitwise():
    rng = np.random.default_rng(4)
    energies = np.sort(rng.uniform(-2, 2, 33))
    weights = rng.uniform(-1, 1, 33) + 1j * rng.uniform(-1, 1, 33)
    times = np.arange(2 * _CHUNK + 3) * 0.01
    dense_sum = np.exp(-1j * np.outer(times, energies)) @ weights
    assert spectral_sum(energies, weights, times).tobytes() == dense_sum.tobytes()
    assert spectral_sum(energies, weights, np.array([])).shape == (0,)
