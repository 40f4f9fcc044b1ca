import math

import numpy as np
import pytest
import scipy.linalg

import ddchain.kernel
import ddchain.propagate
from ddchain.eigen import _CHUNK, SpectralDecomposition, decompose, phases, spectral_sum
from ddchain.errors import NumericalError
from ddchain.kernel import kernel_values
from ddchain.model import (
    ChainSpec,
    PulseSpec,
    TridiagonalHamiltonian,
    build_controlled_hamiltonian,
    build_free_hamiltonian,
    environment_block,
    sample_period_noise,
    sample_static_disorder,
)
from ddchain.propagate import final_fidelities, run_protocol, site_amplitude_trace
from ddchain.sweeps import pq_check


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
    v = dec.eigenvectors * np.sign(dec.eigenvectors[0])  # no sign convention
    assert np.allclose(v[:, 0], [s, -s], atol=1e-12)
    assert np.allclose(v[:, 1], [s, s], atol=1e-12)


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


def test_decoupled_blocks_eigenpairs():
    # A zero coupling splits the chain; each eigenvector lives on one site.
    dec = decompose(TridiagonalHamiltonian(np.array([0.3, 0.1]), np.zeros(1)))
    assert np.allclose(dec.eigenvalues, [0.1, 0.3], atol=1e-15)
    assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [0.0, 1.0], atol=1e-15)
    assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 25, 26, 130])
def test_decompose_is_bitwise_eigh_tridiagonal_stevd(n):
    # Chain and environment block with static disorder and one period's noise.
    chain = ChainSpec(n_sites=n + 1, static_coupling_disorder=0.4, band_broadening=0.3,
                      per_period_noise=0.2, seed=n)
    bonds, sites = sample_static_disorder(chain)
    bonds = bonds + sample_period_noise(chain, 3)
    free = build_free_hamiltonian(chain, bonds, sites)
    pulsed = build_controlled_hamiltonian(chain, PulseSpec(8.0, 1.3, 1.2, 4), bonds, sites)
    for h in (environment_block(free), free, pulsed):
        dec = decompose(h)
        w, v = scipy.linalg.eigh_tridiagonal(h.diagonal, h.off_diagonal, lapack_driver="stevd")
        assert dec.eigenvalues.tobytes() == w.tobytes()
        assert dec.eigenvectors.tobytes() == v.tobytes()


def test_eigensolver_failure_is_a_numerical_error(monkeypatch):
    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalError, match="size 4: Eigenvalues did not converge"):
        decompose(TridiagonalHamiltonian(np.zeros(4), np.ones(3)))


@pytest.mark.parametrize("n", [2, 3, 40, 130])
@pytest.mark.parametrize("disorder", [0.0, 0.3])
@pytest.mark.parametrize("psi", [0.0, 8.0])
def test_decompose_matches_lapack_dstevd(n, disorder, psi):
    # The dense eigh route against LAPACK's tridiagonal driver itself, with
    # each eigenvector column up to its sign; the propagator's products
    # expect the Fortran layout dstevd returns.
    chain = ChainSpec(n_sites=n, static_coupling_disorder=disorder, band_broadening=disorder,
                      seed=n)
    h = build_controlled_hamiltonian(chain, PulseSpec(psi, 1.3, 1.2, 4),
                                     *sample_static_disorder(chain))
    dec = decompose(h)
    w, v, info = scipy.linalg.lapack.dstevd(h.diagonal, h.off_diagonal)
    assert info == 0
    assert dec.eigenvectors.flags.f_contiguous
    assert np.abs(dec.eigenvalues - w).max() <= 1e-12
    signs = np.sign(np.sum(dec.eigenvectors * v, axis=0))
    assert np.abs(dec.eigenvectors - v * signs).max() <= 1e-12


def test_outputs_are_invariant_under_eigenvector_sign_flips(monkeypatch):
    # Every use of a basis is V f(E) V^T, V_f^T V_p, a squared first row or a
    # modulus, and negation is exact, so flipping columns changes no bit.
    chain = ChainSpec(n_sites=12, static_coupling_disorder=0.3, band_broadening=0.2, seed=5)
    noisy = ChainSpec(n_sites=12, per_period_noise=0.2, seed=6)
    pulse = PulseSpec(8.0, 1.3, 1.2, 6)
    pulses = [PulseSpec(8.0, tau, delta, 6) for tau, delta in ((1.3, 1.2), (1.0, 0.4), (0.7, 0.7))]
    env = environment_block(build_free_hamiltonian(chain, *sample_static_disorder(chain)))
    times = np.arange(300) * 0.013

    def outputs():
        pq = pq_check(chain, pulse, 0.01, 3.9)
        return [
            final_fidelities(chain, pulses)[0],
            final_fidelities(noisy, pulses)[0],
            run_protocol(noisy, pulse).fidelities,
            site_amplitude_trace(chain, pulse, 0.01, 7.8),
            site_amplitude_trace(chain, PulseSpec(0.0, 5.0, 0.0, 1), 0.01, 5.0),
            kernel_values(env, 0.9, times),
            pq.p_abs, pq.direct,
        ]

    expected = outputs()
    rng = np.random.default_rng(8)

    def flipped(h):
        dec = decompose(h)
        signs = rng.choice([-1.0, 1.0], len(dec.eigenvalues))
        return SpectralDecomposition(dec.eigenvalues, dec.eigenvectors * signs)

    for module in (ddchain.propagate, ddchain.kernel):
        monkeypatch.setattr(module, "decompose", flipped)
    got = outputs()
    for a, b in zip(expected, got):
        assert a.tobytes() == b.tobytes()


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


def test_phases_keep_the_bits_of_each_former_expression_and_refuse_overflow():
    rng = np.random.default_rng(8)
    rates, times = rng.uniform(-30, 30, 21), rng.uniform(0, 1e3, 9)
    assert phases(rates, times).tobytes() == np.exp(-1j * np.outer(rates, times)).tobytes()
    assert phases(times, rates).tobytes() == np.exp(-1j * np.outer(times, rates)).tobytes()
    column = np.exp(-1j * (rates * 1.7))[:, None]  # evolve_interval's former column
    assert phases(rates, [1.7]).tobytes() == column.tobytes()
    assert np.all(np.isfinite(phases(np.array([-1e308, 1e308]), [1.0])))
    for big in (np.array([0.5, 1e308]), np.array([-1e308, 0.0])):
        with pytest.raises(NumericalError, match="a spectral phase E t overflows"):
            phases(big, [0.0, 2.0])
        with pytest.raises(NumericalError, match="a spectral phase E t overflows"):
            phases([2.0], big)


# A pulse is a rank-one update of the free chain: H_p = H_f + psi e0 e0^T. With
# z = V_f[0], each pulsed eigenvalue lam solves 1 + psi sum_k z_k^2 / (E_k - lam)
# = 0, and column j of V_f^T V_p is +- the normalized vector z_k / (E_k - lam_j).
def pulse_pair(chain, psi):
    offsets = sample_static_disorder(chain)
    free = decompose(build_free_hamiltonian(chain, *offsets))
    pulsed = decompose(build_controlled_hamiltonian(chain, PulseSpec(psi, 1.0, 0.5, 1), *offsets))
    return free, pulsed


def test_rank_one_pulse_interlaces_the_free_spectrum():
    # Each branch of the secular function holds one root, so the pulsed
    # spectrum interlaces the free one: lam_j in [E_j, E_j+1] for psi > 0 (the
    # top one above E_max), in [E_j-1, E_j] for psi < 0. Disorder can make some
    # z_k vanish; then lam = E_k, and interlacing holds with equality.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 60),
        coupling=st.floats(-2.0, 2.0),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**64 - 1),
        psi=st.floats(-10.0, 10.0).filter(lambda v: v != 0.0),
    )
    def check(n, coupling, gamma, epsilon, seed, psi):
        chain = ChainSpec(n, coupling, gamma, epsilon, seed=seed)
        free, pulsed = (dec.eigenvalues for dec in pulse_pair(chain, psi))
        tol = 1e-12 * (1 + abs(psi))
        below, above = (free, pulsed) if psi > 0 else (pulsed, free)
        assert np.all(below <= above + tol)
        assert np.all(above[:-1] <= below[1:] + tol)
        assert abs((pulsed.sum() - free.sum()) - psi) <= tol * n

    check()


@pytest.mark.parametrize("n, psi, gamma, seed", [
    (130, 8.0, 0.0, 1), (130, 0.5, 0.0, 1), (40, -3.0, 0.3, 3),
])
def test_rank_one_pulse_overlap_matrix_matches_secular_form(n, psi, gamma, seed):
    # The reference divides by E_k - lam_j, so it is only well conditioned
    # while no z_k is tiny. Disordered chains of paper size are left out: at
    # N = 130 with gamma = epsilon = 0.5, localized eigenvectors leave min |z_k|
    # below 2e-19 for seeds 1 to 5 (exactly 0 for seeds 1 and 2), so the secular
    # form deflates (lam_j = E_k to rounding) and the quotient is 0/0.
    free, pulsed = pulse_pair(ChainSpec(n, static_coupling_disorder=gamma, seed=seed), psi)
    z = free.eigenvectors[0]
    assert np.abs(z).min() >= 1e-3
    w = np.einsum("ki,kj->ij", free.eigenvectors, pulsed.eigenvectors)
    reference = z[:, None] / np.subtract.outer(free.eigenvalues, pulsed.eigenvalues)
    reference /= np.linalg.norm(reference, axis=0)
    assert np.abs(np.abs(w) - np.abs(reference)).max() <= 1e-10
