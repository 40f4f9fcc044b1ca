import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ddchain import propagate
from ddchain.eigen import SpectralDecomposition, decompose
from ddchain.errors import NumericalError
from ddchain.model import (
    ChainSpec,
    PulseSpec,
    TridiagonalHamiltonian,
    build_controlled_hamiltonian,
    build_free_hamiltonian,
    sample_static_disorder,
    time_grid,
)
from ddchain.eigen import spectral_sum
from ddchain import sweeps
from ddchain.propagate import (
    _period_hamiltonians,
    evolve_interval,
    final_fidelities,
    final_fidelity,
    initial_state,
    run_protocol,
    site_amplitude_trace,
)


def test_initial_state_and_fidelity():
    state = initial_state(4)
    assert state.dtype == complex
    assert abs(state[0]) == 1.0
    assert np.count_nonzero(state) == 1


def test_zero_duration_is_identity():
    dec = decompose(build_free_hamiltonian(ChainSpec(n_sites=5)))
    state = initial_state(5)
    out = evolve_interval(state, dec, 0.0)
    assert np.array_equal(out, state)
    assert out is not state


def test_two_site_analytic_evolution():
    # H = [[0, J], [J, 0]]: the qubit amplitude is cos(J t) up to a phase.
    j = 0.8
    dec = decompose(TridiagonalHamiltonian(np.zeros(2), np.array([j])))
    for t in (0.3, 1.0, 2.5, 7.0):
        out = evolve_interval(initial_state(2), dec, t)
        assert abs(out[0]) == pytest.approx(abs(math.cos(j * t)), abs=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_evolution_argument_validation():
    dec = decompose(build_free_hamiltonian(ChainSpec(n_sites=4)))
    with pytest.raises(ValueError):
        evolve_interval(initial_state(3), dec, 1.0)
    with pytest.raises(ValueError):
        evolve_interval(initial_state(4), dec, -0.5)


def test_composition_of_intervals():
    rng = np.random.default_rng(2)
    dec = decompose(TridiagonalHamiltonian(rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 19)))
    state = rng.normal(size=20) + 1j * rng.normal(size=20)
    state /= np.linalg.norm(state)
    a, b = 0.7, 1.9
    once = evolve_interval(state, dec, a + b)
    twice = evolve_interval(evolve_interval(state, dec, a), dec, b)
    assert np.abs(once - twice).max() <= 1e-10


def test_reversal_by_conjugation():
    rng = np.random.default_rng(3)
    dec = decompose(TridiagonalHamiltonian(rng.uniform(-1, 1, 15), rng.uniform(-1, 1, 14)))
    state = rng.normal(size=15) + 1j * rng.normal(size=15)
    state /= np.linalg.norm(state)
    forward = evolve_interval(state, dec, 2.3)
    back = np.conj(evolve_interval(np.conj(forward), dec, 2.3))
    assert np.abs(back - state).max() <= 1e-10


def test_norm_conservation_over_many_periods():
    chain = ChainSpec(n_sites=16)
    pulse = PulseSpec(8.0, 1.3, 1.2, 1)
    free = decompose(build_free_hamiltonian(chain))
    pulsed = decompose(build_controlled_hamiltonian(chain, pulse))
    state = initial_state(16)
    for _ in range(10_000):
        state = evolve_interval(state, pulsed, pulse.width)
        state = evolve_interval(state, free, pulse.period - pulse.width)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-9


def test_zero_strength_protocol_matches_free_evolution():
    chain = ChainSpec(n_sites=12)
    record = run_protocol(chain, PulseSpec(0.0, 0.9, 0.4, 6))
    free = decompose(build_free_hamiltonian(chain))
    for t, f in zip(record.times, record.fidelities):
        expected = abs(evolve_interval(initial_state(12), free, t)[0])
        assert f == pytest.approx(expected, abs=1e-10)


def test_decoupled_chain_keeps_fidelity_one():
    record = run_protocol(ChainSpec(n_sites=6, coupling=0.0), PulseSpec(8.0, 1.0, 0.5, 10))
    assert np.allclose(record.fidelities, 1.0, atol=1e-12)


def test_record_every_includes_final_period():
    record = run_protocol(ChainSpec(n_sites=4), PulseSpec(1.0, 0.5, 0.2, 7), record_every=3)
    assert np.allclose(record.times, [0.0, 1.5, 3.0, 3.5])
    with pytest.raises(ValueError):
        run_protocol(ChainSpec(n_sites=4), PulseSpec(1.0, 0.5, 0.2, 7), record_every=0)


def test_coupling_sign_is_unobservable():
    pulse = PulseSpec(8.0, 1.3, 1.2, 8)
    plus = run_protocol(ChainSpec(n_sites=20, coupling=1.0), pulse)
    minus = run_protocol(ChainSpec(n_sites=20, coupling=-1.0), pulse)
    assert np.abs(plus.fidelities - minus.fidelities).max() <= 1e-10


def test_full_width_pulse_has_no_free_segment():
    chain = ChainSpec(n_sites=8)
    record = run_protocol(chain, PulseSpec(5.0, 1.0, 1.0, 4))
    pulsed = decompose(build_controlled_hamiltonian(chain, PulseSpec(5.0, 1.0, 1.0, 4)))
    expected = abs(evolve_interval(initial_state(8), pulsed, 4.0)[0])
    assert record.fidelities[-1] == pytest.approx(expected, abs=1e-10)


def test_noisy_protocol_is_deterministic():
    chain = ChainSpec(n_sites=10, per_period_noise=0.2, seed=9)
    pulse = PulseSpec(6.0, 1.1, 0.8, 12)
    a = run_protocol(chain, pulse)
    b = run_protocol(chain, pulse)
    assert np.array_equal(a.fidelities, b.fidelities)
    clean = run_protocol(ChainSpec(n_sites=10, seed=9), pulse)
    assert not np.array_equal(a.fidelities, clean.fidelities)


def test_amplitude_trace_matches_protocol_at_boundaries():
    chain = ChainSpec(n_sites=8, seed=5)
    pulse = PulseSpec(5.0, 1.3, 1.2, 5)
    record = run_protocol(chain, pulse)
    trace = site_amplitude_trace(chain, pulse, 0.1, 6.5)
    idx = [int(round(k * 1.3 / 0.1)) for k in range(6)]
    assert np.abs(np.abs(trace[idx]) - record.fidelities).max() <= 1e-10


def test_amplitude_trace_matches_protocol_with_period_noise():
    chain = ChainSpec(n_sites=8, per_period_noise=0.2, seed=7)
    pulse = PulseSpec(5.0, 1.3, 1.2, 5)
    record = run_protocol(chain, pulse)
    trace = site_amplitude_trace(chain, pulse, 0.1, 6.5)
    idx = [int(round(k * 1.3 / 0.1)) for k in range(6)]
    assert np.abs(np.abs(trace[idx]) - record.fidelities).max() <= 1e-10


def test_amplitude_trace_stops_at_end_of_pulse_train():
    chain = ChainSpec(n_sites=6)
    pulse = PulseSpec(5.0, 1.0, 0.5, 3)
    assert len(site_amplitude_trace(chain, pulse, 0.1, 3.0)) == 31
    with pytest.raises(ValueError, match="pulse train"):
        site_amplitude_trace(chain, pulse, 0.1, 3.5)
    # A grid end that rounds up past the train (t = 3.2) is not an error.
    assert len(site_amplitude_trace(chain, pulse, 0.8, 3.0)) == 5


def test_amplitude_trace_free_evolution():
    chain = ChainSpec(n_sites=6)
    trace = site_amplitude_trace(chain, PulseSpec(0.0, 3.0, 0.0, 1), 0.05, 3.0)
    free = decompose(build_free_hamiltonian(chain))
    expected = abs(evolve_interval(initial_state(6), free, 2.0)[0])
    assert abs(trace[40]) == pytest.approx(expected, abs=1e-12)


def test_landmark_controlled_fidelity():
    value = final_fidelity(ChainSpec(n_sites=130), PulseSpec(8.0, 1.3, 1.2, 128))
    assert value == pytest.approx(0.98, abs=0.02)


def period_decompositions(chain, pulse):
    """Both eigensolves of every period, shared or not."""
    for pulsed, free in _period_hamiltonians(chain, pulse):
        yield decompose(pulsed), decompose(free)


def oracle_final_fidelity(chain, pulse):
    """The per-cell propagator the batched step replaced: one state
    vector, two complex matvecs per segment, zero-duration segments
    skipped."""

    def evolve(state, dec, duration):
        if duration == 0.0:
            return state
        v = dec.eigenvectors.astype(complex)
        return v @ (np.exp(-1j * dec.eigenvalues * duration) * (v.T @ state))

    state = initial_state(chain.n_sites)
    schedule = period_decompositions(chain, pulse)
    for _, (pulsed, free) in zip(range(pulse.periods), schedule):
        state = evolve(state, pulsed, pulse.width)
        state = evolve(state, free, pulse.period - pulse.width)
    return abs(state[0])


DISORDERED_CHAINS = [
    ChainSpec(n_sites=14, seed=3),
    ChainSpec(n_sites=14, static_coupling_disorder=0.3, seed=3),
    ChainSpec(n_sites=14, band_broadening=0.4, seed=3),
    ChainSpec(n_sites=14, per_period_noise=0.2, seed=3),
]


@pytest.mark.parametrize("chain", DISORDERED_CHAINS)
def test_batched_delta_tau_grid_matches_per_cell_oracle(chain):
    # Several strengths (psi = 0 included), delta = 0 and delta = tau cells.
    pulses = [PulseSpec(psi, tau, delta, 6)
              for psi in (0.0, 3.0, 8.0)
              for delta in (0.0, 0.4, 0.9)
              for tau in (0.4, 0.9, 1.3) if delta <= tau]
    batched = final_fidelities(chain, pulses)
    oracle = [oracle_final_fidelity(chain, pulse) for pulse in pulses]
    assert np.abs(batched - oracle).max() <= 1e-12


@pytest.mark.parametrize("chain", DISORDERED_CHAINS)
def test_batched_ratio_psi_grid_matches_per_cell_oracle(chain):
    delta = 0.3
    pulses = [PulseSpec(psi, ratio * delta, delta, 5)
              for ratio in (1.0, 1.5, 2.5) for psi in (0.0, 2.0, 6.0, 15.0)]
    batched = final_fidelities(chain, pulses)
    oracle = [oracle_final_fidelity(chain, pulse) for pulse in pulses]
    assert np.abs(batched - oracle).max() <= 1e-12


def test_batched_cells_are_bit_equal_to_cells_run_alone():
    chain = ChainSpec(n_sites=130)
    pulses = [PulseSpec(8.0, tau, delta, 16)
              for delta in np.linspace(0.02, 2.0, 18)
              for tau in np.linspace(0.02, 2.5, 18) if delta <= tau]
    batched = final_fidelities(chain, pulses)
    assert len(pulses) == 195
    for pulse, value in zip(pulses, batched):
        assert value.tobytes() == np.float64(final_fidelity(chain, pulse)).tobytes(), pulse


def test_final_fidelity_is_last_recorded_fidelity():
    # A static chain runs both on the spectral route: the same bits.
    chain = ChainSpec(n_sites=20, static_coupling_disorder=0.3, band_broadening=0.4, seed=4)
    pulse = PulseSpec(6.0, 1.1, 0.7, 9)
    assert final_fidelity(chain, pulse) == run_protocol(chain, pulse).fidelities[-1]
    assert len(final_fidelities(chain, [])) == 0
    # Per-period noise sends run_protocol down the Chebyshev route: rounding apart.
    noisy = replace(chain, per_period_noise=0.1)
    assert final_fidelity(noisy, pulse) == pytest.approx(
        run_protocol(noisy, pulse).fidelities[-1], abs=1e-12)


def test_norm_drift_raises_numerical_error(monkeypatch):
    def scaled(h):
        dec = decompose(h)
        return SpectralDecomposition(dec.eigenvalues, 1.001 * dec.eigenvectors)

    monkeypatch.setattr(propagate, "decompose", scaled)
    with pytest.raises(NumericalError, match="norm"):
        final_fidelities(ChainSpec(n_sites=8), [PulseSpec(5.0, 1.0, 0.5, 3)])
    with pytest.raises(NumericalError, match="norm"):
        run_protocol(ChainSpec(n_sites=8), PulseSpec(5.0, 1.0, 0.5, 3))
    with pytest.raises(NumericalError, match="norm"):
        site_amplitude_trace(ChainSpec(n_sites=8), PulseSpec(5.0, 1.0, 0.5, 3), 0.1, 3.0)


def test_chebyshev_norm_drift_raises_numerical_error(monkeypatch):
    real_step, calls = propagate._chebyshev_step, itertools.count()

    def one_scaled(h, state, duration):  # the third segment's output only
        return (1.001 if next(calls) == 2 else 1.0) * real_step(h, state, duration)

    monkeypatch.setattr(propagate, "_chebyshev_step", one_scaled)
    with pytest.raises(NumericalError, match="norm drifted by .* over 3 periods"):
        run_protocol(ChainSpec(n_sites=8, per_period_noise=0.1), PulseSpec(5.0, 1.0, 0.5, 3))


def test_chebyshev_step_matches_spectral_step(monkeypatch):
    # With no cutoff the series itself runs up to r * duration of about 250.
    monkeypatch.setattr(propagate, "_CHEBYSHEV_MAX_RT", math.inf)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 40),
        coupling=st.floats(-2.0, 2.0),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**64 - 1),
        psi=st.floats(-20.0, 20.0),
        duration=st.floats(0.0, 20.0),
    )
    def check(n, coupling, gamma, epsilon, eta, seed, psi, duration):
        chain = ChainSpec(n, coupling, gamma, epsilon, eta, seed)
        hams = propagate._period_hamiltonians(chain, PulseSpec(psi, 1.0, 0.5, 1))
        rng = np.random.default_rng(seed)
        state = rng.normal(size=n) + 1j * rng.normal(size=n)
        state /= np.linalg.norm(state)
        for h in next(hams):
            expected = evolve_interval(state, decompose(h), duration)
            assert np.abs(propagate._chebyshev_step(h, state, duration) - expected).max() <= 1e-12

    check()


def test_long_noisy_segments_step_spectrally(monkeypatch):
    # Past the cutoff the series would cost about r * duration matvecs; at
    # strength 1e300 its coefficient loop never ends.
    real_series = propagate._bessel_series

    def short_series(x):
        assert x <= propagate._CHEBYSHEV_MAX_RT, f"Chebyshev series at r * duration = {x:g}"
        return real_series(x)

    chain = ChainSpec(n_sites=130, per_period_noise=0.1)
    h = build_controlled_hamiltonian(chain, PulseSpec(8.0, 1.3, 1.2, 1))
    state = initial_state(130)
    expected = evolve_interval(state, decompose(h), 25.0)  # r * duration = 137.5
    monkeypatch.setattr(propagate, "_bessel_series", short_series)
    assert np.abs(propagate._chebyshev_step(h, state, 25.0) - expected).max() <= 1e-12
    record = run_protocol(ChainSpec(n_sites=40, per_period_noise=0.1), PulseSpec(1e300, 1.3, 1.2, 2))
    assert np.all(np.isfinite(record.fidelities))


def test_chebyshev_zero_duration_is_an_exact_copy():
    chain = ChainSpec(n_sites=7, band_broadening=0.3)
    h = build_controlled_hamiltonian(chain, PulseSpec(4.0, 1.0, 1.0, 1))
    state = np.linspace(0.1, 0.7, 7) * (1 - 2j)
    out = propagate._chebyshev_step(h, state, 0.0)
    assert np.array_equal(out, state) and out is not state


def test_bessel_series_matches_scipy():
    from scipy.special import jv

    for x in np.geomspace(1e-12, 200.0, 60):
        series = propagate._bessel_series(x)
        expected = jv(np.arange(len(series)), x)
        # scipy's own jv is good to a few 1e-15 at x ~ 100-200.
        assert np.all(np.abs(series - expected) <= 1e-14 + 1e-12 * np.abs(expected)), x
        # Truncation: K is the first integer above x where (x/2)^K / K! < 1e-17.
        k = len(series)
        assert k > x
        assert k * math.log(x / 2) - math.lgamma(k + 1) < math.log(1e-17)
        assert k - 1 <= x or (k - 1) * math.log(x / 2) - math.lgamma(k) >= math.log(1e-17)


def test_noisy_protocol_matches_oracle_at_paper_scale():
    chain = ChainSpec(n_sites=130, per_period_noise=0.1)
    pulse = PulseSpec(8.0, 1.3, 1.2, 128)
    value = run_protocol(chain, pulse).fidelities[-1]
    assert value == pytest.approx(oracle_final_fidelity(chain, pulse), abs=1e-12)


def floquet_weights(chain, pulse):
    """Qubit weights |Z_0k|^2 and eigenvalues lambda_k of one period's
    propagator U = expm(-i H_f (tau - delta)) expm(-i H_p delta), from dense
    expm and the complex Schur form U = Z T Z^H, which is diagonal as U is
    normal. The amplitude after m periods is sum_k |Z_0k|^2 lambda_k^m."""
    import scipy.linalg

    def dense(h):
        return np.diag(h.diagonal) + np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)

    offsets = sample_static_disorder(chain)
    free = dense(build_free_hamiltonian(chain, *offsets))
    pulsed = dense(build_controlled_hamiltonian(chain, pulse, *offsets))
    u = (scipy.linalg.expm(-1j * free * (pulse.period - pulse.width))
         @ scipy.linalg.expm(-1j * pulsed * pulse.width))
    t, z = scipy.linalg.schur(u, output="complex")
    assert np.abs(np.triu(t, 1)).max() <= 1e-13
    return np.abs(z[0]) ** 2, np.diag(t)


@pytest.mark.parametrize("chain", [
    ChainSpec(n_sites=130),
    ChainSpec(n_sites=130, static_coupling_disorder=0.3, band_broadening=0.3, seed=5),
])
@pytest.mark.parametrize("psi", [3.0, 8.0])
def test_final_fidelities_match_floquet_oracle(chain, psi):
    # No stepping on the oracle's side, so m = 10^4 (78 paper trains) checks
    # the rounding a long train accumulates and its norm guard.
    cells = [(1.2, 1.3), (0.5, 0.65)]
    spectra = [floquet_weights(chain, PulseSpec(psi, tau, delta, 1)) for delta, tau in cells]
    for m, bound in ((128, 1e-12), (10_000, 1e-10)):
        got = final_fidelities(chain, [PulseSpec(psi, tau, delta, m) for delta, tau in cells])
        expected = [abs(np.sum(w * lam**m)) for w, lam in spectra]
        assert np.abs(got - expected).max() <= bound, m


@pytest.mark.parametrize("delta, tau, psi", [
    (1.2, 1.3, 8.0), (1.6, 1.7, 8.0), (0.05, 0.06, 8.0),  # acceptance criterion 3
    (0.5, 0.65, 3.0), (0.5, 0.65, 7.5), (0.5, 0.65, 14.0),  # acceptance criterion 4
])
def test_valid_region_is_where_one_floquet_state_holds_the_qubit(delta, tau, psi):
    # w_max = max_k |Z_0k|^2 is the qubit weight of the most qubit-like
    # Floquet state, the pulsed counterpart of the bound state: 0.981, 0.788,
    # 0.978, 0.821, 0.982 and 0.201 on these cells. On the 12 x 12 grid over
    # delta-tau's default ranges at psi = 8 on this chain, F >= 0.95 and
    # w_max >= 0.95 agreed on all 87 feasible cells, and |F - w_max| <= 0.0023
    # wherever F > 0.9. Nothing beyond that chain and grid was measured.
    chain = ChainSpec(n_sites=130)
    weights, _ = floquet_weights(chain, PulseSpec(psi, tau, delta, 1))
    fidelity = final_fidelity(chain, PulseSpec(psi, tau, delta, 128))
    assert (weights.max() >= 0.95) == (fidelity >= 0.95)


def test_batched_matches_oracle_on_random_chains():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    pulse_st = st.builds(
        lambda psi, tau, frac, m: PulseSpec(psi, tau, frac * tau, m),
        st.floats(-10.0, 10.0), st.floats(0.05, 2.0), st.floats(0.0, 1.0), st.integers(1, 6),
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 12),
        coupling=st.floats(-2.0, 2.0),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**64 - 1),
        pulses=st.lists(pulse_st, min_size=1, max_size=12),
    )
    def check(n, coupling, gamma, epsilon, eta, seed, pulses):
        chain = ChainSpec(n, coupling, gamma, epsilon, eta, seed)
        batched = final_fidelities(chain, pulses)
        oracle = [oracle_final_fidelity(chain, pulse) for pulse in pulses]
        assert np.abs(batched - oracle).max() <= 1e-12

    check()


def test_free_protocol_matches_semi_infinite_chain_closed_form():
    # Until the reflection from the far end returns, the qubit amplitude
    # of a uniform chain with J = 1 is the end-site Green's function of a
    # semi-infinite chain, J1(2t)/t. At zero strength every period is
    # phases only, so this checks that path against neither route.
    from scipy.special import j1

    record = run_protocol(ChainSpec(n_sites=130), PulseSpec(0.0, 1.3, 1.2, 76))
    t = record.times[1:]
    assert t[-1] == pytest.approx(98.8)
    assert record.fidelities[0] == 1.0
    assert np.abs(record.fidelities[1:] - np.abs(j1(2 * t) / t)).max() <= 1e-12


def oracle_amplitude_trace(chain, pulse, dt, t_max):
    """The trace loop the batched core replaced: one site-basis state
    stepped with evolve_interval, each segment's samples from its
    spectral phases."""
    t_grid = time_grid(dt, t_max)
    t_end = t_grid[-1]
    tol = 1e-9 * dt
    if pulse is None:
        pulse = PulseSpec(0.0, max(t_end, t_max), 0.0, 1)
    out = np.empty(len(t_grid), dtype=complex)
    state = initial_state(chain.n_sites)
    out[0] = state[0]
    schedule = period_decompositions(chain, pulse)
    for k in itertools.count():
        start = k * pulse.period
        if start >= t_end - tol:
            break
        pulsed, free = next(schedule)
        on_end = min(start + pulse.width, t_end)
        for a, b, dec in ((start, on_end, pulsed),
                          (on_end, min((k + 1) * pulse.period, t_end), free)):
            if b - a <= tol:
                continue
            idx = np.nonzero((t_grid > a + tol) & (t_grid <= b + tol))[0]
            row = dec.eigenvectors[0, :] * (dec.eigenvectors.T @ state)
            out[idx] = spectral_sum(dec.eigenvalues, row, t_grid[idx] - a)
            state = evolve_interval(state, dec, b - a)
    return out


TRACE_CASES = [
    (PulseSpec(8.0, 1.3, 1.2, 4), 0.05, 5.2),
    (PulseSpec(3.0, 0.9, 0.0, 5), 0.1, 4.5),  # delta = 0: pulsed segments are empty
    (PulseSpec(5.0, 0.7, 0.7, 6), 0.05, 4.2),  # delta = tau: no free segment
    (PulseSpec(0.0, 1.1, 0.4, 4), 0.07, 4.0),  # zero strength: pulsed is free
    (PulseSpec(6.0, 1.0, 0.5, 3), 0.8, 3.0),  # the grid ends at 3.2, past the train
    # The grid ends at 3.41, 1e-9 dt past the train, where the period count
    # (t_end - 1e-9 dt) / period rounds down to 39 although a 40th period starts.
    (PulseSpec(5.0, 0.08743589743564102, 0.04, 39), 0.01, 39 * 0.08743589743564102),
    (None, 0.05, 6.0),  # free evolution, in the oracle's own spelling
]


@pytest.mark.parametrize("chain, pulse, dt, t_max", [
    (chain, *case) for chain in DISORDERED_CHAINS for case in TRACE_CASES
])
def test_amplitude_trace_matches_site_basis_oracle(chain, pulse, dt, t_max):
    train = PulseSpec(0.0, t_max, 0.0, 1) if pulse is None else pulse
    trace = site_amplitude_trace(chain, train, dt, t_max)
    oracle = oracle_amplitude_trace(chain, pulse, dt, t_max)
    assert len(trace) == len(oracle)
    assert np.abs(trace - oracle).max() <= 1e-12


def test_free_amplitude_trace_matches_semi_infinite_chain_closed_form():
    # The same closed form as above, sampled inside one free segment: the
    # amplitude itself is real, because the spectrum is symmetric about 0.
    from scipy.special import j1

    free = PulseSpec(0.0, 100.0, 0.0, 1)
    trace = site_amplitude_trace(ChainSpec(n_sites=130), free, 0.01, 100.0)
    t = time_grid(0.01, 100.0)[1:]
    assert trace[0] == 1.0
    assert np.abs(trace[1:] - j1(2 * t) / t).max() <= 1e-12


def dense_propagator(h, duration):
    """exp(-i H duration) from NumPy's dense eigh, not ddchain.eigen."""
    dense = np.diag(h.diagonal) + np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)
    energies, vectors = np.linalg.eigh(dense)
    return (vectors * np.exp(-1j * energies * duration)) @ vectors.T


def test_free_first_period_gives_the_same_final_fidelity():
    # H is real symmetric, so exp(-i H t) is complex symmetric and the
    # free-first period U_p U_f is the transpose of the pulse-first U_f U_p:
    # e0^T (U^T)^m e0 = e0^T U^m e0, so the order of the segments cannot
    # change the qubit amplitude of a static chain.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 12),
        coupling=st.floats(-2.0, 2.0),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**64 - 1),
        psi=st.floats(-10.0, 10.0),
        tau=st.floats(0.05, 2.0),
        frac=st.floats(0.0, 1.0),
        m=st.integers(1, 8),
    )
    def check(n, coupling, gamma, epsilon, seed, psi, tau, frac, m):
        chain = ChainSpec(n, coupling, gamma, epsilon, seed=seed)
        pulse = PulseSpec(psi, tau, frac * tau, m)
        bonds, sites = sample_static_disorder(chain)
        free_first = (
            dense_propagator(build_controlled_hamiltonian(chain, pulse, bonds, sites), pulse.width)
            @ dense_propagator(build_free_hamiltonian(chain, bonds, sites), tau - pulse.width))
        expected = abs(np.linalg.matrix_power(free_first, m)[0, 0])
        assert final_fidelity(chain, pulse) == pytest.approx(expected, abs=1e-12)

    check()


def test_negating_every_bond_leaves_every_modulus_unchanged(monkeypatch):
    # D = diag(1, -1, 1, ...) takes H to D H D, which negates every bond and
    # keeps the diagonal; D e0 = e0, so every qubit amplitude keeps its
    # modulus. Static disorder and per-period noise are negated with J.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    static, noise = sample_static_disorder, propagate.sample_period_noise

    def negated_static(chain):
        bonds, sites = static(chain)
        return -bonds, sites

    pulse_st = st.builds(
        lambda psi, tau, frac, m: PulseSpec(psi, tau, frac * tau, m),
        st.floats(-10.0, 10.0), st.floats(0.05, 2.0), st.floats(0.0, 1.0), st.integers(1, 6),
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 12),
        coupling=st.floats(-2.0, 2.0),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**64 - 1),
        pulses=st.lists(pulse_st, min_size=1, max_size=6),
    )
    def check(n, coupling, gamma, epsilon, eta, seed, pulses):
        chain = ChainSpec(n, coupling, gamma, epsilon, eta, seed)
        static_chain = replace(chain, per_period_noise=0.0)
        pulse = pulses[0]
        dt = pulse.period / 7
        t_max = pulse.periods * pulse.period
        fids = final_fidelities(chain, pulses)
        trace = np.abs(site_amplitude_trace(chain, pulse, dt, t_max))
        p_abs = sweeps.pq_check(static_chain, pulse, dt, t_max).p_abs
        with monkeypatch.context() as patch:
            for module in (propagate, sweeps):
                patch.setattr(module, "sample_static_disorder", negated_static)
            patch.setattr(propagate, "sample_period_noise", lambda c, k: -noise(c, k))
            flipped = replace(chain, coupling=-coupling)
            assert np.abs(final_fidelities(flipped, pulses) - fids).max() <= 1e-12
            flipped_trace = site_amplitude_trace(flipped, pulse, dt, t_max)
            assert np.abs(np.abs(flipped_trace) - trace).max() <= 1e-12
            flipped_p = sweeps.pq_check(replace(flipped, per_period_noise=0.0), pulse, dt, t_max)
            assert np.abs(flipped_p.p_abs - p_abs).max() <= 1e-12

    check()
