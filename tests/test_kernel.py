import math

import numpy as np
import pytest

import ddchain.kernel as kernel_module
from ddchain.eigen import SpectralDecomposition, decompose
from ddchain.errors import NumericalError
from ddchain.kernel import (
    _LEAF,
    correlation_kernel,
    estimate_lifetime,
    kernel_values,
    solve_p_equation,
)
from ddchain.model import (
    ChainSpec,
    PulseSpec,
    TridiagonalHamiltonian,
    build_free_hamiltonian,
    check_within_train,
    environment_block,
    sample_static_disorder,
    time_grid,
)
from ddchain.propagate import run_protocol, site_amplitude_trace
from ddchain.sweeps import kernel_study, pq_check


def free_env(n, j=1.0):
    return TridiagonalHamiltonian(np.zeros(n), np.full(n - 1, j))


def free_train(t_max):
    """Free evolution up to ``t_max``: one zero-strength period."""
    return PulseSpec(0.0, t_max, 0.0, 1)


def oracle_solve_p_equation(g, control, t_max, dt, drive_offset=0.0):
    """The O(n^2) stepper: one history dot per step, the drive at step midpoints."""
    n = len(time_grid(dt, t_max)) - 1
    if control is not None:
        check_within_train(control, t_max)
    if len(g) < n + 1:
        raise ValueError("kernel trace too short")
    g = g[: n + 1]
    grev = g[::-1].copy()
    p = np.empty(n + 1, dtype=complex)
    p[0] = 1.0
    half = 0.5 * dt
    g0 = g[0]
    mem = 0.0 + 0.0j
    for i in range(n):
        h_mid = drive_offset
        if control is not None:
            t = (i + 0.5) * dt
            h_mid += control.strength * (t - control.period * math.floor(t / control.period)
                                         < control.width)
        deriv_i = -1j * h_mid * p[i] - mem
        hist = np.dot(grev[n - i : n], p[1 : i + 1]) if i >= 1 else 0.0
        mem_part = dt * (0.5 * g[i + 1] * p[0] + hist)
        p_next = (p[i] + half * (deriv_i - mem_part)) / (1 + half * (1j * h_mid + half * g0))
        p[i + 1] = p_next
        mem = mem_part + half * g0 * p_next
        if abs(p_next) > 1.05:
            raise NumericalError(
                f"memory-kernel stepper unstable at t={(i + 1) * dt:g}: "
                f"|P|={abs(p_next):.3f}; reduce dt"
            )
    return p


def test_two_site_environment_is_cosine():
    # Eigenvalues of the 2-site block are +-J with equal edge weights,
    # so g(t) = J^2 cos(J t)... with J=1: cos(t).
    trace = correlation_kernel(free_env(2), 1.0, 0.01, 8.0)
    np.testing.assert_array_equal(trace.times, np.arange(801) * 0.01)
    assert np.abs(trace.samples.real - np.cos(trace.times)).max() <= 1e-12
    assert np.abs(trace.samples.imag).max() <= 1e-12


def test_kernel_normalization_at_zero_delay():
    trace = correlation_kernel(free_env(7), 2.0, 0.1, 3.0)
    assert trace.samples[0] == pytest.approx(4.0, abs=1e-12)
    assert np.all(np.abs(trace.samples) <= 4.0 + 1e-12)


def test_kernel_hermiticity():
    rng = np.random.default_rng(6)
    env = TridiagonalHamiltonian(rng.uniform(-1, 1, 40), rng.uniform(0.5, 1.5, 39))
    t = np.linspace(0.0, 4.0, 41)
    plus = kernel_values(env, 1.0, t)
    minus = kernel_values(env, 1.0, -t)
    assert np.abs(minus - np.conj(plus)).max() <= 1e-12


def test_lifetime_of_exponential_kernel():
    dt = 1e-3
    t = np.arange(0, 6.0 + dt / 2, dt)
    lifetime = estimate_lifetime(np.exp(-t).astype(complex), dt, threshold=0.02, hold=0.5)
    assert abs(lifetime - math.log(50)) <= dt + 1e-12


def test_lifetime_not_found_for_constant_kernel():
    assert estimate_lifetime(np.ones(500, dtype=complex), 0.01, 0.02, 0.5) is None


def test_lifetime_needs_room_for_hold_window():
    samples = np.array([1, 0, 0], dtype=complex)
    assert estimate_lifetime(samples, 0.1, 0.02, 0.5) is None
    assert estimate_lifetime(samples, 0.1, 0.02, 1e308) is None  # hold / dt overflows
    with pytest.raises(ValueError):
        estimate_lifetime(samples, 0.1, 1.5, 0.2)
    with pytest.raises(ValueError, match="hold must be >= dt=0.1, got 0.05"):
        estimate_lifetime(samples, 0.1, 0.02, 0.05)


@pytest.mark.parametrize("extra, expected", [(-1, None), (0, 0.1), (1, 0.1)])
def test_lifetime_window_at_the_trace_length(extra, expected):
    # hold = 0.5 at dt = 0.1 needs a window of 6 samples. A trace [1, 0, 0, ...]
    # of 7 + extra samples has 6 + extra decayed ones from t = dt: one short of
    # a window at 6 samples, a window from t = dt at 7 or 8. A window of 5
    # would find one at 6 samples too.
    samples = np.zeros(7 + extra, dtype=complex)
    samples[0] = 1.0
    assert estimate_lifetime(samples, 0.1, 0.02, 0.5) == expected


@pytest.mark.parametrize("start", [0.0, -1.0])
def test_lifetime_needs_a_positive_zero_delay_value(start):
    # Re g <= threshold * g(0) holds trivially from t = 0 when g(0) <= 0, so
    # such a trace has no decay to time: a zero kernel (J = 0) or a negative one.
    t = np.arange(0, 6.0, 0.01)
    assert estimate_lifetime(start * np.exp(-t).astype(complex), 0.01, 0.02, 0.5) is None


def test_long_chain_kernel_decay_time():
    trace = correlation_kernel(free_env(129), 1.0, 0.01, 5.0)
    assert trace.lifetime is not None
    assert trace.lifetime == pytest.approx(1.87, abs=0.05)


def test_short_trace_reports_no_lifetime():
    trace = correlation_kernel(free_env(129), 1.0, 0.01, 1.0)
    assert trace.lifetime is None


def test_disorder_perturbs_kernel_late_not_early():
    # Bond disorder leaves the short-time kernel close to the clean one;
    # the deviation builds up only on the decay timescale and beyond.
    clean = kernel_study(ChainSpec(n_sites=130, seed=1), 0.01, 5.0)
    i_early = int(round(0.25 / 0.01))
    i_mid = int(round(1.0 / 0.01))
    for seed in range(1, 11):
        chain = ChainSpec(n_sites=130, static_coupling_disorder=0.5, seed=seed)
        disordered = kernel_study(chain, 0.01, 5.0)
        assert disordered.samples[0] == pytest.approx(1.0, abs=1e-12)
        diff = np.abs(disordered.samples.real - clean.samples.real)
        assert diff[: i_early + 1].max() <= 0.05
        assert diff.max() > diff[: i_mid + 1].max()


def test_p_equation_trivial_case():
    p = solve_p_equation(np.zeros(201, dtype=complex), free_train(2.0), 2.0, 0.01)
    assert np.array_equal(p, np.ones(201, dtype=complex))


def test_p_equation_matches_direct_three_site():
    dt, t_max = 1e-3, 5.0
    trace = correlation_kernel(free_env(2), 1.0, dt, t_max)
    p = solve_p_equation(trace.samples, free_train(t_max), t_max, dt)
    direct = np.abs(site_amplitude_trace(ChainSpec(n_sites=3), free_train(t_max), dt, t_max))
    assert np.abs(np.abs(p) - direct).max() <= 1e-4


def test_p_equation_with_pulse_small_chain():
    dt, t_max = 1e-3, 6.5
    pulse = PulseSpec(8.0, 1.3, 1.2, 5)
    trace = correlation_kernel(free_env(4), 1.0, dt, t_max)
    p = solve_p_equation(trace.samples, pulse, t_max, dt)
    direct = np.abs(site_amplitude_trace(ChainSpec(n_sites=5), pulse, dt, t_max))
    assert np.abs(np.abs(p) - direct).max() <= 1e-4


def test_p_equation_matches_protocol_full_scale():
    # Full-size chain over ten periods: |P| at the period boundaries
    # agrees with the recorded protocol fidelities.
    chain = ChainSpec(n_sites=130)
    pulse = PulseSpec(8.0, 1.3, 1.2, 10)
    comparison = pq_check(chain, pulse, 1e-3, 13.0)
    record = run_protocol(chain, pulse)
    boundary = [int(round(k * 1.3 / 1e-3)) for k in range(11)]
    assert np.abs(comparison.p_abs[boundary] - record.fidelities).max() <= 5e-3


def test_p_equation_grid_validation():
    trace = correlation_kernel(free_env(2), 1.0, 0.01, 1.0)
    with pytest.raises(ValueError, match="too short"):
        solve_p_equation(trace.samples, free_train(2.0), 2.0, 0.01)


def test_p_equation_instability_guard():
    # A large negative-real kernel with a coarse step makes |P| blow up.
    g = np.full(101, -4.0, dtype=complex)
    with pytest.raises(NumericalError):
        solve_p_equation(g, free_train(10.0), 10.0, 0.1)


def test_p_equation_guard_rejects_nan_amplitudes():
    # NaN compares false with 1.05 either way; the guard must still fire, at the first step.
    g = np.full(11, np.nan, dtype=complex)
    with pytest.raises(NumericalError, match="unstable at t=0.5: [|]P[|]=nan"):
        solve_p_equation(g, free_train(5.0), 5.0, 0.5)


def test_kernel_scale_overflow_is_a_numerical_error(monkeypatch):
    # J^2 = inf would scale the sum to inf and NaN samples.
    with pytest.raises(NumericalError, match="overflows"):
        kernel_values(free_env(4), 1e160, np.linspace(0.0, 1.0, 5))
    assert np.all(np.isfinite(kernel_values(free_env(4), 1e150, np.linspace(0.0, 1.0, 5))))
    # So would a phase E t: the eigenvalues near 1e150 times t = 1e300.
    with pytest.raises(NumericalError, match="a spectral phase E t overflows"):
        kernel_study(ChainSpec(n_sites=6, coupling=1e150), 1e298, 1e300, 0.02, 1e299)

    def scaled(h):
        dec = decompose(h)
        return SpectralDecomposition(dec.eigenvalues, 1.001 * dec.eigenvectors)

    monkeypatch.setattr(kernel_module, "decompose", scaled)
    with pytest.raises(NumericalError, match="first-row weights sum to 1.002.*, expected 1"):
        kernel_values(free_env(4), 1.0, np.linspace(0.0, 1.0, 5))


def test_p_equation_instability_guard_fails_at_the_oracle_step():
    # A small negative kernel makes |P| grow like cosh; it crosses 1.05
    # at step 82, past the first block, so the FFT history feeds it.
    g = np.full(201, -1.5e-3, dtype=complex)
    with pytest.raises(NumericalError) as expected:
        oracle_solve_p_equation(g, None, 20.0, 0.1, drive_offset=0.01)
    with pytest.raises(NumericalError) as got:
        solve_p_equation(g, free_train(20.0), 20.0, 0.1, drive_offset=0.01)
    step = str(expected.value).split(":")[0]
    assert step == "memory-kernel stepper unstable at t=8.2"
    assert str(got.value).split(":")[0] == step


def test_p_equation_singular_step_is_a_numerical_error():
    # 1 + (dt/2)^2 g(0) = 0 with no drive: the implicit step has no solution.
    g = np.full(11, -16.0, dtype=complex)
    with pytest.raises(NumericalError, match="singular"):
        solve_p_equation(g, free_train(5.0), 5.0, 0.5)


def _small_env_kernel(dt, t_max):
    env = TridiagonalHamiltonian(np.linspace(-0.4, 0.5, 9), np.full(8, 1.1))
    return kernel_values(env, 0.9, time_grid(dt, t_max))


@pytest.mark.parametrize("control, drive_offset, extra", [
    (None, 0.7, 1),  # the solver runs a zero-strength train, the oracle no drive at all
    (PulseSpec(8.0, 1.3, 1.2, 4), 0.0, 1),
    (PulseSpec(0.0, 1.3, 1.2, 4), 0.2, 1),   # psi = 0
    (PulseSpec(6.0, 1.3, 0.0, 4), 0.0, 1),   # delta = 0
    (PulseSpec(6.0, 1.3, 1.3, 4), -0.3, 1),  # delta = tau
    (PulseSpec(8.0, 1.3, 0.6, 4), 0.0, 4),
])
def test_p_equation_matches_oracle_drives(control, drive_offset, extra):
    # The kernel runs `extra` samples past t_max; the solver must ignore them.
    dt, t_max = 1e-3, 5.2
    kernel = _small_env_kernel(dt, t_max + extra * dt)
    train = free_train(t_max) if control is None else control
    p = solve_p_equation(kernel, train, t_max, dt, drive_offset)
    oracle = oracle_solve_p_equation(kernel, control, t_max, dt, drive_offset)
    assert np.abs(p - oracle).max() <= 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, _LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF + 5, 5000])
def test_p_equation_matches_oracle_at_block_edges(n):
    # n = 0: t_max = 0.4 * dt rounds to a grid of the single point t = 0.
    dt = 1e-3
    t_max = max(n, 0.4) * dt
    kernel = _small_env_kernel(dt, t_max)
    pulse = PulseSpec(5.0, 0.25, 0.1, max(n, 1))
    p = solve_p_equation(kernel, pulse, t_max, dt, drive_offset=0.1)
    assert len(p) == n + 1
    assert not p.flags.writeable
    assert np.abs(p - oracle_solve_p_equation(kernel, pulse, t_max, dt, 0.1)).max() <= 1e-12


@pytest.mark.parametrize("leaf", [1, 2, 5, 100, 2048])
def test_p_equation_does_not_depend_on_the_leaf_size(monkeypatch, leaf):
    # Leaf blocks of every size, down to one step, meet FFT spans of every
    # width and the sub-diagonal coupling across each block boundary.
    n, dt = 1000, 1e-3
    kernel = _small_env_kernel(dt, n * dt)
    pulse = PulseSpec(5.0, 0.25, 0.1, n)
    oracle = oracle_solve_p_equation(kernel, pulse, n * dt, dt, 0.1)
    monkeypatch.setattr(kernel_module, "_LEAF", leaf)
    p = solve_p_equation(kernel, pulse, n * dt, dt, drive_offset=0.1)
    assert np.abs(p - oracle).max() <= 1e-12


def test_p_equation_matches_oracle_at_bench_length():
    # The paper chain's kernel under the default pulse for 32 periods:
    # 41 600 steps. The block solves round differently from the oracle's
    # scalar steps, and the difference grows with the step count: 4.8e-12
    # measured at this length, 2.0e-11 at 128 periods.
    dt, pulse = 1e-3, PulseSpec(8.0, 1.3, 1.2, 32)
    t_max = pulse.periods * pulse.period
    env = environment_block(build_free_hamiltonian(ChainSpec(130)))
    kernel = kernel_values(env, 1.0, time_grid(dt, t_max))
    p = solve_p_equation(kernel, pulse, t_max, dt)
    assert len(p) == 41601
    assert np.abs(p - oracle_solve_p_equation(kernel, pulse, t_max, dt)).max() <= 1e-11


def test_p_equation_matches_oracle_on_random_kernels():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(1, 700),
        dt=st.floats(1e-3, 0.05),
        scale=st.floats(0.0, 2.0),
        offset=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, dt, scale, offset, seed):
        rng = np.random.default_rng(seed)
        g = scale * (rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1))
        try:
            oracle = oracle_solve_p_equation(g, None, n * dt, dt, offset)
        except NumericalError as err:
            with pytest.raises(NumericalError) as got:
                solve_p_equation(g, free_train(n * dt), n * dt, dt, offset)
            assert str(got.value).split(":")[0] == str(err).split(":")[0]
            return
        p = solve_p_equation(g, free_train(n * dt), n * dt, dt, offset)
        assert np.abs(p - oracle).max() <= 1e-12

    check()


def test_zero_strength_train_is_free_evolution_on_random_chains():
    # Free evolution has one spelling, a zero-strength train, whatever its
    # clock. The trace restarts its spectral sums at every segment edge, so
    # it matches one free period only to rounding (1.6e-14 was the worst seen
    # over 200 cases with up to 60 periods); the Volterra drive is zero at
    # every step either way, so the solver's bits do not move.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 12),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**64 - 1),
        period=st.floats(0.05, 2.0),
        frac=st.floats(0.0, 1.0),
        periods=st.integers(1, 60),
        dt=st.floats(0.01, 0.1),
    )
    def check(n, gamma, epsilon, seed, period, frac, periods, dt):
        chain = ChainSpec(n, static_coupling_disorder=gamma, band_broadening=epsilon, seed=seed)
        train = PulseSpec(0.0, period, frac * period, periods)
        t_max = periods * period
        free = free_train(t_max)
        trace = site_amplitude_trace(chain, train, dt, t_max)
        assert np.abs(trace - site_amplitude_trace(chain, free, dt, t_max)).max() <= 1e-13
        h = build_free_hamiltonian(chain, *sample_static_disorder(chain))
        g = kernel_values(environment_block(h), h.off_diagonal[0], time_grid(dt, t_max))
        p = solve_p_equation(g, train, t_max, dt, h.diagonal[0])
        assert p.tobytes() == solve_p_equation(g, free, t_max, dt, h.diagonal[0]).tobytes()

    check()


def test_pq_check_runs_with_dt_above_default_hold():
    # No lifetime is estimated on the way, so hold = 0.5 < dt is no error.
    comparison = pq_check(ChainSpec(n_sites=10), PulseSpec(2.0, 1.2, 0.6, 2), 0.6, 2.4)
    assert np.allclose(comparison.times, [0.0, 0.6, 1.2, 1.8, 2.4])
    assert comparison.abs_error.max() <= 0.1


@pytest.mark.parametrize("j, t_max", [(1.0, 100.0), (2.0, 50.0)])
def test_kernel_matches_semi_infinite_chain_closed_form(j, t_max):
    # Until the reflection from the far end returns, the 129-site
    # environment of a uniform chain has the semi-infinite kernel
    # g(t) = J^2 J1(2 J t) / (J t), a check that bypasses eigen's sums.
    from scipy.special import j1

    env = environment_block(build_free_hamiltonian(ChainSpec(n_sites=130, coupling=j)))
    t = time_grid(0.01, t_max)
    g = kernel_values(env, j, t)
    assert g[0] == pytest.approx(j * j, abs=1e-12)
    assert np.abs(g[1:] - j * j * j1(2 * j * t[1:]) / (j * t[1:])).max() <= 1e-12


@pytest.mark.parametrize("j, expected", [(1.0, 1.87), (2.0, 0.94)])
def test_lifetime_from_semi_infinite_chain_closed_form(j, expected):
    # The closed-form kernel J^2 J1(2 J t) / (J t) gives the decay time
    # without eigen's sums; the 130-site chain must agree with it.
    from scipy.special import j1

    t = time_grid(0.01, 5.0)
    g = np.full(len(t), j * j, dtype=complex)
    g[1:] = j * j * j1(2 * j * t[1:]) / (j * t[1:])
    lifetime = estimate_lifetime(g, 0.01)
    assert lifetime == pytest.approx(expected, abs=1e-9)
    if j == 1.0:
        assert abs(lifetime - 1.7) <= 0.2  # the acceptance window
    assert lifetime == kernel_study(ChainSpec(n_sites=130, coupling=j), 0.01, 5.0).lifetime


def test_pq_check_second_order_on_random_static_chains():
    # Pulse edges sit on grid points, so the only error is the trapezoid
    # rule's: halving dt cuts it about fourfold. The worst error seen at
    # dt = 0.01 over 1000 drawn chains was 2.5e-3 (at |psi| = 10).
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    dt = 0.01

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(3, 12),
        epsilon=st.floats(0.0, 1.0),
        gamma=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**64 - 1),
        psi=st.floats(-10.0, 10.0),
        tau_steps=st.integers(20, 130),
        frac=st.floats(0.0, 1.0),
        periods=st.integers(1, 4),
    )
    def check(n, epsilon, gamma, seed, psi, tau_steps, frac, periods):
        chain = ChainSpec(n, static_coupling_disorder=gamma, band_broadening=epsilon,
                          seed=seed)
        pulse = PulseSpec(psi, tau_steps * dt, round(frac * tau_steps) * dt, periods)
        t_max = periods * pulse.period
        coarse = pq_check(chain, pulse, dt, t_max).abs_error.max()
        fine = pq_check(chain, pulse, dt / 2, t_max).abs_error.max()
        assert coarse <= 5e-3
        assert fine * 3 <= coarse

    check()


@pytest.mark.parametrize("delta, tau", [(1.20031, 1.30017), (0.50037, 0.65013)])
def test_pq_check_second_order_with_pulse_edges_inside_steps(delta, tau):
    # No pulse edge falls on the grid, so each step's drive must be the
    # train's mean over that step. A drive sampled at step midpoints is
    # off by up to psi * dt / 2 on the steps that hold an edge, which gives
    # first order: 1.3e-4 and 1.6e-4 at dt = 1e-3, ratios 1.4 and 2.2.
    chain, pulse = ChainSpec(n_sites=40), PulseSpec(8.0, tau, delta, 16)
    t_max = pulse.periods * tau
    coarse = pq_check(chain, pulse, 1e-3, t_max).abs_error.max()
    fine = pq_check(chain, pulse, 5e-4, t_max).abs_error.max()
    assert coarse <= 2e-6
    assert fine * 3 <= coarse


def test_pq_check_handles_site_energy_offset():
    # Site energies drawn from the seed put a drive offset on the qubit.
    chain = ChainSpec(n_sites=4, band_broadening=0.6, seed=3)
    comparison = pq_check(chain, free_train(5.0), 1e-3, 5.0)
    assert comparison.abs_error.max() <= 1e-4


def test_pq_check_handles_static_disorder():
    chain = ChainSpec(n_sites=6, static_coupling_disorder=0.4, band_broadening=0.3, seed=12)
    pulse = PulseSpec(6.0, 1.0, 0.5, 4)
    comparison = pq_check(chain, pulse, 1e-3, 4.0)
    assert comparison.abs_error.max() <= 1e-4


def test_pq_check_exact_trapezoid_step_accuracy():
    # A pulsed chain, where the implicit trapezoid step must be solved
    # exactly: a fixed count of corrector passes leaves a few times this error.
    comparison = pq_check(ChainSpec(n_sites=12), PulseSpec(8.0, 1.3, 1.2, 4), 1e-3, 5.2)
    assert comparison.abs_error.max() <= 1.5e-6


def test_pq_check_rejects_time_past_pulse_train():
    pulse = PulseSpec(6.0, 1.0, 0.5, 4)
    with pytest.raises(ValueError, match="pulse train"):
        pq_check(ChainSpec(n_sites=5), pulse, 1e-3, 4.5)


def test_p_equation_rejects_time_past_pulse_train():
    g = correlation_kernel(free_env(4), 1.0, 0.01, 2.0).samples
    with pytest.raises(ValueError, match="pulse train"):
        solve_p_equation(g, PulseSpec(5.0, 1.0, 0.5, 1), 2.0, 0.01)
    assert len(solve_p_equation(g, PulseSpec(5.0, 1.0, 0.5, 2), 2.0, 0.01)) == 201


def test_pq_check_rejects_period_noise():
    with pytest.raises(ValueError):
        pq_check(ChainSpec(n_sites=5, per_period_noise=0.1), free_train(2.0), 1e-3, 2.0)
