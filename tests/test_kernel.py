import math

import numpy as np
import pytest

from ddchain.errors import NumericalError
from ddchain.kernel import (
    KernelTrace,
    LifetimeNotFoundError,
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
    environment_block,
    time_grid,
)
from ddchain.propagate import run_protocol, site_amplitude_trace
from ddchain.sweeps import kernel_study, pq_check


def free_env(n, j=1.0):
    return TridiagonalHamiltonian(np.zeros(n), np.full(n - 1, j))


def test_two_site_environment_is_cosine():
    # Eigenvalues of the 2-site block are +-J with equal edge weights,
    # so g(t) = J^2 cos(J t)... with J=1: cos(t).
    trace = correlation_kernel(free_env(2), 1.0, 0.01, 8.0)
    t = np.arange(len(trace.samples)) * trace.dt
    assert np.abs(trace.samples.real - np.cos(t)).max() <= 1e-12
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
    trace = KernelTrace(dt, np.exp(-t).astype(complex), None)
    lifetime = estimate_lifetime(trace, threshold=0.02, hold=0.5)
    assert abs(lifetime - math.log(50)) <= dt + 1e-12


def test_lifetime_not_found_for_constant_kernel():
    trace = KernelTrace(0.01, np.ones(500, dtype=complex), None)
    with pytest.raises(LifetimeNotFoundError):
        estimate_lifetime(trace, 0.02, 0.5)


def test_lifetime_needs_room_for_hold_window():
    trace = KernelTrace(0.1, np.zeros(3, dtype=complex), None)
    with pytest.raises(LifetimeNotFoundError):
        estimate_lifetime(trace, 0.02, 0.5)
    with pytest.raises(ValueError):
        estimate_lifetime(trace, 1.5, 0.2)


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
    trace = KernelTrace(0.01, np.zeros(201, dtype=complex), None)
    p = solve_p_equation(trace, None, 2.0, 0.01)
    assert np.array_equal(p, np.ones(201, dtype=complex))


def test_p_equation_matches_direct_three_site():
    dt, t_max = 1e-3, 5.0
    trace = correlation_kernel(free_env(2), 1.0, dt, t_max)
    p = solve_p_equation(trace, None, t_max, dt)
    direct = np.abs(site_amplitude_trace(ChainSpec(n_sites=3), None, dt, t_max))
    assert np.abs(np.abs(p) - direct).max() <= 1e-4


def test_p_equation_with_pulse_small_chain():
    dt, t_max = 1e-3, 6.5
    pulse = PulseSpec(8.0, 1.3, 1.2, 5)
    trace = correlation_kernel(free_env(4), 1.0, dt, t_max)
    p = solve_p_equation(trace, pulse, t_max, dt)
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


def test_p_equation_accepts_finer_kernel_grid():
    dt, t_max = 1e-2, 3.0
    coarse = correlation_kernel(free_env(2), 1.0, dt, t_max)
    fine = correlation_kernel(free_env(2), 1.0, dt / 4, t_max)
    a = solve_p_equation(coarse, None, t_max, dt)
    b = solve_p_equation(fine, None, t_max, dt)
    assert np.abs(a - b).max() <= 1e-12


def test_p_equation_grid_validation():
    trace = correlation_kernel(free_env(2), 1.0, 0.01, 1.0)
    with pytest.raises(ValueError):
        solve_p_equation(trace, None, 2.0, 0.01)  # kernel too short
    with pytest.raises(ValueError):
        solve_p_equation(trace, None, 0.5, 0.015)  # dt not a multiple


def test_p_equation_instability_guard():
    # A large negative-real kernel with a coarse step makes |P| blow up.
    trace = KernelTrace(0.1, np.full(101, -4.0, dtype=complex), None)
    with pytest.raises(NumericalError):
        solve_p_equation(trace, None, 10.0, 0.1)


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


def test_pq_check_handles_site_energy_offset():
    chain = ChainSpec(n_sites=4, site_energies=(0.3, 0.0, 0.0, 0.0))
    comparison = pq_check(chain, None, 1e-3, 5.0)
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
    trace = correlation_kernel(free_env(4), 1.0, 0.01, 2.0)
    with pytest.raises(ValueError, match="pulse train"):
        solve_p_equation(trace, PulseSpec(5.0, 1.0, 0.5, 1), 2.0, 0.01)
    assert len(solve_p_equation(trace, PulseSpec(5.0, 1.0, 0.5, 2), 2.0, 0.01)) == 201


def test_pq_check_rejects_period_noise():
    with pytest.raises(ValueError):
        pq_check(ChainSpec(n_sites=5, per_period_noise=0.1), None, 1e-3, 2.0)
