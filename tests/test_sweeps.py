from dataclasses import replace

import numpy as np
import pytest

from ddchain.model import ChainSpec, PulseSpec
from ddchain.propagate import run_protocol
from ddchain.sweeps import sweep_delta_tau, sweep_ratio_psi, sweep_size, trace_variants


def test_infeasible_cells_are_nan_sentinels():
    deltas = [0.5, 1.0, 1.5]
    taus = [0.4, 0.9, 1.4]
    result = sweep_delta_tau(ChainSpec(n_sites=10, seed=1), 4.0, 4, deltas, taus)
    expected_bad = sum(1 for d in deltas for t in taus if d > t)
    assert int(np.isnan(result.fidelities).sum()) == expected_bad
    feasible = result.fidelities[~np.isnan(result.fidelities)]
    assert np.all((feasible >= 0.0) & (feasible <= 1.0 + 1e-12))
    # Width equal to period is feasible, not sentinel.
    eq = sweep_delta_tau(ChainSpec(n_sites=6, seed=1), 4.0, 2, [0.5], [0.5])
    assert not np.isnan(eq.fidelities[0, 0])


def test_grid_validation():
    cases = [
        ([1.0, 0.5], [1.0], "first axis must be strictly increasing"),
        ([], [1.0], "first axis must be a nonempty vector"),
        ([0.5], [0.5, 1.0, 1.0], "second axis must be strictly increasing"),
        ([0.5], [], "second axis must be a nonempty vector"),
        # NaN compares false both ways, so only "every step > 0" rejects it.
        ([0.2, np.nan], [1.0], "first axis must be strictly increasing"),
        ([0.5], [np.nan, 1.0], "second axis must be strictly increasing"),
    ]
    for deltas, taus, message in cases:
        with pytest.raises(ValueError, match=message):
            sweep_delta_tau(ChainSpec(n_sites=6), 4.0, 2, deltas, taus)
    with pytest.raises(ValueError, match="ratios must be >= 1"):
        sweep_ratio_psi(ChainSpec(n_sites=6), 0.5, 2, [0.8, 1.2], [1.0])


def test_sweep_is_deterministic_across_calls():
    deltas = np.linspace(0.2, 1.2, 3)
    taus = np.linspace(0.3, 1.5, 3)
    a = sweep_delta_tau(ChainSpec(n_sites=10, seed=5), 6.0, 4, deltas, taus)
    b = sweep_delta_tau(ChainSpec(n_sites=10, seed=5), 6.0, 4, deltas, taus)
    np.testing.assert_array_equal(a.fidelities, b.fidelities)


def test_size_sweep_degenerate_chain():
    table = sweep_size(ChainSpec(n_sites=2, coupling=0.0), PulseSpec(8.0, 1.0, 0.5, 4), [2, 3])
    assert np.allclose(table.free, 1.0, atol=1e-12)
    assert np.allclose(table.controlled, 1.0, atol=1e-12)


def test_size_sweep_runs_each_train_alone():
    # Each size's free and controlled train is a single train of run_protocol: on a
    # noisy chain its Chebyshev route, on a static one its one-column spectral route.
    # Every value is bit-equal to that train run alone.
    pulse = PulseSpec(8.0, 1.3, 1.2, 16)
    n_values = [12, 30, 47]
    for chain in [ChainSpec(n_sites=5, per_period_noise=0.1, seed=4),
                  ChainSpec(n_sites=5, static_coupling_disorder=0.3, band_broadening=0.4, seed=4)]:
        table = sweep_size(chain, pulse, n_values)
        for n, free, controlled in zip(n_values, table.free, table.controlled):
            resized = replace(chain, n_sites=n)
            for got, train in ((free, replace(pulse, strength=0.0)), (controlled, pulse)):
                alone = run_protocol(resized, train).fidelities[-1]
                assert got.tobytes() == alone.tobytes(), (chain, n, train)


def test_size_sweep_free_oscillates_controlled_flat():
    # Free evolution zigzags strongly with chain size (decreasing with n);
    # the controlled protocol is flat near one across all sizes.
    n_values = np.arange(20, 61)
    table = sweep_size(ChainSpec(n_sites=20), PulseSpec(8.0, 1.3, 1.2, 128), n_values)
    free_steps = np.abs(np.diff(table.free))
    assert free_steps.mean() >= 0.03
    assert free_steps[:20].mean() > free_steps[20:].mean()
    assert np.abs(np.diff(table.controlled)).max() <= 0.02
    assert np.all(table.controlled >= 0.96)


def test_trace_variants_collapse_without_disorder():
    traces = trace_variants(ChainSpec(n_sites=12, seed=2), PulseSpec(6.0, 1.0, 0.8, 6))
    np.testing.assert_array_equal(traces.constant, traces.broadening)
    np.testing.assert_array_equal(traces.constant, traces.static_random)
    np.testing.assert_array_equal(traces.constant, traces.period_noise)
    assert not np.array_equal(traces.constant, traces.free)
    np.testing.assert_allclose(traces.times, np.arange(7) * 1.0)


def test_trace_variants_disordered_runs_differ():
    # The trace kind's default amplitudes.
    chain = ChainSpec(n_sites=12, static_coupling_disorder=0.5, band_broadening=0.5,
                      per_period_noise=0.1, seed=2)
    traces = trace_variants(chain, PulseSpec(6.0, 1.0, 0.8, 6))
    assert not np.array_equal(traces.constant, traces.broadening)
    assert not np.array_equal(traces.constant, traces.static_random)
    assert not np.array_equal(traces.constant, traces.period_noise)


def test_narrow_pulse_has_no_strength_upper_bound():
    # Near the fast-pulse limit, doubling an already strong drive must
    # not cost fidelity.
    result = sweep_ratio_psi(ChainSpec(n_sites=130), 0.1, 128, [1.3], [20.0, 40.0])
    f20, f40 = result.fidelities[0]
    assert f40 >= f20 - 0.01
    assert f40 >= 0.95
