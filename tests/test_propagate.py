import itertools
import math
import os
import sys
import threading
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


@pytest.mark.parametrize("periods", [1, 16])
def test_noisy_protocol_builds_two_hamiltonians_a_period(monkeypatch, periods):
    real_init, builds = TridiagonalHamiltonian.__post_init__, itertools.count()

    def counted(self):
        next(builds)
        real_init(self)

    monkeypatch.setattr(TridiagonalHamiltonian, "__post_init__", counted)
    run_protocol(ChainSpec(n_sites=10, per_period_noise=0.2), PulseSpec(6.0, 1.1, 0.8, periods))
    assert next(builds) == 2 * periods


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
    batched = final_fidelities(chain, pulses)[0]
    oracle = [oracle_final_fidelity(chain, pulse) for pulse in pulses]
    assert np.abs(batched - oracle).max() <= 1e-12


@pytest.mark.parametrize("chain", DISORDERED_CHAINS)
def test_batched_ratio_psi_grid_matches_per_cell_oracle(chain):
    delta = 0.3
    pulses = [PulseSpec(psi, ratio * delta, delta, 5)
              for ratio in (1.0, 1.5, 2.5) for psi in (0.0, 2.0, 6.0, 15.0)]
    batched = final_fidelities(chain, pulses)[0]
    oracle = [oracle_final_fidelity(chain, pulse) for pulse in pulses]
    assert np.abs(batched - oracle).max() <= 1e-12


def test_batched_cells_are_bit_equal_to_cells_run_alone():
    chain = ChainSpec(n_sites=130)
    pulses = [PulseSpec(8.0, tau, delta, 16)
              for delta in np.linspace(0.02, 2.0, 18)
              for tau in np.linspace(0.02, 2.5, 18) if delta <= tau]
    batched = final_fidelities(chain, pulses)[0]
    assert len(pulses) == 195
    for pulse, value in zip(pulses, batched):
        assert value.tobytes() == final_fidelities(chain, [pulse])[0].tobytes(), pulse


def grid(psis, m=6):
    return [PulseSpec(psi, tau, delta, m) for psi in psis
            for delta in np.linspace(0.0, 1.5, 6) for tau in np.linspace(0.3, 1.8, 6)
            if delta <= tau]


def batch_spy(monkeypatch, pulses):
    """Make ``_batch`` record (thread, indices into ``pulses``) at each call; the
    calls as a list, which the caller may clear between runs."""
    calls, batch, index = [], propagate._batch, {id(p): i for i, p in enumerate(pulses)}

    def spy(chain, cells, *args):
        calls.append((threading.get_ident(), [index[id(p)] for p in cells]))
        return batch(chain, cells, *args)

    monkeypatch.setattr(propagate, "_batch", spy)
    return calls


@pytest.mark.parametrize("chain, pulses, slabs", [
    # One static group of 21 cells, padded to 24 by its last cell.
    (ChainSpec(n_sites=130), grid([8.0], m=12)[:21], {2: [16, 8], 3: [8, 8, 8]}),
    # A static grid of two strengths, psi = 0 among them: cut at 3 workers.
    (ChainSpec(n_sites=30, static_coupling_disorder=0.3, band_broadening=0.4, seed=5),
     grid([0.0, 8.0]), {2: [32, 32], 3: [16, 16, 16, 16]}),
    # A noisy grid of two groups: one whole group per thread.
    (ChainSpec(n_sites=20, per_period_noise=0.1, seed=7), grid([3.0, 8.0]),
     {2: [32, 32], 3: [32, 32]}),
], ids=["static-group", "static-strengths", "noisy-groups"])
def test_threaded_slabs_are_bit_equal_to_one_thread(monkeypatch, usable_cpus, chain, pulses,
                                                    slabs):
    usable_cpus(8)
    serial, threads = final_fidelities(chain, pulses)
    assert threads == 1
    calls = batch_spy(monkeypatch, pulses)
    for workers in (2, 3):
        calls.clear()
        fids, threads = final_fidelities(chain, pulses, workers)
        assert [len(slab) for slab in sorted(cells for _, cells in calls)] == slabs[workers]
        assert threads == min(workers, len(calls))
        assert len({ident for ident, _ in calls}) <= threads
        assert fids.tobytes() == serial.tobytes(), workers


def test_more_threads_than_cores_run_every_task_once(monkeypatch, usable_cpus):
    # 24 strength groups on 8 threads, switching threads every microsecond: a task
    # taken twice or lost would show in the call count or leave a cell unwritten.
    usable_cpus(8)
    chain = ChainSpec(n_sites=10, static_coupling_disorder=0.2, seed=2)
    pulses = grid(np.linspace(0.0, 12.0, 24), m=3)
    serial = final_fidelities(chain, pulses)[0]
    calls, batch = [], propagate._batch
    monkeypatch.setattr(propagate, "_batch", lambda *args: calls.append(1) or batch(*args))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert final_fidelities(chain, pulses, 8)[0].tobytes() == serial.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 5 * 24


@pytest.mark.parametrize("noisy", [False, True])
def test_final_fidelities_caps_threads_and_aligns_slabs(monkeypatch, usable_cpus, noisy):
    chain = ChainSpec(n_sites=8, per_period_noise=0.1 if noisy else 0.0)
    pulses = grid([0.0, 3.0, 8.0], m=2)  # three groups of 26 cells
    serial = final_fidelities(chain, pulses)[0]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert 1 <= final_fidelities(chain, pulses, 10 ** 6)[1] <= cpus
    usable_cpus(8)
    started, thread = [], threading.Thread
    monkeypatch.setattr(propagate.threading, "Thread",
                        lambda **kwargs: started.append(1) or thread(**kwargs))
    calls = batch_spy(monkeypatch, pulses)
    # Each group of 26 is padded to 32 by repeating its last cell.
    for workers, threads, sizes in [(1, 1, [32] * 3), (3, 3, [32] * 3),
                                    (4, 6, [16, 16] * 3), (10 ** 6, 6, [16, 16] * 3)]:
        calls.clear()
        started.clear()
        fids, ran_on = final_fidelities(chain, pulses, workers)
        if noisy:  # a noisy group is never cut
            threads, sizes = min(threads, 3), [32] * 3
        slabs = sorted(cells for _, cells in calls)  # in cell order
        assert (ran_on, [len(cells) for cells in slabs]) == (min(workers, threads), sizes)
        assert len(started) == ran_on - 1  # the calling thread is one of them
        # The slabs cover every cell in order, so each cell keeps its column in its
        # block, and only a group's last cell repeats, six times at its tail.
        assert [i for slab in slabs for i in slab] == [
            i for g in range(3) for i in [*range(26 * g, 26 * g + 26)] + [26 * g + 25] * 6]
        assert fids.tobytes() == serial.tobytes()
    calls.clear()
    fids, threads = final_fidelities(chain, [], 4)
    assert (len(fids), threads, calls) == (0, 1, [])
    with pytest.raises(ValueError, match="must be >= 1"):
        final_fidelities(chain, pulses, 0)


def test_grid_reports_the_threads_its_cells_ran_on(monkeypatch):
    # One usable CPU at the first probe and four at every later one: the sweep
    # reports the threads of the plan its cells ran on, and makes no second plan.
    counts = itertools.chain([1], itertools.repeat(4))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(next(counts))),
                        raising=False)
    idents, batch = set(), propagate._batch
    monkeypatch.setattr(propagate, "_batch",
                        lambda *args: idents.add(threading.get_ident()) or batch(*args))
    deltas, taus = np.linspace(0.1, 0.8, 6), np.linspace(0.9, 1.5, 6)
    result = sweeps.sweep_delta_tau(ChainSpec(n_sites=10), 4.0, 2, deltas, taus, workers=4)
    assert result.fidelities.size == 36 and not np.isnan(result.fidelities).any()
    assert result.threads == len(idents) == 1


def test_final_fidelity_is_last_recorded_fidelity():
    # final_fidelity is a single train of run_protocol: the same bits on the spectral
    # route of a static chain and on the Chebyshev route of per-period noise.
    chain = ChainSpec(n_sites=20, static_coupling_disorder=0.3, band_broadening=0.4, seed=4)
    pulse = PulseSpec(6.0, 1.1, 0.7, 9)
    assert final_fidelity(chain, pulse) == run_protocol(chain, pulse).fidelities[-1]
    assert len(final_fidelities(chain, [])[0]) == 0
    noisy = replace(chain, per_period_noise=0.1)
    assert final_fidelity(noisy, pulse) == run_protocol(noisy, pulse).fidelities[-1]


def test_single_trains_step_one_column(monkeypatch):
    # Only grids pad their blocks: a static single train steps its one state.
    widths, gemm = [], propagate._gemm
    monkeypatch.setattr(propagate, "_gemm", lambda matrix, coeffs:
                        widths.append(coeffs.shape[1]) or gemm(matrix, coeffs))
    chain = ChainSpec(n_sites=12, static_coupling_disorder=0.3, seed=2)
    pulse = PulseSpec(6.0, 1.1, 0.7, 5)
    for run in (lambda: run_protocol(chain, pulse), lambda: final_fidelity(chain, pulse),
                lambda: site_amplitude_trace(chain, pulse, 0.1, 5.0)):
        widths.clear()
        run()
        assert widths and set(widths) == {1}
    widths.clear()
    final_fidelities(chain, [pulse])
    assert widths and set(widths) == {propagate._BLOCK}


@pytest.mark.parametrize("chain", [
    ChainSpec(n_sites=14, static_coupling_disorder=0.3, band_broadening=0.4, seed=6),
    ChainSpec(n_sites=14, per_period_noise=0.1, seed=6),
], ids=["static", "noisy"])
def test_grid_tasks_are_whole_blocks_and_cells_match_one_cell_grids(monkeypatch, usable_cpus,
                                                                    chain):
    # Three groups, (0, 3), (8, 3) and (8, 5): strengths and period counts both split them.
    pulses = [PulseSpec(psi, tau, delta, m) for delta in np.linspace(0.1, 1.0, 4)
              for tau in np.linspace(1.0, 1.6, 3)
              for psi, m in [(0.0, 3), (8.0, 3), (8.0, 5)]][:-2]
    alone = [final_fidelities(chain, [pulse])[0] for pulse in pulses]
    usable_cpus(8)
    calls = batch_spy(monkeypatch, pulses)
    for workers in (1, 2, 3, 6):
        calls.clear()
        fids = final_fidelities(chain, pulses, workers)[0]
        assert all(len(cells) % propagate._BLOCK == 0 for _, cells in calls), workers
        for pulse, value, one in zip(pulses, fids, alone):
            assert value.tobytes() == one.tobytes(), (workers, pulse)
    if chain.per_period_noise == 0.0:  # a static single train: one column, not a block
        for pulse, one in zip(pulses, alone):
            assert run_protocol(chain, pulse).fidelities[-1] == pytest.approx(one[0], abs=1e-14)


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


def test_overflowing_phase_raises_numerical_error():
    # An eigenvalue near 1.7e308 times a width of 1.2: E t overflows to inf.
    chain, pulse = ChainSpec(n_sites=6), PulseSpec(1.7e308, 1.3, 1.2, 1)
    dec = decompose(build_controlled_hamiltonian(chain, pulse))
    for run in (lambda: final_fidelity(chain, pulse),
                lambda: sweeps.sweep_delta_tau(chain, 1e308, 1, [0.02, 2.0], [0.02, 2.5]),
                lambda: site_amplitude_trace(chain, pulse, 0.1, 1.3),
                lambda: run_protocol(replace(chain, per_period_noise=0.1), pulse),
                lambda: evolve_interval(initial_state(6), dec, 1.2)):
        with pytest.raises(NumericalError, match="a spectral phase E t overflows"):
            run()


def test_chebyshev_norm_drift_raises_numerical_error(monkeypatch):
    real_stepper, calls = propagate._chebyshev_stepper, itertools.count()

    def one_scaled(*args):  # the third segment's output only
        step = real_stepper(*args)
        return lambda h, state: (1.001 if next(calls) == 2 else 1.0) * step(h, state)

    monkeypatch.setattr(propagate, "_chebyshev_stepper", one_scaled)
    with pytest.raises(NumericalError, match="norm drifted by .* over 3 periods"):
        run_protocol(ChainSpec(n_sites=8, per_period_noise=0.1), PulseSpec(5.0, 1.0, 0.5, 3))
    assert next(calls) == 6


def reference_chebyshev_step(h, state, duration):
    """The three-term Chebyshev loop over h's own Gershgorin interval that
    the stencil replaced, with the same zero-duration and cutoff branches."""
    d, e = h.diagonal, h.off_diagonal
    padded = np.abs(np.concatenate(([0.0], e, [0.0])))
    reach = padded[:-1] + padded[1:]
    lo, hi = float((d - reach).min()), float((d + reach).max())
    c, r = (hi + lo) / 2, (hi - lo) / 2
    if r * duration == 0.0:
        return np.exp(-1j * c * duration) * state
    if r * duration > propagate._CHEBYSHEV_MAX_RT:
        return evolve_interval(state, decompose(h), duration)
    j = propagate._bessel_series(r * duration)
    d2, e2 = 2 * (d - c) / r, 2 * e / r
    prev, cur, total = 0.0, state, j[0] * state
    for n in range(1, len(j)):  # T_n = 2 h' T_(n-1) - T_(n-2), halved at n = 1
        step = d2 * cur
        step[:-1] += e2 * cur[1:]
        step[1:] += e2 * cur[:-1]
        prev, cur = cur, step / 2 if n == 1 else step - prev
        total += (2 * (1, -1j, -1, 1j)[n % 4] * j[n]) * cur
    return np.exp(-1j * c * duration) * total


@pytest.mark.parametrize("n", [2, 3, 40, 130, 500])
def test_chebyshev_step_matches_three_term_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    chains = [ChainSpec(n), ChainSpec(n, 0.7, 0.3, 0.4, seed=5),
              ChainSpec(n, -1.2, per_period_noise=0.2, seed=6)]
    cutoff = propagate._CHEBYSHEV_MAX_RT * (1 - 1e-12)  # just below: still the series
    for chain, psi in itertools.product(chains, (8.0, -3.0)):
        hams = _period_hamiltonians(chain, PulseSpec(psi, 1.0, 0.5, 1))
        for h in next(hams):
            lo, hi = propagate._gershgorin(h.diagonal, np.abs(h.off_diagonal))
            for rt in (1e-12, 1e-9, 1e-3, 0.7, 5.0, 31.0, 100.0, cutoff):
                state = rng.normal(size=n) + 1j * rng.normal(size=n)
                duration = rt / ((hi - lo) / 2)
                step = propagate._chebyshev_stepper(h.diagonal, np.abs(h.off_diagonal), duration)
                out = step(h, state)
                assert np.array_equal(out, reference_chebyshev_step(h, state, duration)), (chain, rt)


def test_noisy_protocol_builds_each_series_once(monkeypatch):
    real_series, built = propagate._bessel_series, []
    monkeypatch.setattr(propagate, "_bessel_series", lambda x: built.append(x) or real_series(x))
    run_protocol(ChainSpec(n_sites=10, per_period_noise=0.2), PulseSpec(6.0, 1.1, 0.8, 16))
    assert len(built) == 2


def test_run_interval_holds_every_period_interval():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        n=st.integers(2, 40),
        coupling=st.floats(-2.0, 2.0),
        gamma=st.floats(0.0, 0.5),
        epsilon=st.floats(0.0, 0.5),
        eta=st.floats(0.0, 0.5, exclude_min=True),
        seed=st.integers(0, 2**64 - 1),
        psi=st.floats(-20.0, 20.0),
    )
    def check(n, coupling, gamma, epsilon, eta, seed, psi):
        chain = ChainSpec(n, coupling, gamma, epsilon, eta, seed)
        bound = propagate._noise_bound(chain)
        hams = _period_hamiltonians(chain, PulseSpec(psi, 1.0, 0.5, 1))
        first = next(hams)
        runs = [propagate._gershgorin(h.diagonal, bound) for h in first]
        for pair in itertools.islice(itertools.chain([first], hams), 64):
            for h, h0, (run_lo, run_hi) in zip(pair, first, runs):
                assert np.array_equal(h.diagonal, h0.diagonal)
                lo, hi = propagate._gershgorin(h.diagonal, np.abs(h.off_diagonal))
                assert run_lo <= lo and hi <= run_hi
        # Also at the noise's supremum, where |J + b| + eta alone fails by an ulp.
        bond_off, site_off = sample_static_disorder(chain)
        for sign in (1, -1):
            h = build_free_hamiltonian(chain, bond_off + sign * eta, site_off)
            assert np.all(np.abs(h.off_diagonal) <= bound)

    check()


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
            step = propagate._chebyshev_stepper(h.diagonal, np.abs(h.off_diagonal), duration)
            assert np.abs(step(h, state) - expected).max() <= 1e-12

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
    expected = evolve_interval(state, decompose(h), 45.0)  # r * duration = 247.5
    monkeypatch.setattr(propagate, "_bessel_series", short_series)
    step = propagate._chebyshev_stepper(h.diagonal, np.abs(h.off_diagonal), 45.0)
    assert np.abs(step(h, state) - expected).max() <= 1e-12
    record = run_protocol(ChainSpec(n_sites=40, per_period_noise=0.1), PulseSpec(1e300, 1.3, 1.2, 2))
    assert np.all(np.isfinite(record.fidelities))


def test_chebyshev_zero_duration_is_an_exact_copy():
    chain = ChainSpec(n_sites=7, band_broadening=0.3)
    h = build_controlled_hamiltonian(chain, PulseSpec(4.0, 1.0, 1.0, 1))
    state = np.linspace(0.1, 0.7, 7) * (1 - 2j)
    out = propagate._chebyshev_stepper(h.diagonal, np.abs(h.off_diagonal), 0.0)(h, state)
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


def test_noisy_trace_matches_spectral_route_every_period():
    # The bench's noisy trace (``trace --m 512 --seed 11``), period by period.
    chain = ChainSpec(n_sites=130, per_period_noise=0.1, seed=11)
    pulse = PulseSpec(8.0, 1.3, 1.2, 512)
    record = run_protocol(chain, pulse)
    spectral = [1.0] + [f[0] for _, f in propagate._batch(chain, [pulse], 1)]
    assert len(spectral) == len(record.fidelities) == 513
    assert np.abs(record.fidelities - spectral).max() <= 1e-12


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
        got = final_fidelities(chain, [PulseSpec(psi, tau, delta, m) for delta, tau in cells])[0]
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
        batched = final_fidelities(chain, pulses)[0]
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
        fids = final_fidelities(chain, pulses)[0]
        trace = np.abs(site_amplitude_trace(chain, pulse, dt, t_max))
        p_abs = sweeps.pq_check(static_chain, pulse, dt, t_max).p_abs
        with monkeypatch.context() as patch:
            for module in (propagate, sweeps):
                patch.setattr(module, "sample_static_disorder", negated_static)
            patch.setattr(propagate, "sample_period_noise", lambda c, k: -noise(c, k))
            flipped = replace(chain, coupling=-coupling)
            assert np.abs(final_fidelities(flipped, pulses)[0] - fids).max() <= 1e-12
            flipped_trace = site_amplitude_trace(flipped, pulse, dt, t_max)
            assert np.abs(np.abs(flipped_trace) - trace).max() <= 1e-12
            flipped_p = sweeps.pq_check(replace(flipped, per_period_noise=0.0), pulse, dt, t_max)
            assert np.abs(flipped_p.p_abs - p_abs).max() <= 1e-12

    check()
