"""Acceptance suite: the headline quantitative claims of the simulator,
each as one criterion with its tolerance, printing one PASS/FAIL line
(run with ``pytest -rA`` or ``-s`` to see the lines for passing tests).
"""

import numpy as np

from ddchain.cli import main
from ddchain.eigen import decompose
from ddchain.model import ChainSpec, PulseSpec, TridiagonalHamiltonian
from ddchain.sweeps import (
    kernel_study,
    pq_check,
    sweep_delta_tau,
    sweep_ratio_psi,
    sweep_size,
    trace_variants,
)

PSI, DELTA, TAU, M = 8.0, 1.2, 1.3, 128


def check(name, condition, detail):
    print(f"{'PASS' if condition else 'FAIL'}  {name}  ({detail})")
    assert condition, f"{name}: {detail}"


def test_criterion_1_size_independent_controlled_fidelity():
    sizes = [50, 70, 90, 110, 130]
    table = sweep_size(ChainSpec(n_sites=130), PSI, DELTA, TAU, M, sizes)
    deviation = np.abs(table.controlled - 0.98).max()
    spread = table.controlled.std()
    check(
        "controlled fidelity is size independent",
        deviation <= 0.02 and spread <= 0.01,
        f"max |F - 0.98| = {deviation:.4f} (<= 0.02), std over N = {spread:.4f} (<= 0.01)",
    )


def test_criterion_2_kernel_normalization_and_lifetime():
    trace = kernel_study(ChainSpec(n_sites=130, coupling=1.0), dt=0.01, t_max=5.0)
    g0_error = abs(trace.samples[0] - 1.0)
    lifetime = trace.lifetime
    check(
        "kernel normalization and decay lifetime",
        g0_error <= 1e-12 and lifetime is not None and abs(lifetime - 1.7) <= 0.2,
        f"|g(0) - 1| = {g0_error:.2e} (<= 1e-12), lifetime = {lifetime} (1.7 +- 0.2, "
        f"threshold 0.02, hold 0.5)",
    )


def test_criterion_3_pulse_width_upper_bound():
    result = sweep_delta_tau(ChainSpec(n_sites=130), PSI, M, [0.05, 1.2, 1.6], [0.06, 1.3, 1.7])
    corner = result.fidelities[0, 0]   # near the fast-pulse limit
    inside = result.fidelities[1, 1]   # width 1.2, period 1.3
    outside = result.fidelities[2, 2]  # width 1.6, period 1.7
    check(
        "pulse-width upper bound sits between 1.2 and 1.6",
        corner > 0.95 and inside >= 0.95 and outside < 0.95
        and np.isnan(result.fidelities[2, 1]),
        f"F(0.05, 0.06) = {corner:.4f} (> 0.95), F(1.2, 1.3) = {inside:.4f} (>= 0.95), "
        f"F(1.6, 1.7) = {outside:.4f} (< 0.95)",
    )


def test_criterion_4_pulse_strength_window():
    result = sweep_ratio_psi(ChainSpec(n_sites=130), 0.5, M, [1.3], [3.0, 7.5, 14.0])
    low, mid, high = result.fidelities[0]
    check(
        "pulse-strength window brackets [6, 9] at width 0.5",
        mid >= 0.95 and low < 0.95 and high < 0.95,
        f"F(psi=7.5) = {mid:.4f} (>= 0.95), F(psi=3) = {low:.4f}, F(psi=14) = {high:.4f} (< 0.95)",
    )


def test_criterion_5_memory_kernel_route_matches_direct():
    pulse = PulseSpec(PSI, TAU, DELTA, 10)
    t_max = 10 * TAU
    worst_error = 0.0
    worst_ratio = np.inf
    for n in (3, 5, 10, 30):
        chain = ChainSpec(n_sites=n)
        for control in (PulseSpec(0.0, t_max, 0.0, 1), pulse):
            err = pq_check(chain, control, 1e-3, t_max).abs_error.max()
            err_half = pq_check(chain, control, 5e-4, t_max).abs_error.max()
            worst_error = max(worst_error, err)
            worst_ratio = min(worst_ratio, err / err_half)
    check(
        "memory-kernel amplitude equals direct propagation",
        worst_error <= 1e-3 and worst_ratio >= 3.0,
        f"max error = {worst_error:.2e} (<= 1e-3 at dt=1e-3), "
        f"worst halving ratio = {worst_ratio:.2f} (>= 3)",
    )


def test_criterion_6_eigensolver_oracle_spectra():
    worst_spectrum = 0.0
    for n in (10, 130):
        dec = decompose(TridiagonalHamiltonian(np.zeros(n), np.ones(n - 1)))
        exact = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        worst_spectrum = max(worst_spectrum, np.abs(dec.eigenvalues - exact).max())

    rng = np.random.default_rng(2718)
    worst_ortho = 0.0
    residual_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 201))
        h = TridiagonalHamiltonian(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n - 1))
        dec = decompose(h)
        v = dec.eigenvectors
        worst_ortho = max(worst_ortho, np.abs(v.T @ v - np.eye(n)).max())
        mat = np.diag(h.diagonal) + np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)
        residual = np.abs(mat @ v - v * dec.eigenvalues).max(axis=0)
        residual_ok &= bool(np.all(residual <= 1e-10 * (1 + np.abs(dec.eigenvalues))))
    check(
        "eigensolver matches closed-form spectra and invariants",
        worst_spectrum <= 1e-10 and worst_ortho <= 1e-10 and residual_ok,
        f"spectrum error = {worst_spectrum:.2e} (<= 1e-10), "
        f"orthonormality = {worst_ortho:.2e} (<= 1e-10), residuals ok = {residual_ok}",
    )


def test_criterion_7_disorder_robustness_of_controlled_traces():
    traces = trace_variants(
        ChainSpec(n_sites=130, static_coupling_disorder=0.5, band_broadening=0.5,
                  per_period_noise=0.1, seed=1),
        PSI, DELTA, TAU, M,
    )
    dev_broadening = np.abs(traces.broadening - traces.constant).max()
    dev_static = np.abs(traces.static_random - traces.constant).max()
    dev_noise = np.abs(traces.period_noise - traces.constant).max()
    worst = max(dev_broadening, dev_static, dev_noise)
    check(
        "disordered controlled traces stay near the clean trace",
        worst <= 0.05,
        f"max deviation over all recorded times = {worst:.4f} (<= 0.05; "
        f"broadening {dev_broadening:.4f}, static {dev_static:.4f}, noise {dev_noise:.4f})",
    )


def test_criterion_8_deterministic_csv_output(tmp_path):
    args = [
        "delta-tau", "--n", "40", "--m", "16", "--seed", "9",
        "--delta-min", "0.3", "--delta-max", "1.5", "--delta-steps", "4",
        "--tau-min", "0.4", "--tau-max", "1.6", "--tau-steps", "4",
    ]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert main(args + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert main(args + ["--workers", "4", "--out", str(paths[2])]) == 0
    rerun_identical = paths[0].read_bytes() == paths[1].read_bytes()
    workers_identical = paths[0].read_bytes() == paths[2].read_bytes()
    check(
        "identical config and seed give byte-identical CSV",
        rerun_identical and workers_identical,
        f"rerun identical = {rerun_identical}, worker-count independent = {workers_identical}",
    )
