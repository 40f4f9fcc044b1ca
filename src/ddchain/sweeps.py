"""Sweep jobs over the protocol parameter space.

Each study takes the chain it runs on, a ``ChainSpec``, first, and
produces a plain table of results from independent protocol runs. A
single train, as in the size scan, runs through ``propagate.run_protocol``.
The cells of a grid go to ``propagate.final_fidelities`` in one call,
which advances the cells of one pulse strength together as blocks, on up
to ``workers`` threads; each cell's value is a pure function of its
parameters, whatever its block-mates or the thread count. Infeasible
cells (pulse width exceeding the period) are kept as NaN sentinels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .kernel import KernelTrace, correlation_kernel, kernel_values, solve_p_equation
from .model import (
    ChainSpec,
    PulseSpec,
    build_free_hamiltonian,
    environment_block,
    sample_static_disorder,
    time_grid,
)
from .propagate import final_fidelities, run_protocol, site_amplitude_trace

INFEASIBLE = float("nan")


@dataclass(frozen=True)
class SweepResult:
    axis1: np.ndarray
    axis2: np.ndarray
    fidelities: np.ndarray  # shape (len(axis1), len(axis2)), NaN = infeasible
    threads: int  # the threads its cells ran on


@dataclass(frozen=True)
class SizeSweep:
    n_values: np.ndarray
    free: np.ndarray
    controlled: np.ndarray


@dataclass(frozen=True)
class VariantTraces:
    """Fidelity time series for the five robustness variants."""

    times: np.ndarray
    free: np.ndarray
    constant: np.ndarray
    broadening: np.ndarray
    static_random: np.ndarray
    period_noise: np.ndarray


@dataclass(frozen=True)
class PqComparison:
    times: np.ndarray
    p_abs: np.ndarray
    direct: np.ndarray
    abs_error: np.ndarray


def _sweep_grid(chain: ChainSpec, axis1, axis2, pulse_at, workers: int) -> SweepResult:
    """Final fidelity at every (axis1, axis2) cell, on up to ``workers`` threads.
    ``pulse_at(x, y)`` gives the cell's pulse, or None for an infeasible cell (a NaN)."""
    axes = [np.asarray(values, dtype=float) for values in (axis1, axis2)]
    for which, v in zip(("first", "second"), axes):
        if v.ndim != 1 or len(v) == 0:
            raise ValueError(f"the {which} axis must be a nonempty vector")
        if len(v) > 1 and not np.all(np.diff(v) > 0):
            raise ValueError(f"the {which} axis must be strictly increasing")
    table = np.full((len(axes[0]), len(axes[1])), INFEASIBLE)
    cells = {(a, b): pulse for a, x in enumerate(axes[0]) for b, y in enumerate(axes[1])
             if (pulse := pulse_at(x, y)) is not None}
    fidelities, threads = final_fidelities(chain, list(cells.values()), workers)
    for slot, value in zip(cells, fidelities):
        table[slot] = value
    return SweepResult(*axes, table, threads)


def sweep_delta_tau(chain: ChainSpec, psi: float, m: int, delta_values, tau_values,
                    workers: int = 1) -> SweepResult:
    """Final fidelity over a (width, period) grid at fixed strength."""
    return _sweep_grid(chain, delta_values, tau_values, lambda delta, tau: None if delta > tau
                       else PulseSpec(psi, tau, delta, m), workers)


def sweep_ratio_psi(chain: ChainSpec, delta: float, m: int, ratio_values,
                    psi_values, workers: int = 1) -> SweepResult:
    """Final fidelity over (period/width ratio, strength) at fixed width."""
    if np.any(np.asarray(ratio_values, dtype=float) < 1.0):
        raise ValueError("ratios must be >= 1 so the width fits in the period")
    return _sweep_grid(chain, ratio_values, psi_values,
                       lambda ratio, psi: PulseSpec(psi, ratio * delta, delta, m), workers)


def sweep_size(chain: ChainSpec, pulse: PulseSpec, n_values) -> SizeSweep:
    """Free and controlled final fidelity of ``chain`` resized to each of
    ``n_values``; ``chain.n_sites`` is not used. The free run is ``pulse``
    at zero strength; each run is a single train of ``run_protocol``."""
    n_values = np.asarray(n_values, dtype=int)
    pulses = [replace(pulse, strength=0.0), pulse]
    pairs = np.array([[run_protocol(replace(chain, n_sites=int(n)), p, p.periods).fidelities[-1]
                       for p in pulses] for n in n_values]).reshape(len(n_values), 2)
    return SizeSweep(n_values, pairs[:, 0], pairs[:, 1])


def trace_variants(chain: ChainSpec, pulse: PulseSpec, record_every: int = 1) -> VariantTraces:
    """Fidelity time series for free evolution (``pulse`` at zero strength)
    and the four controlled variants under ``pulse``: clean chain,
    site-energy broadening, static bond disorder, per-period bond noise.

    The free and clean runs zero ``chain``'s three disorder amplitudes;
    each disordered variant switches one of them back on. All variants
    draw from the streams of the one seed, so each amplitude perturbs the
    same underlying realization.
    """
    clean = replace(chain, static_coupling_disorder=0.0, band_broadening=0.0,
                    per_period_noise=0.0)
    runs = [
        (replace(pulse, strength=0.0), clean),
        (pulse, clean),
        (pulse, replace(clean, band_broadening=chain.band_broadening)),
        (pulse, replace(clean, static_coupling_disorder=chain.static_coupling_disorder)),
        (pulse, replace(clean, per_period_noise=chain.per_period_noise)),
    ]
    records = [run_protocol(c, train, record_every=record_every) for train, c in runs]
    return VariantTraces(records[0].times, *(r.fidelities for r in records))


def kernel_study(
    chain: ChainSpec,
    dt: float,
    t_max: float,
    threshold: float = 0.02,
    hold: float = 0.5,
) -> KernelTrace:
    """Correlation kernel of the chain's environment block.

    Static disorder (bond and site) perturbs the environment block only;
    the qubit-bath coupling is kept at its nominal value so disordered
    traces remain normalized to J^2 at zero delay and are directly
    comparable to the clean one.
    """
    env = environment_block(build_free_hamiltonian(chain, *sample_static_disorder(chain)))
    return correlation_kernel(env, chain.coupling, dt, t_max, threshold, hold)


def pq_check(chain: ChainSpec, pulse: PulseSpec, dt: float, t_max: float) -> PqComparison:
    """Solve the memory-kernel equation under ``pulse`` (of zero strength
    for free evolution) and compare |P(t)| against the qubit amplitude
    from full unitary propagation on the same grid.

    Exact for any static chain: the drive offset, qubit-bath coupling,
    and environment block are read off the built Hamiltonian, disorder
    included. Per-period noise makes the kernel time dependent and is
    rejected, as is a ``t_max`` past the end of the pulse train; both
    are checked before the Volterra solve.
    """
    if chain.per_period_noise > 0.0:
        raise ValueError("the memory-kernel route requires a static environment")
    direct = np.abs(site_amplitude_trace(chain, pulse, dt, t_max))
    h = build_free_hamiltonian(chain, *sample_static_disorder(chain))
    times = time_grid(dt, t_max)
    g = kernel_values(environment_block(h), h.off_diagonal[0], times)
    p = solve_p_equation(g, pulse, t_max, dt, drive_offset=h.diagonal[0])
    p_abs = np.abs(p)
    return PqComparison(times, p_abs, direct, np.abs(p_abs - direct))
