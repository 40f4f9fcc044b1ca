"""Sweep jobs over the protocol parameter space.

Each study takes the chain it runs on, a ``ChainSpec``, first, and
produces a plain table of results from a grid of independent protocol
runs. The cells of a grid go to ``propagate.final_fidelities``
in one call, which advances every cell of one pulse strength together
as a block; each cell's value is a pure function of its parameters and
does not depend on which other cells share its block. Infeasible cells
(pulse width exceeding the period) are kept in the table as NaN
sentinels rather than dropped.
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
class SweepGrid:
    """The two swept axes of a 2-D sweep."""

    axis1_name: str
    axis1: np.ndarray
    axis2_name: str
    axis2: np.ndarray

    def __post_init__(self):
        for name, values in ((self.axis1_name, self.axis1), (self.axis2_name, self.axis2)):
            v = np.asarray(values, dtype=float)
            if v.ndim != 1 or len(v) == 0:
                raise ValueError(f"axis {name!r} must be a nonempty vector")
            if len(v) > 1 and not np.all(np.diff(v) > 0):
                raise ValueError(f"axis {name!r} must be strictly increasing")


@dataclass(frozen=True)
class SweepResult:
    grid: SweepGrid
    fidelities: np.ndarray  # shape (len(axis1), len(axis2)), NaN = infeasible


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


def _sweep_grid(grid: SweepGrid, chain: ChainSpec, pulse_at) -> SweepResult:
    """Final fidelity at every (axis1, axis2) cell of ``grid``. ``pulse_at(x, y)``
    gives the cell's pulse, or None for an infeasible cell (a NaN sentinel)."""
    table = np.full((len(grid.axis1), len(grid.axis2)), INFEASIBLE)
    cells = {(a, b): pulse for a, x in enumerate(grid.axis1) for b, y in enumerate(grid.axis2)
             if (pulse := pulse_at(x, y)) is not None}
    for slot, value in zip(cells, final_fidelities(chain, list(cells.values()))):
        table[slot] = value
    return SweepResult(grid, table)


def sweep_delta_tau(chain: ChainSpec, psi: float, m: int, delta_values, tau_values) -> SweepResult:
    """Final fidelity over a (width, period) grid at fixed strength."""
    grid = SweepGrid("delta", np.asarray(delta_values, dtype=float),
                     "tau", np.asarray(tau_values, dtype=float))
    return _sweep_grid(
        grid, chain, lambda delta, tau: None if delta > tau else PulseSpec(psi, tau, delta, m)
    )


def sweep_ratio_psi(chain: ChainSpec, delta: float, m: int, ratio_values,
                    psi_values) -> SweepResult:
    """Final fidelity over (period/width ratio, strength) at fixed width."""
    ratio_values = np.asarray(ratio_values, dtype=float)
    if np.any(ratio_values < 1.0):
        raise ValueError("ratios must be >= 1 so the width fits in the period")
    grid = SweepGrid("ratio", ratio_values, "psi", np.asarray(psi_values, dtype=float))
    return _sweep_grid(grid, chain, lambda ratio, psi: PulseSpec(psi, ratio * delta, delta, m))


def sweep_size(chain: ChainSpec, psi: float, delta: float, tau: float, m: int,
               n_values) -> SizeSweep:
    """Free and controlled final fidelity of ``chain`` resized to each of
    ``n_values``; ``chain.n_sites`` is not used."""
    n_values = np.asarray(n_values, dtype=int)
    pulses = [PulseSpec(0.0, tau, delta, m), PulseSpec(psi, tau, delta, m)]
    pairs = np.array([final_fidelities(replace(chain, n_sites=int(n)), pulses)
                      for n in n_values]).reshape(len(n_values), 2)
    return SizeSweep(n_values, pairs[:, 0], pairs[:, 1])


def trace_variants(chain: ChainSpec, psi: float, delta: float, tau: float, m: int,
                   record_every: int = 1) -> VariantTraces:
    """Fidelity time series for free evolution and the four controlled
    variants: clean chain, site-energy broadening, static bond disorder,
    per-period bond noise.

    The free and clean runs zero ``chain``'s three disorder amplitudes;
    each disordered variant switches one of them back on. All variants
    draw from the streams of the one seed, so each amplitude perturbs the
    same underlying realization.
    """
    clean = replace(chain, static_coupling_disorder=0.0, band_broadening=0.0,
                    per_period_noise=0.0)
    pulse_ctrl = PulseSpec(psi, tau, delta, m)
    runs = [
        (PulseSpec(0.0, tau, delta, m), clean),
        (pulse_ctrl, clean),
        (pulse_ctrl, replace(clean, band_broadening=chain.band_broadening)),
        (pulse_ctrl, replace(clean, static_coupling_disorder=chain.static_coupling_disorder)),
        (pulse_ctrl, replace(clean, per_period_noise=chain.per_period_noise)),
    ]
    records = [run_protocol(c, pulse, record_every=record_every) for pulse, c in runs]
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
    bond_off, site_off = sample_static_disorder(chain)
    env = environment_block(build_free_hamiltonian(chain, bond_off, site_off))
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
    bond_off, site_off = sample_static_disorder(chain)
    h = build_free_hamiltonian(chain, bond_off, site_off)
    times = time_grid(dt, t_max)
    g = kernel_values(environment_block(h), h.off_diagonal[0], times)
    p = solve_p_equation(g, pulse, t_max, dt, drive_offset=h.diagonal[0])
    p_abs = np.abs(p)
    return PqComparison(times, p_abs, direct, np.abs(p_abs - direct))
