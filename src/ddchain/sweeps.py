"""Sweep jobs over the protocol parameter space.

Each study produces a plain table of results from a grid of independent
protocol runs. The cells of a grid go to ``propagate.final_fidelities``
in one call, which advances every cell of one pulse strength together
as a block; each cell's value is a pure function of its parameters and
does not depend on which other cells share its block. Infeasible cells
(pulse width exceeding the period) are kept in the table as NaN
sentinels rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import KernelTrace, correlation_kernel, solve_p_equation
from .model import (
    ChainSpec,
    PulseSpec,
    build_free_hamiltonian,
    environment_block,
    sample_static_disorder,
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


def chain_spec(n, j, gamma, epsilon, eta, seed) -> ChainSpec:
    """ChainSpec from the run-config names of its parameters."""
    return ChainSpec(n_sites=n, coupling=j, static_coupling_disorder=gamma,
                     band_broadening=epsilon, per_period_noise=eta, seed=seed)


def _sweep_grid(grid: SweepGrid, chain: ChainSpec, pulse_at) -> SweepResult:
    """Final fidelity at every (axis1, axis2) cell of ``grid``. ``pulse_at(x, y)``
    gives the cell's pulse, or None for an infeasible cell (a NaN sentinel)."""
    table = np.full((len(grid.axis1), len(grid.axis2)), INFEASIBLE)
    cells = {(a, b): pulse for a, x in enumerate(grid.axis1) for b, y in enumerate(grid.axis2)
             if (pulse := pulse_at(x, y)) is not None}
    for slot, value in zip(cells, final_fidelities(chain, list(cells.values()))):
        table[slot] = value
    return SweepResult(grid, table)


def sweep_delta_tau(
    psi: float,
    n: int,
    m: int,
    delta_values,
    tau_values,
    j: float = 1.0,
    gamma: float = 0.0,
    epsilon: float = 0.0,
    eta: float = 0.0,
    seed: int = 1,
) -> SweepResult:
    """Final fidelity over a (width, period) grid at fixed strength."""
    grid = SweepGrid("delta", np.asarray(delta_values, dtype=float),
                     "tau", np.asarray(tau_values, dtype=float))
    return _sweep_grid(
        grid, chain_spec(n, j, gamma, epsilon, eta, seed),
        lambda delta, tau: None if delta > tau else PulseSpec(psi, tau, delta, m),
    )


def sweep_ratio_psi(
    delta: float,
    ratio_values,
    psi_values,
    n: int,
    m: int,
    j: float = 1.0,
    gamma: float = 0.0,
    epsilon: float = 0.0,
    eta: float = 0.0,
    seed: int = 1,
) -> SweepResult:
    """Final fidelity over (period/width ratio, strength) at fixed width."""
    ratio_values = np.asarray(ratio_values, dtype=float)
    if np.any(ratio_values < 1.0):
        raise ValueError("ratios must be >= 1 so the width fits in the period")
    grid = SweepGrid("ratio", ratio_values, "psi", np.asarray(psi_values, dtype=float))
    return _sweep_grid(
        grid, chain_spec(n, j, gamma, epsilon, eta, seed),
        lambda ratio, psi: PulseSpec(psi, ratio * delta, delta, m),
    )


def sweep_size(
    psi: float,
    delta: float,
    tau: float,
    m: int,
    n_values,
    j: float = 1.0,
    gamma: float = 0.0,
    epsilon: float = 0.0,
    eta: float = 0.0,
    seed: int = 1,
) -> SizeSweep:
    """Free and controlled final fidelity for each chain size."""
    n_values = np.asarray(n_values, dtype=int)
    pulses = [PulseSpec(0.0, tau, delta, m), PulseSpec(psi, tau, delta, m)]
    pairs = np.array([final_fidelities(chain_spec(int(n), j, gamma, epsilon, eta, seed), pulses)
                      for n in n_values]).reshape(len(n_values), 2)
    return SizeSweep(n_values, pairs[:, 0], pairs[:, 1])


def trace_variants(
    psi: float,
    delta: float,
    tau: float,
    m: int,
    n: int,
    j: float = 1.0,
    gamma: float = 0.5,
    epsilon: float = 0.5,
    eta: float = 0.1,
    seed: int = 1,
    record_every: int = 1,
) -> VariantTraces:
    """Fidelity time series for free evolution and the four controlled
    variants: clean chain, site-energy broadening, static bond disorder,
    per-period bond noise.

    All variants draw from the streams of one seed, so each disorder
    amplitude perturbs the same underlying realization.
    """
    pulse_ctrl = PulseSpec(psi, tau, delta, m)
    runs = {
        "free": (PulseSpec(0.0, tau, delta, m), chain_spec(n, j, 0.0, 0.0, 0.0, seed)),
        "constant": (pulse_ctrl, chain_spec(n, j, 0.0, 0.0, 0.0, seed)),
        "broadening": (pulse_ctrl, chain_spec(n, j, 0.0, epsilon, 0.0, seed)),
        "static_random": (pulse_ctrl, chain_spec(n, j, gamma, 0.0, 0.0, seed)),
        "period_noise": (pulse_ctrl, chain_spec(n, j, 0.0, 0.0, eta, seed)),
    }
    records = [run_protocol(chain, pulse, record_every=record_every)
               for pulse, chain in runs.values()]
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


def pq_check(
    chain: ChainSpec, pulse: PulseSpec | None, dt: float, t_max: float
) -> PqComparison:
    """Solve the memory-kernel equation and compare |P(t)| against the
    qubit amplitude from full unitary propagation on the same grid.

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
    kernel = correlation_kernel(environment_block(h), h.off_diagonal[0], dt, t_max)
    p = solve_p_equation(kernel, pulse, t_max, dt, drive_offset=h.diagonal[0])
    p_abs = np.abs(p.values)
    times = np.arange(len(p_abs)) * dt
    return PqComparison(times, p_abs, direct, np.abs(p_abs - direct))
