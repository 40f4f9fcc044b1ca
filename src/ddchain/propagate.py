"""Exact unitary propagation of the one-magnon state through the pulse
protocol, and the survival fidelity of the qubit.

States are complex amplitude vectors over sites (index 0 is the qubit);
the initial state puts the single up spin on the qubit. One protocol
period evolves under the pulsed Hamiltonian for ``width``, then under
the free Hamiltonian for ``period - width``; each segment is applied
spectrally as V exp(-i E t) V^T, which is unitary to rounding error.
The survival fidelity is the modulus of the qubit amplitude: in this
sector the reduced qubit density matrix has |amplitude|^2 as its
excited-state population, and the fidelity against the initial state is
its square root.

Global phases are never tracked; every observable here is a modulus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .eigen import SpectralDecomposition, decompose
from .errors import NumericalError
from .model import (
    ChainSpec,
    PulseSpec,
    build_controlled_hamiltonian,
    build_free_hamiltonian,
    check_within_train,
    sample_period_noise,
    sample_static_disorder,
)


# Batches are padded with idle cells to a multiple of this many columns,
# so every column takes the same GEMM kernel path and a cell's bytes do
# not depend on its batch-mates or on the BLAS thread count.
_BLOCK = 8


def initial_state(n_sites: int) -> np.ndarray:
    """The product state with the up spin on the qubit site."""
    state = np.zeros(n_sites, dtype=complex)
    state[0] = 1.0
    return state


def fidelity(states: np.ndarray) -> np.ndarray:
    """Survival fidelity |amplitude at the qubit site| of a normalized
    one-magnon state, or of each column of an N x K block of states."""
    return np.abs(states[0])


def _step(block: np.ndarray, decomposition: SpectralDecomposition,
          durations: np.ndarray) -> np.ndarray:
    """Evolve column j of the C-contiguous complex N x K ``block`` for
    ``durations[j]``: S <- V (exp(-i E t) * (V^T S)), both products real
    GEMMs on the block's float view. Zero-duration columns stay exact."""
    v = decomposition.eigenvectors
    busy = durations != 0.0
    phases = np.ones(block.shape, dtype=complex)
    np.exp(-1j * np.outer(decomposition.eigenvalues, durations), out=phases, where=busy)
    coeffs = (v.T @ block.view(float)).view(complex)
    coeffs *= phases
    out = (v @ coeffs.view(float)).view(complex)
    out[:, ~busy] = block[:, ~busy]
    return out


def evolve_interval(state: np.ndarray, decomposition: SpectralDecomposition,
                    duration: float) -> np.ndarray:
    """Evolve ``state`` for ``duration`` under the Hamiltonian with the
    given spectral decomposition: rotate to the eigenbasis, apply the
    phases exp(-i E duration), rotate back."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if len(state) != decomposition.size:
        raise ValueError(f"state has length {len(state)}, expected {decomposition.size}")
    column = np.asarray(state, dtype=complex).reshape(-1, 1)
    return _step(column, decomposition, np.array([float(duration)]))[:, 0]


@dataclass(frozen=True)
class EvolutionRecord:
    """Fidelity trace sampled at period boundaries t = k * period."""

    times: np.ndarray
    fidelities: np.ndarray


def _period_decompositions(chain: ChainSpec, pulse: PulseSpec):
    """Yield the (pulsed, free) decompositions of periods 0, 1, 2, ...

    Static disorder is sampled once from the chain seed. When the chain
    has per-period noise, fresh bond offsets are drawn each period and
    both Hamiltonians are re-decomposed for that period; otherwise the
    one pair is reused. At zero strength the free decomposition serves
    as the pulsed one.
    """
    bond_off, site_off = sample_static_disorder(chain)
    noisy = chain.per_period_noise > 0.0
    for k in itertools.count():
        if noisy or k == 0:
            bonds = bond_off + sample_period_noise(chain, k) if noisy else bond_off
            free = decompose(build_free_hamiltonian(chain, bonds, site_off))
            pulsed = free
            if pulse.strength != 0.0:
                pulsed = decompose(build_controlled_hamiltonian(chain, pulse, bonds, site_off))
        yield pulsed, free


def _batch(chain: ChainSpec, pulses: list[PulseSpec]):
    """Yield (k, block) after periods k = 0, 1, ..., periods of ``pulses``,
    which share one strength and period count and so every decomposition.
    Column j of the N x K block is the state of pulses[j]; idle columns pad
    K to a multiple of _BLOCK. Raises NumericalError if a column's norm is
    off 1 by more than 1e-9 after the last period.
    """
    pad = [0.0] * (-len(pulses) % _BLOCK)
    widths = np.array([p.width for p in pulses] + pad)
    rests = np.array([p.period - p.width for p in pulses] + pad)
    block = np.repeat(initial_state(chain.n_sites)[:, None], len(widths), axis=1)
    yield 0, block
    periods = pulses[0].periods
    for k, (pulsed, free) in zip(range(1, periods + 1), _period_decompositions(chain, pulses[0])):
        block = _step(_step(block, pulsed, widths), free, rests)
        if k == periods and (drift := np.abs(np.linalg.norm(block, axis=0) - 1).max()) > 1e-9:
            raise NumericalError(f"state norm drifted by {drift:.3e} over {periods} periods")
        yield k, block


def run_protocol(chain: ChainSpec, pulse: PulseSpec, record_every: int = 1) -> EvolutionRecord:
    """Run the full pulse protocol and record the survival fidelity.

    Starting from the initial state, applies ``pulse.periods``
    repetitions of [pulsed evolution for width, free evolution for
    period - width], recording the fidelity at t = 0 and then every
    ``record_every`` periods (the final period is always recorded).
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    times, fids = [], []
    for k, block in _batch(chain, [pulse]):
        if k % record_every == 0 or k == pulse.periods:
            times.append(k * pulse.period)
            fids.append(fidelity(block)[0])
    return EvolutionRecord(np.asarray(times), np.asarray(fids))


def final_fidelities(chain: ChainSpec, pulses: list[PulseSpec]) -> np.ndarray:
    """Survival fidelity after the last period of each pulse's protocol on
    ``chain``, in order; pulses sharing a strength and period count run as
    one batch."""
    out = np.empty(len(pulses))
    groups: dict[tuple[float, int], list[int]] = {}
    for i, pulse in enumerate(pulses):
        groups.setdefault((pulse.strength, pulse.periods), []).append(i)
    for cells in groups.values():
        for _, block in _batch(chain, [pulses[i] for i in cells]):
            pass
        out[cells] = fidelity(block)[: len(cells)]
    return out


def final_fidelity(chain: ChainSpec, pulse: PulseSpec) -> float:
    """Survival fidelity after the last protocol period."""
    return float(final_fidelities(chain, [pulse])[0])


def site_amplitude_trace(
    chain: ChainSpec, pulse: PulseSpec | None, dt: float, t_max: float
) -> np.ndarray:
    """Qubit amplitude on the uniform grid 0, dt, ..., ~t_max under the
    protocol (or free evolution when ``pulse`` is None).

    Samples inside pulse/free segments come from the segment's spectral
    phases directly, so values are exact at every grid time, not only at
    period boundaries. ``t_max`` must not pass the end of the pulse
    train, ``periods * period``; when ``dt`` does not divide ``t_max``
    the grid end rounds to the nearest step, and up to half a step past
    the train the protocol simply runs on. Per-period noise requires the
    protocol clock, so it is rejected when ``pulse`` is None.
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be > 0")
    n = int(round(t_max / dt))
    t_grid = np.arange(n + 1) * dt
    t_end = n * dt
    tol = 1e-9 * dt
    if pulse is None:
        if chain.per_period_noise > 0.0:
            raise ValueError("per-period noise needs a pulse protocol clock")
        # One free period spanning the whole grid, even when t_end rounds to 0.
        pulse = PulseSpec(0.0, max(t_end, t_max), 0.0, 1)
    else:
        check_within_train(pulse, t_max)

    out = np.empty(n + 1, dtype=complex)
    state = initial_state(chain.n_sites)
    out[0] = state[0]
    schedule = _period_decompositions(chain, pulse)
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
            if len(idx):
                row = dec.eigenvectors[0, :] * (dec.eigenvectors.T @ state)
                out[idx] = np.exp(-1j * np.outer(t_grid[idx] - a, dec.eigenvalues)) @ row
            state = evolve_interval(state, dec, b - a)
    return out
