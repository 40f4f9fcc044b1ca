"""Exact unitary propagation of the one-magnon state through the pulse
protocol, and the survival fidelity of the qubit.

States are complex amplitude vectors over sites (index 0 is the qubit);
the initial state puts the single up spin on the qubit. One protocol
period evolves under the pulsed Hamiltonian for ``width``, then under
the free Hamiltonian for ``period - width``; each segment is applied
spectrally, as phases exp(-i E t) on the state's coefficients over the
segment's eigenvectors, which is unitary to rounding error.
The survival fidelity is the modulus of the qubit amplitude: in this
sector the reduced qubit density matrix has |amplitude|^2 as its
excited-state population, and the fidelity against the initial state is
its square root.

Global phases are never tracked; every observable here is a modulus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .eigen import SpectralDecomposition, decompose, spectral_sum
from .errors import NumericalError
from .model import (
    ChainSpec,
    PulseSpec,
    build_controlled_hamiltonian,
    build_free_hamiltonian,
    check_within_train,
    sample_period_noise,
    sample_static_disorder,
    time_grid,
)


# Blocks are padded with idle cells to a multiple of this many columns, so every
# cell takes the same GEMM kernel path whatever its batch-mates or BLAS thread count.
_BLOCK = 8


def initial_state(n_sites: int) -> np.ndarray:
    """The product state with the up spin on the qubit site."""
    state = np.zeros(n_sites, dtype=complex)
    state[0] = 1.0
    return state


def _gemm(matrix: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Real ``matrix`` times a complex block: one real GEMM on its float view."""
    return (matrix @ coeffs.view(float)).view(complex)


def evolve_interval(state: np.ndarray, decomposition: SpectralDecomposition,
                    duration: float) -> np.ndarray:
    """Evolve ``state`` for ``duration`` under the given decomposition:
    V (exp(-i E duration) * (V^T state)); zero duration returns an exact copy."""
    if duration < 0:
        raise ValueError(f"duration must be >= 0, got {duration}")
    if len(state) != decomposition.size:
        raise ValueError(f"state has length {len(state)}, expected {decomposition.size}")
    column = np.array(state, dtype=complex).reshape(-1, 1)
    if duration == 0.0:
        return column[:, 0]
    v = decomposition.eigenvectors
    phases = np.exp(-1j * (decomposition.eigenvalues * float(duration)))[:, None]
    return _gemm(v, _gemm(v.T, column) * phases)[:, 0]


@dataclass(frozen=True)
class EvolutionRecord:
    """Fidelity trace sampled at period boundaries t = k * period."""

    times: np.ndarray
    fidelities: np.ndarray


def _period_decompositions(chain: ChainSpec, pulse: PulseSpec):
    """Yield the (pulsed, free) decompositions of periods 0, 1, 2, ...

    Static disorder is sampled once from the chain seed. With per-period
    noise both Hamiltonians are re-decomposed each period from fresh bond
    offsets; otherwise the same pair of objects is yielded every period.
    At zero strength the free decomposition serves as the pulsed one.
    """
    bond_off, site_off = sample_static_disorder(chain)
    noisy = chain.per_period_noise > 0.0
    for k in itertools.count():
        if noisy or k == 0:
            bonds = bond_off + sample_period_noise(chain, k) if noisy else bond_off
            free = decompose(build_free_hamiltonian(chain, bonds, site_off))
            pulsed = free if pulse.strength == 0.0 else decompose(
                build_controlled_hamiltonian(chain, pulse, bonds, site_off))
        yield pulsed, free


def _batch(chain: ChainSpec, pulses: list[PulseSpec], record_every: int, on_segment=None):
    """Yield (k, fidelities) at k = 0, every ``record_every`` periods and the
    last period of ``pulses``, which share one strength and period count;
    idle entries pad the fidelities to a multiple of _BLOCK. Raises
    NumericalError if a norm is off 1 by more than 1e-9 after the last period.

    Column j of the N x K block holds the state of pulses[j] over the current
    segment's eigenvectors. Segment 0 (pulsed) then 1 (free) of period p = 0,
    1, ... enters its eigenbasis, calls ``on_segment(p, segment, decomposition,
    block)`` if given, and multiplies the block by its phases. Entering costs
    nothing when the basis is unchanged, one GEMM by W^T or W (W = V_f^T V_p)
    when a static pair repeats, and a change of basis through the sites for a
    new pair, which also gets new phase blocks.
    """
    pad = [0.0] * (-len(pulses) % _BLOCK)
    widths = np.array([p.width for p in pulses] + pad)
    rests = np.array([p.period - p.width for p in pulses] + pad)
    periods = pulses[0].periods
    yield 0, np.ones(len(widths))
    coeffs = np.repeat(initial_state(chain.n_sites)[:, None], len(widths), axis=1)
    pair, basis, w = (None, None), None, None
    for k, (pulsed, free) in zip(range(1, periods + 1), _period_decompositions(chain, pulses[0])):
        repeat = pulsed is pair[0] and free is pair[1]
        if not repeat:
            phases = (np.exp(-1j * np.outer(pulsed.eigenvalues, widths)),
                      np.exp(-1j * np.outer(free.eigenvalues, rests)))
            pair, w = (pulsed, free), None
        elif w is None and pulsed is not free:
            # Not BLAS: a threaded N x N GEMM's bits vary with the thread count.
            w = np.einsum("ki,kj->ij", free.eigenvectors, pulsed.eigenvectors)
        for segment, dec in enumerate(pair):
            if dec is not basis and repeat:
                coeffs = _gemm(w.T if dec is pulsed else w, coeffs)
            elif dec is not basis:
                sites = coeffs if basis is None else _gemm(basis.eigenvectors, coeffs)
                coeffs = _gemm(dec.eigenvectors.T, sites)
            if on_segment is not None:
                on_segment(k - 1, segment, dec, coeffs)
            coeffs *= phases[segment]
            basis = dec
        if k == periods and (drift := np.abs(np.linalg.norm(coeffs, axis=0) - 1).max()) > 1e-9:
            raise NumericalError(f"state norm drifted by {drift:.3e} over {periods} periods")
        if k % record_every == 0 or k == periods:
            yield k, np.abs((free.eigenvectors[0] @ coeffs.view(float)).view(complex))


def run_protocol(chain: ChainSpec, pulse: PulseSpec, record_every: int = 1) -> EvolutionRecord:
    """Run the full pulse protocol and record the survival fidelity.

    Starting from the initial state, applies ``pulse.periods`` repetitions of
    [pulsed evolution for width, free evolution for period - width], recording
    the fidelity at t = 0 and every ``record_every`` periods, and the last one.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    ks, fids = zip(*_batch(chain, [pulse], record_every))
    return EvolutionRecord(np.array(ks) * pulse.period, np.array([f[0] for f in fids]))


def final_fidelities(chain: ChainSpec, pulses: list[PulseSpec]) -> np.ndarray:
    """Survival fidelity after the last period of each pulse's protocol on
    ``chain``, in order; pulses sharing a strength and period count run as
    one batch."""
    out = np.empty(len(pulses))
    groups: dict[tuple[float, int], list[int]] = {}
    for i, pulse in enumerate(pulses):
        groups.setdefault((pulse.strength, pulse.periods), []).append(i)
    for (_, periods), cells in groups.items():
        _, fids = list(_batch(chain, [pulses[i] for i in cells], periods))[-1]
        out[cells] = fids[: len(cells)]
    return out


def final_fidelity(chain: ChainSpec, pulse: PulseSpec) -> float:
    """Survival fidelity after the last protocol period."""
    return float(final_fidelities(chain, [pulse])[0])


def site_amplitude_trace(
    chain: ChainSpec, pulse: PulseSpec | None, dt: float, t_max: float
) -> np.ndarray:
    """Qubit amplitude on the uniform grid 0, dt, ..., ~t_max under the
    protocol (or free evolution when ``pulse`` is None).

    The protocol runs on the batched core with one column, whose norm
    guard raises NumericalError; each segment's samples come from its
    spectral phases directly, so values are exact at every grid time, not
    only at period boundaries. ``t_max`` must not pass the end of the
    pulse train, ``periods * period``; when ``dt`` does not divide
    ``t_max`` the grid end rounds to the nearest step, and up to half a
    step past the train the protocol simply runs on. Per-period noise
    requires the protocol clock, so it is rejected when ``pulse`` is None.
    """
    t_grid = time_grid(dt, t_max)
    t_end = t_grid[-1]
    tol = 1e-9 * dt
    if pulse is None:
        if chain.per_period_noise > 0.0:
            raise ValueError("per-period noise needs a pulse protocol clock")
        # One free period spanning the whole grid, even when t_end rounds to 0.
        pulse = PulseSpec(0.0, max(t_end, t_max), 0.0, 1)
    else:
        check_within_train(pulse, t_max)

    periods = max(1, math.ceil((t_end - tol) / pulse.period))
    periods += periods * pulse.period < t_end - tol  # when the division rounded down
    out = np.empty(len(t_grid), dtype=complex)
    out[0] = 1.0

    def sample(k, segment, dec, coeffs):
        start, mid = k * pulse.period, k * pulse.period + pulse.width
        a, b = (start, mid) if segment == 0 else (mid, (k + 1) * pulse.period)
        lo, hi = np.searchsorted(t_grid, [a + tol, b + tol], side="right")
        out[lo:hi] = spectral_sum(dec.eigenvalues, dec.eigenvectors[0] * coeffs[:, 0],
                                  t_grid[lo:hi] - a)

    list(_batch(chain, [replace(pulse, periods=periods)], periods, sample))
    return out
