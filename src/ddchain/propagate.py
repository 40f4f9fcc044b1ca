"""Exact unitary propagation of the one-magnon state through the pulse
protocol, and the survival fidelity of the qubit.

States are complex amplitude vectors over sites (index 0 is the qubit);
the initial state puts the single up spin on the qubit. One protocol
period evolves under the pulsed Hamiltonian for ``width``, then under
the free Hamiltonian for ``period - width``; each segment is applied
spectrally, as phases exp(-i E t) on the state's coefficients over the
segment's eigenvectors, which is unitary to rounding error. One train
under per-period noise instead steps by the Chebyshev series of each
segment's Hamiltonian (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).
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
    TridiagonalHamiltonian,
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

# Past this r * duration one eigensolve costs less than the Chebyshev series (N = 130).
_CHEBYSHEV_MAX_RT = 120.0


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
    if len(state) != (n := len(decomposition.eigenvalues)):
        raise ValueError(f"state has length {len(state)}, expected {n}")
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


def _period_hamiltonians(chain: ChainSpec, pulse: PulseSpec):
    """Yield the (pulsed, free) Hamiltonians of periods 0, 1, 2, ...

    Static disorder is sampled once from the chain seed. With per-period
    noise both are rebuilt each period from fresh bond offsets; otherwise
    the same pair of objects is yielded every period. At zero strength the
    free Hamiltonian serves as the pulsed one.
    """
    bond_off, site_off = sample_static_disorder(chain)
    noisy = chain.per_period_noise > 0.0
    for k in itertools.count():
        if noisy or k == 0:
            bonds = bond_off + sample_period_noise(chain, k) if noisy else bond_off
            free = build_free_hamiltonian(chain, bonds, site_off)
            pulsed = free if pulse.strength == 0.0 else build_controlled_hamiltonian(
                chain, pulse, bonds, site_off)
        yield pulsed, free


def _check_norm(states: np.ndarray, periods: int) -> None:
    if not (drift := np.abs(np.linalg.norm(states, axis=0) - 1).max()) <= 1e-9:  # NaN too
        raise NumericalError(f"state norm drifted by {drift:.3e} over {periods} periods")


def _bessel_series(x: float) -> np.ndarray:
    """J_0(x), ..., J_{K-1}(x) for 0 < x <= 250, where K is the first integer above x with
    (x/2)^K / K! < 1e-17, a bound on every neglected |J_n(x)|: Miller's backward recurrence
    from K + 5, where J_n is below rounding (its values stay under 1e72 there, and overflow
    near x = 3500), normalized by the correctly rounded J_0 + 2 (J_2 + J_4 + ...) = 1."""
    if x < 1e-9:  # K = 2, and 1 - x^2/4 and x/2 - x^3/16 round to 1 and x/2
        return np.array([1.0, x / 2])
    k = math.floor(x) + 1
    while k * math.log(x / 2) - math.lgamma(k + 1) >= math.log(1e-17):
        k += 1
    j = [0.0] * (k + 5) + [1.0, 0.0]
    for n in range(k + 5, 0, -1):
        j[n - 1] = 2 * n / x * j[n] - j[n + 1]
    return np.array(j[:k]) / math.fsum([j[0], *(2 * v for v in j[2::2])])


def _chebyshev_step(h: TridiagonalHamiltonian, state: np.ndarray, duration: float) -> np.ndarray:
    """exp(-i h duration) state, as exp(-i c duration) times the Chebyshev
    series sum_n (2 - [n = 0]) (-i)^n J_n(r duration) T_n((h - c) / r) state
    over the Gershgorin interval [c - r, c + r] of h: tridiagonal matvecs
    only, and an exact copy for zero duration; past r duration =
    _CHEBYSHEV_MAX_RT, the spectral step ``evolve_interval``."""
    d, e = h.diagonal, h.off_diagonal
    padded = np.abs(np.concatenate(([0.0], e, [0.0])))
    reach = padded[:-1] + padded[1:]  # |e[i - 1]| + |e[i]|, zero past the ends
    lo, hi = float((d - reach).min()), float((d + reach).max())
    c, r = (hi + lo) / 2, (hi - lo) / 2
    if r * duration == 0.0:
        return np.exp(-1j * c * duration) * state
    if r * duration > _CHEBYSHEV_MAX_RT:
        return evolve_interval(state, decompose(h), duration)
    j = _bessel_series(r * duration)
    d2, e2 = 2 * (d - c) / r, 2 * e / r
    prev, cur, total = 0.0, state, j[0] * state
    for n in range(1, len(j)):  # T_n = 2 h' T_(n-1) - T_(n-2), halved at n = 1
        step = d2 * cur
        step[:-1] += e2 * cur[1:]
        step[1:] += e2 * cur[:-1]
        prev, cur = cur, step / 2 if n == 1 else step - prev
        total += (2 * (1, -1j, -1, 1j)[n % 4] * j[n]) * cur
    return np.exp(-1j * c * duration) * total


def _batch(chain: ChainSpec, pulses: list[PulseSpec], record_every: int, on_segment=None):
    """Yield (k, fidelities) every ``record_every`` periods and at the last
    period k of ``pulses``, which share one strength and period count;
    idle entries pad the fidelities to a multiple of _BLOCK. Once exhausted,
    raises NumericalError if a norm is off 1 by more than 1e-9.

    Column j of the N x K block holds the state of pulses[j] over the current
    segment's eigenvectors. Segment 0 (pulsed) then 1 (free) of period p = 0,
    1, ... enters its eigenbasis, calls ``on_segment(p, segment, decomposition,
    block)`` if given, and multiplies the block by its phases. A new pair of
    ``_period_hamiltonians`` gets its eigensolves and phase blocks, and its
    bases are entered through the sites. A static pair's repeats reuse them,
    and enter the other basis by one GEMM by W^T or W (W = V_f^T V_p).
    """
    pad = [0.0] * (-len(pulses) % _BLOCK)
    widths = np.array([p.width for p in pulses] + pad)
    rests = np.array([p.period - p.width for p in pulses] + pad)
    periods = pulses[0].periods
    coeffs = np.repeat(initial_state(chain.n_sites)[:, None], len(widths), axis=1)
    h_last, basis, w = None, None, None
    for k, (h_pulsed, h_free) in zip(range(1, periods + 1), _period_hamiltonians(chain, pulses[0])):
        if h_free is not h_last:
            h_last, free, w = h_free, decompose(h_free), None
            pulsed = free if h_pulsed is h_free else decompose(h_pulsed)
            phases = (np.exp(-1j * np.outer(pulsed.eigenvalues, widths)),
                      np.exp(-1j * np.outer(free.eigenvalues, rests)))
        elif w is None and pulsed is not free:
            # Not BLAS: a threaded N x N GEMM's bits vary with the thread count.
            w = np.einsum("ki,kj->ij", free.eigenvectors, pulsed.eigenvectors)
        for segment, dec in enumerate((pulsed, free)):
            if dec is not basis and w is not None:
                coeffs = _gemm(w.T if dec is pulsed else w, coeffs)
            elif dec is not basis:
                sites = coeffs if basis is None else _gemm(basis.eigenvectors, coeffs)
                coeffs = _gemm(dec.eigenvectors.T, sites)
            if on_segment is not None:
                on_segment(k - 1, segment, dec, coeffs)
            coeffs *= phases[segment]
            basis = dec
        if k % record_every == 0 or k == periods:
            yield k, np.abs((free.eigenvectors[0] @ coeffs.view(float)).view(complex))
    _check_norm(coeffs, periods)


def run_protocol(chain: ChainSpec, pulse: PulseSpec, record_every: int = 1) -> EvolutionRecord:
    """Run the full pulse protocol and record the survival fidelity.

    Starting from the initial state, applies ``pulse.periods`` repetitions of
    [pulsed evolution for width, free evolution for period - width], recording
    the fidelity at t = 0 and every ``record_every`` periods, and the last one.
    Under per-period noise it steps by ``_chebyshev_step``, which agrees with
    the spectral route of ``final_fidelity`` to rounding, not bit for bit.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    records = [(0, 1.0)]
    if chain.per_period_noise > 0.0:  # no BLAS below _CHEBYSHEV_MAX_RT
        state = initial_state(chain.n_sites)
        for k, (pulsed, free) in zip(range(1, pulse.periods + 1), _period_hamiltonians(chain, pulse)):
            state = _chebyshev_step(pulsed, state, pulse.width)
            state = _chebyshev_step(free, state, pulse.period - pulse.width)
            if k % record_every == 0 or k == pulse.periods:
                records.append((k, abs(state[0])))
        _check_norm(state, pulse.periods)
    else:
        records += ((k, f[0]) for k, f in _batch(chain, [pulse], record_every))
    ks, fids = zip(*records)
    return EvolutionRecord(np.array(ks) * pulse.period, np.array(fids))


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


def site_amplitude_trace(chain: ChainSpec, pulse: PulseSpec, dt: float, t_max: float) -> np.ndarray:
    """Qubit amplitude on the uniform grid 0, dt, ..., ~t_max under the
    protocol (free evolution is a zero-strength train).

    The protocol runs on the batched core with one column, whose norm
    guard raises NumericalError; each segment's samples come from its
    spectral phases directly, so values are exact at every grid time, not
    only at period boundaries. ``t_max`` must not pass the end of the
    pulse train, ``periods * period``; when ``dt`` does not divide
    ``t_max`` the grid end rounds to the nearest step, and up to half a
    step past the train the protocol simply runs on.
    """
    t_grid = time_grid(dt, t_max)
    t_end = t_grid[-1]
    tol = 1e-9 * dt
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
