"""Exact unitary propagation of the one-magnon state through the pulse
protocol, and the survival fidelity of the qubit.

States are complex amplitude vectors over sites (index 0 is the qubit);
the initial state puts the single up spin on the qubit. One protocol
period evolves under the pulsed Hamiltonian for ``width``, then under
the free Hamiltonian for ``period - width``; each segment is applied
spectrally, as phases exp(-i E t) on the state's coefficients over the
segment's eigenvectors, which is unitary to rounding error. One train
under per-period noise instead steps by a Chebyshev series of each
segment's Hamiltonian (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984),
built once per run over one interval that holds every period's spectrum.
The survival fidelity is the modulus of the qubit amplitude: in this
sector the reduced qubit density matrix has |amplitude|^2 as its
excited-state population, and the fidelity against the initial state is
its square root.

Global phases are never tracked; every observable here is a modulus.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .eigen import SpectralDecomposition, decompose, phases, spectral_sum
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

# Past this r * duration one eigensolve costs less than one step of a built
# Chebyshev series (N = 130).
_CHEBYSHEV_MAX_RT = 220.0


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
    v, energies = decomposition.eigenvectors, decomposition.eigenvalues
    return _gemm(v, _gemm(v.T, column) * phases(energies, [float(duration)]))[:, 0]


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


def _gershgorin(diagonal: np.ndarray, abs_off: np.ndarray) -> tuple[float, float]:
    """The Gershgorin interval of a tridiagonal matrix from its diagonal and
    its off-diagonal moduli (or bounds on them, for an interval holding them all)."""
    padded = np.concatenate(([0.0], abs_off, [0.0]))
    reach = padded[:-1] + padded[1:]  # |e[i - 1]| + |e[i]|, zero past the ends
    return float((diagonal - reach).min()), float((diagonal + reach).max())


def _noise_bound(chain: ChainSpec) -> np.ndarray:
    """A bound on each off-diagonal modulus of every period under per-period
    noise: |J + b| + eta for static bond offsets b, widened by a few ulps of
    |J| + |b| + eta for the rounding of J + (b + noise)."""
    b, eta, j = sample_static_disorder(chain)[0], chain.per_period_noise, chain.coupling
    return np.abs(j + b) + eta + 4 * np.finfo(float).eps * (abs(j) + np.abs(b) + eta)


def _chebyshev_stepper(diagonal: np.ndarray, abs_off: np.ndarray, duration: float):
    """step(h, state) = exp(-i h duration) state for every h with this diagonal and
    off-diagonal moduli at most ``abs_off``: over the Gershgorin interval [c - r, c + r]
    of those bounds, exp(-i c duration) sum_n (2 - [n = 0]) (-i)^n J_n(r duration)
    T_n((h - c) / r) state; an exact copy at zero r duration, and ``evolve_interval``
    past r duration = _CHEBYSHEV_MAX_RT. The series, its weights and the zero-padded
    rows T_(-1) = 0, T_0, T_1, ... are built once. A step sets the off-diagonal taps
    from h; each T_(n+1) = 2 h' T_n - T_(n-1) (halved for T_1) is one product over six
    float taps, T_n[i + 1], T_n[i], T_n[i - 1], T_(n-1)[i + 1], T_(n-1)[i], T_(n-1)[i - 1],
    and one sum over them in that order, which adds as d' T_n[i] + e' T_n[i + 1] +
    e' T_n[i - 1] - T_(n-1)[i] does. No BLAS."""
    lo, hi = _gershgorin(diagonal, abs_off)
    c, r = (hi + lo) / 2, (hi - lo) / 2
    if r * duration == 0.0:
        return lambda h, state: np.exp(-1j * c * duration) * state
    if r * duration > _CHEBYSHEV_MAX_RT:
        return lambda h, state: evolve_interval(state, decompose(h), duration)
    j = _bessel_series(r * duration)
    n, terms = len(diagonal), len(j)
    weights = (np.resize([2, -2j, -2, 2j], terms) * j)[:, None]
    weights[0] = j[0]
    phase = np.exp(-1j * c * duration)
    work = np.zeros((terms + 1, n + 2), dtype=complex)
    flat = work.view(float)
    row, size = flat.strides[0], flat.itemsize
    taps = np.lib.stride_tricks.as_strided(  # taps[m][a, b, q] = flat[m + 1 - a, q + 4 - 2b]
        flat[1, 4:], (terms - 1, 2, 3, 2 * n), (row, -row, -2 * size, size))
    coeffs = np.zeros((2, 3, n, 2))
    coeffs[0, 1] = (2 * (diagonal - c) / r)[:, None]
    coeffs[1, 1] = -1.0
    coeffs, upper, lower = coeffs.reshape(2, 3, 2 * n), coeffs[0, 0, :-1], coeffs[0, 2, 1:]
    product = np.empty((2, 3, 2 * n))
    summands, rows = product.reshape(6, -1), list(zip(taps, flat[2:, 2:-2]))
    first = rows[0][1]
    weighted = np.empty((terms, n), dtype=complex)

    def step(h: TridiagonalHamiltonian, state: np.ndarray) -> np.ndarray:
        upper[...] = lower[...] = (2 * h.off_diagonal / r)[:, None]
        work[1, 1:-1] = state
        for tap, out in rows:
            np.multiply(coeffs, tap, out=product)
            np.add.reduce(summands, axis=0, out=out)
            if out is first:  # T_1 = h' T_0
                out /= 2
        np.multiply(weights, work[1:, 1:-1], out=weighted)
        return phase * np.add.reduce(weighted, axis=0)

    return step


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
            phase_blocks = phases(pulsed.eigenvalues, widths), phases(free.eigenvalues, rests)
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
            coeffs *= phase_blocks[segment]
            basis = dec
        if k % record_every == 0 or k == periods:
            yield k, np.abs((free.eigenvectors[0] @ coeffs.view(float)).view(complex))
    _check_norm(coeffs, periods)


def run_protocol(chain: ChainSpec, pulse: PulseSpec, record_every: int = 1) -> EvolutionRecord:
    """Run the full pulse protocol and record the survival fidelity.

    Starting from the initial state, applies ``pulse.periods`` repetitions of
    [pulsed evolution for width, free evolution for period - width], recording
    the fidelity at t = 0 and every ``record_every`` periods, and the last one.
    Under per-period noise it steps each segment by one ``_chebyshev_stepper``
    over the bounds of ``_noise_bound``, built at the first period, which
    agrees with the spectral route of ``final_fidelity`` to rounding, not bit
    for bit.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    records = [(0, 1.0)]
    if chain.per_period_noise > 0.0:  # no BLAS below _CHEBYSHEV_MAX_RT
        state, steppers, bound = initial_state(chain.n_sites), None, _noise_bound(chain)
        for k, pair in zip(range(1, pulse.periods + 1), _period_hamiltonians(chain, pulse)):
            steppers = steppers or [_chebyshev_stepper(h.diagonal, bound, t) for h, t in
                                    zip(pair, (pulse.width, pulse.period - pulse.width))]
            for step, h in zip(steppers, pair):
                state = step(h, state)
            if k % record_every == 0 or k == pulse.periods:
                records.append((k, abs(state[0])))
        _check_norm(state, pulse.periods)
    else:
        records += ((k, f[0]) for k, f in _batch(chain, [pulse], record_every))
    ks, fids = zip(*records)
    return EvolutionRecord(np.array(ks) * pulse.period, np.array(fids))


def final_fidelities(chain: ChainSpec, pulses: list[PulseSpec], workers: int = 1
                     ) -> tuple[np.ndarray, int]:
    """(fidelities, threads): each pulse's survival fidelity after its last period on ``chain``,
    in order, and the threads that ran them, at most ``workers`` and the usable CPUs. A task is
    a group of ``pulses`` of one strength and period count, cut (unless noisy: each slab would
    redo the eigensolves) into ceil(threads / groups) slabs that start on _BLOCK bounds: no bit
    moves. After the first exception no task starts, and it is raised once all have joined."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    groups: dict[tuple[float, int], list[int]] = {}
    for i, pulse in enumerate(pulses):
        groups.setdefault((pulse.strength, pulse.periods), []).append(i)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    cuts = -(-min(workers, cpus) // len(groups)) if groups and chain.per_period_noise == 0 else 1
    tasks = [cells[i:i + size] for cells in groups.values()
             for size in [_BLOCK * -(-len(cells) // (_BLOCK * cuts))]
             for i in range(0, len(cells), size)]
    threads = min(workers, cpus, len(tasks)) or 1
    out, errors, pending = np.empty(len(pulses)), [], iter(tasks)

    def work():
        while not errors and (cells := next(pending, None)) is not None:
            try:
                *_, (_, fids) = _batch(chain, [pulses[i] for i in cells], pulses[cells[0]].periods)
                out[cells] = fids[: len(cells)]
            except BaseException as exc:
                errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return out, threads


def final_fidelity(chain: ChainSpec, pulse: PulseSpec) -> float:
    """Survival fidelity after the last protocol period."""
    return float(final_fidelities(chain, [pulse])[0][0])


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
