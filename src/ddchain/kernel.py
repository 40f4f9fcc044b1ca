"""Environment memory kernel and the exact closed equation for the
qubit amplitude.

Partitioning the one-magnon space into the qubit component P and the
environment block D turns the Schroedinger equation into a scalar
Volterra integro-differential equation

    i dP/dt = h(t) P(t) - i * integral_0^t g(t - s) P(s) ds,

whose memory kernel is the environment correlation function

    g(t) = J^2 * sum_k |L_1k|^2 exp(-i E_k t),

with (E_k, L) the spectral decomposition of D and J the qubit-bath
coupling. Solving this equation is an independent route to the same
qubit amplitude the full unitary propagation produces, which makes it a
strong cross-check of both.

The kernel is time-translation invariant because D carries no drive;
the drive enters only through h(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import decompose
from .errors import DdchainError, NumericalError
from .model import PulseSpec, TridiagonalHamiltonian, check_within_train, control_value


class LifetimeNotFoundError(DdchainError):
    """The kernel trace has no sustained-decay window."""


@dataclass(frozen=True)
class KernelTrace:
    """Memory kernel sampled on a uniform grid, samples[j] = g(j * dt),
    plus the estimated decay lifetime (None if the trace has no
    sustained-decay window)."""

    dt: float
    samples: np.ndarray
    lifetime: float | None


@dataclass(frozen=True)
class PTrace:
    """Qubit amplitude from the memory-kernel equation, values[j] = P(j * dt)."""

    dt: float
    values: np.ndarray


def _spectral_weights(env: TridiagonalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    dec = decompose(env)
    weights = dec.eigenvectors[0, :] ** 2
    total = weights.sum()
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(f"eigenvector first-row weights sum to {total}, expected 1")
    # Renormalizing removes the last float dust so g(0) == J^2 exactly.
    return dec.eigenvalues, weights / total


def kernel_values(
    env: TridiagonalHamiltonian, coupling: float, times: np.ndarray
) -> np.ndarray:
    """Evaluate g at arbitrary times (negative allowed) from the
    spectral sum over the environment block."""
    energies, weights = _spectral_weights(env)
    t = np.asarray(times, dtype=float)
    return (coupling * coupling) * (np.exp(-1j * np.outer(t, energies)) @ weights)


def correlation_kernel(
    env: TridiagonalHamiltonian,
    coupling: float,
    dt: float,
    t_max: float,
    threshold: float = 0.02,
    hold: float = 0.5,
) -> KernelTrace:
    """Sample the environment correlation function on 0, dt, ..., ~t_max
    and estimate its decay lifetime (stored as None when the trace is
    too short to certify one)."""
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be > 0")
    n = int(round(t_max / dt))
    samples = kernel_values(env, coupling, np.arange(n + 1) * dt)
    samples.flags.writeable = False
    trace = KernelTrace(dt, samples, None)
    try:
        lifetime = estimate_lifetime(trace, threshold, hold)
    except LifetimeNotFoundError:
        lifetime = None
    return KernelTrace(dt, samples, lifetime)


def estimate_lifetime(trace: KernelTrace, threshold: float = 0.02, hold: float = 0.5) -> float:
    """First sustained decay time of Re g: the smallest grid time T with

        Re g(t) <= threshold * g(0)   for every grid t in [T, T + hold].

    The criterion is one-sided: once the real part has fallen to the
    threshold it may oscillate below (including sign changes) without
    resetting the decay time. Raises LifetimeNotFoundError when no
    window of length ``hold`` fits inside the trace.
    """
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if hold < trace.dt:
        raise ValueError(f"hold must be >= dt={trace.dt}, got {hold}")
    scale = float(trace.samples[0].real)
    below = trace.samples.real <= threshold * scale
    n_hold = math.ceil(hold / trace.dt - 1e-9)
    window = n_hold + 1
    if window > len(below):
        raise LifetimeNotFoundError(
            f"trace of {len(below)} samples cannot certify a hold of {hold}"
        )
    # Window of `window` consecutive True values via a cumulative sum.
    counts = np.cumsum(np.concatenate(([0], below.astype(np.int64))))
    full = np.nonzero(counts[window:] - counts[:-window] == window)[0]
    if len(full) == 0:
        raise LifetimeNotFoundError(
            f"Re g never stays below {threshold} * g(0) for {hold} time units"
        )
    return float(full[0] * trace.dt)


def solve_p_equation(
    kernel: KernelTrace,
    control: PulseSpec | None,
    t_max: float,
    dt: float,
    drive_offset: float = 0.0,
) -> PTrace:
    """Integrate the memory-kernel equation for the qubit amplitude.

    h(t) is ``drive_offset`` plus the rectangular pulse train (or just
    the offset when ``control`` is None), evaluated at step midpoints so
    pulse edges falling between grid points are never sampled exactly on
    the discontinuity. The kernel trace must cover [0, t_max] at spacing
    dt or an integer refinement of it.

    Scheme: trapezoidal predictor-corrector on the uniform grid. The
    memory integral is the trapezoid sum over the stored history; the
    implicit endpoint terms are resolved by one explicit Euler predictor
    and two corrector passes. Second-order convergence in dt.

    Raises ValueError when ``t_max`` runs past the end of the pulse
    train, and NumericalError if |P| exceeds 1.05, the step-size instability
    guard (the exact solution has |P| <= 1).
    """
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be > 0")
    if control is not None:
        check_within_train(control, t_max)
    stride = int(round(dt / kernel.dt))
    if stride < 1 or abs(stride * kernel.dt - dt) > 1e-9 * dt:
        raise ValueError(
            f"solver dt={dt} must be an integer multiple of the kernel spacing {kernel.dt}"
        )
    n = int(round(t_max / dt))
    g = kernel.samples[::stride]
    if len(g) < n + 1:
        raise ValueError(
            f"kernel trace covers {(len(kernel.samples) - 1) * kernel.dt:g} time units, "
            f"need {t_max:g}"
        )
    g = g[: n + 1]
    grev = g[::-1].copy()

    p = np.empty(n + 1, dtype=complex)
    p[0] = 1.0
    half = 0.5 * dt
    g0 = g[0]
    mem = 0.0 + 0.0j  # trapezoid memory integral at the current step
    for i in range(n):
        h_mid = drive_offset
        if control is not None:
            h_mid += control_value(control, (i + 0.5) * dt)
        deriv_i = -1j * h_mid * p[i] - mem
        # History part of the next memory integral (all terms except the
        # implicit p[i+1] endpoint): dt * (g[i+1] p0 / 2 + sum_{j=1..i} g[i+1-j] p[j]).
        hist = np.dot(grev[n - i : n], p[1 : i + 1]) if i >= 1 else 0.0
        mem_part = dt * (0.5 * g[i + 1] * p[0] + hist)
        p_next = p[i] + dt * deriv_i
        for _ in range(2):
            deriv_next = -1j * h_mid * p_next - (mem_part + half * g0 * p_next)
            p_next = p[i] + half * (deriv_i + deriv_next)
        p[i + 1] = p_next
        mem = mem_part + half * g0 * p_next
        if abs(p_next) > 1.05:
            raise NumericalError(
                f"memory-kernel stepper unstable at t={(i + 1) * dt:g}: "
                f"|P|={abs(p_next):.3f}; reduce dt"
            )
    p.flags.writeable = False
    return PTrace(dt, p)
