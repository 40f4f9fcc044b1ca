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

from .eigen import decompose, spectral_sum
from .errors import DdchainError, NumericalError
from .model import PulseSpec, TridiagonalHamiltonian, check_within_train, control_value, time_grid


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
    return (coupling * coupling) * spectral_sum(*_spectral_weights(env), times)


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
    samples = kernel_values(env, coupling, time_grid(dt, t_max))
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
) -> np.ndarray:
    """Integrate the memory-kernel equation for the qubit amplitude;
    returns the read-only array p[j] = P(j * dt).

    h(t) is ``drive_offset`` plus the rectangular pulse train (or just
    the offset when ``control`` is None), evaluated at step midpoints so
    pulse edges falling between grid points are never sampled exactly on
    the discontinuity. The kernel trace must cover [0, t_max] at spacing
    dt or an integer refinement of it.

    Scheme: the trapezoid rule on the uniform grid 0, dt, ..., n * dt
    with n = round(t_max / dt), both for the step and for the memory
    integral over the stored history. The implicit step is linear in
    P(t + dt), so it is solved exactly. Second-order convergence in dt.

    Raises ValueError when ``t_max`` runs past the end of the pulse
    train, and NumericalError if |P| exceeds 1.05, the step-size instability
    guard (the exact solution has |P| <= 1).
    """
    n = len(time_grid(dt, t_max)) - 1
    if control is not None:
        check_within_train(control, t_max)
    stride = int(round(dt / kernel.dt))
    if stride < 1 or abs(stride * kernel.dt - dt) > 1e-9 * dt:
        raise ValueError(
            f"solver dt={dt} must be an integer multiple of the kernel spacing {kernel.dt}"
        )
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
        # p_next = p[i] + half * (deriv_i + deriv(p_next)) solved for p_next.
        p_next = (p[i] + half * (deriv_i - mem_part)) / (1 + half * (1j * h_mid + half * g0))
        p[i + 1] = p_next
        mem = mem_part + half * g0 * p_next
        if abs(p_next) > 1.05:
            raise NumericalError(
                f"memory-kernel stepper unstable at t={(i + 1) * dt:g}: "
                f"|P|={abs(p_next):.3f}; reduce dt"
            )
    p.flags.writeable = False
    return p
