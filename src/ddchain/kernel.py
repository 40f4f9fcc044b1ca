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
import scipy.linalg.lapack

from .eigen import decompose, spectral_sum
from .errors import DdchainError, NumericalError
from .model import PulseSpec, TridiagonalHamiltonian, check_within_train, control_value, time_grid


# Volterra steps solved directly per block; longer spans get their history by FFT.
_LEAF = 64


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
    The steps run in blocks of _LEAF = 64. A block's steps are linear in
    its own amplitudes, so the block is one lower-triangular system,
    solved by LAPACK's ztrtrs: forward substitution of the same rows,
    one step per row. The history from earlier blocks is built by
    divide-and-conquer convolution (Hairer, Lubich & Schlichte, SIAM J.
    Sci. Stat. Comput. 6, 1985): when a block of w steps completes, the
    next w steps receive its contribution through one FFT convolution
    against g. That is O(n log^2 n) work instead of O(n^2). The only
    BLAS work is the 64 x 64 triangular solve, which gives the same bits
    at 1 and 2 OpenBLAS threads, so neither does the result.

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
    drive = np.full(n, drive_offset, dtype=float)
    if control is not None:
        drive += control_value(control, (np.arange(n) + 0.5) * dt)

    p = np.empty(n + 1, dtype=complex)
    p[0] = 1.0
    # hist[k] collects sum_{j=1..k-1} g[k-j] p[j] from the completed blocks.
    hist = np.zeros(n + 1, dtype=complex)
    g_hat = {}  # FFT of g[:size], one per convolution size
    half = 0.5 * dt
    g0 = complex(g[0])
    # drive holds h at the step midpoints (i + 0.5) * dt; step i + 1's row
    # has 1 + c[i] on its diagonal.
    c_drive = half * (1j * drive + half * g0)
    # The lag >= 2 terms of a block's rows: half * dt * (g[lag] + g[lag - 1]).
    leaf = min(_LEAF, n)
    lag = np.subtract.outer(np.arange(leaf), np.arange(leaf))
    toeplitz = np.zeros((leaf, leaf), dtype=complex, order="F")
    below = lag >= 2
    toeplitz[below] = half * dt * (g[lag[below]] + g[lag[below] - 1])
    rows = np.arange(leaf)
    mem = 0.0 + 0.0j  # trapezoid memory integral at the last completed step
    for start in range(1, n + 1, _LEAF):
        end = min(start + _LEAF, n + 1)
        steps = end - start
        c = c_drive[start - 1 : end - 1]
        # dt * (g[k] p0 / 2 + hist[k]): the part of step k's memory integral
        # that does not involve this block's own amplitudes.
        mem_part = dt * (0.5 * g[start:end] + hist[start:end])
        # Step k is p[k] = p[k-1] + half * (deriv(k-1) + deriv(k)) with
        # deriv(k) = -i h p[k] - mem(k). Writing mem(k-1) and mem(k) out over
        # the block's amplitudes makes the block's steps one lower-triangular
        # system in p[start:end]; only its first row reads the carried mem.
        a = toeplitz[:steps, :steps].copy(order="F")
        a[rows[:steps], rows[:steps]] = 1 + c
        a[rows[1:steps], rows[: steps - 1]] = c[1:] - 1 + half * dt * g[1]
        rhs = np.empty((steps, 1), dtype=complex)
        p_prev = p[start - 1]
        rhs[0, 0] = p_prev + half * (-1j * drive[start - 1] * p_prev - mem - mem_part[0])
        rhs[1:, 0] = -half * (mem_part[1:] + mem_part[:-1])
        x, info = scipy.linalg.lapack.ztrtrs(a, rhs, lower=1)
        if info != 0:
            raise NumericalError(f"memory-kernel step singular at t={(start + info - 1) * dt:g}")
        block = x[:, 0]
        p[start:end] = block
        # An unstable block may overflow; the first offending step is reported.
        with np.errstate(over="ignore", invalid="ignore"):
            magnitude = np.abs(block)
            unstable = magnitude > 1.05
        if unstable.any():
            k = int(np.argmax(unstable))
            raise NumericalError(
                f"memory-kernel stepper unstable at t={(start + k) * dt:g}: "
                f"|P|={magnitude[k]:.3f}; reduce dt"
            )
        last = end - 1
        mem = (
            mem_part[-1]
            + dt * np.add.reduce(grev[n - last + start : n] * p[start:last])
            + half * g0 * p[last]
        )
        if end > n:
            break
        # The block of `width` steps completed here is the first half of a
        # span of 2 * width; its terms enter the second half's history at once.
        blocks = (end - 1) // _LEAF
        width = (blocks & -blocks) * _LEAF
        size = 2 * width
        if size not in g_hat:
            g_hat[size] = np.fft.fft(g[:size], size)
        conv = np.fft.ifft(np.fft.fft(p[end - width : end], size) * g_hat[size])
        top = min(end + width, n + 1)
        hist[end:top] += conv[width : width + top - end]
    p.flags.writeable = False
    return p
