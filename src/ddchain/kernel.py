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
from .errors import NumericalError
from .model import PulseSpec, TridiagonalHamiltonian, check_within_train, time_grid


# Volterra steps solved directly per block; longer spans get their history by FFT.
_LEAF = 64


@dataclass(frozen=True)
class KernelTrace:
    """Result of the kernel study: the memory kernel sampled on a uniform
    grid, samples[j] = g(times[j]), plus the estimated decay lifetime (None
    if the trace has no sustained-decay window)."""

    times: np.ndarray
    samples: np.ndarray
    lifetime: float | None


def kernel_values(
    env: TridiagonalHamiltonian, coupling: float, times: np.ndarray
) -> np.ndarray:
    """Evaluate g at arbitrary times (negative allowed) from the spectral
    sum over the environment block; NumericalError if J^2 overflows."""
    squared = float(coupling) * float(coupling)  # overflows to inf without a warning
    if not math.isfinite(squared):
        raise NumericalError(f"kernel scale J^2 overflows at J = {coupling:g}")
    dec = decompose(env)
    weights = dec.eigenvectors[0, :] ** 2
    if not abs((total := weights.sum()) - 1.0) <= 1e-10:
        raise NumericalError(f"eigenvector first-row weights sum to {total}, expected 1")
    # Renormalizing removes the last float dust so g(0) == J^2 exactly.
    return squared * spectral_sum(dec.eigenvalues, weights / total, times)


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
    times = time_grid(dt, t_max)
    samples = kernel_values(env, coupling, times)
    samples.flags.writeable = False
    return KernelTrace(times, samples, estimate_lifetime(samples, dt, threshold, hold))


def estimate_lifetime(
    samples: np.ndarray, dt: float, threshold: float = 0.02, hold: float = 0.5
) -> float | None:
    """First sustained decay time of Re g, from samples[j] = g(j * dt):
    the smallest grid time T with

        Re g(t) <= threshold * g(0)   for every grid t in [T, T + hold].

    The criterion is one-sided: once the real part has fallen to the
    threshold it may oscillate below (including sign changes) without
    resetting the decay time. Returns None when no such window of length
    ``hold`` fits inside the samples, or when g(0) <= 0 (a kernel that
    does not start positive has no decay to time).
    """
    if not (0 < threshold < 1):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if hold < dt:
        raise ValueError(f"hold must be >= dt={dt}, got {hold}")
    g0 = float(samples[0].real)
    if g0 <= 0:
        return None
    below = samples.real <= threshold * g0
    window = math.ceil(hold / dt - 1e-9) + 1
    # Window of `window` consecutive True values via a cumulative sum; a
    # window longer than the samples leaves both slices empty.
    counts = np.cumsum(np.concatenate(([0], below.astype(np.int64))))
    full = np.nonzero(counts[window:] - counts[:-window] == window)[0]
    return float(full[0] * dt) if len(full) else None


def solve_p_equation(
    g: np.ndarray,
    control: PulseSpec,
    t_max: float,
    dt: float,
    drive_offset: float = 0.0,
) -> np.ndarray:
    """Integrate the memory-kernel equation for the qubit amplitude;
    returns the read-only array p[j] = P(j * dt).

    h(t) is ``drive_offset`` plus the rectangular pulse train (just the
    offset for a zero-strength train), averaged exactly over each step,
    so a pulse edge inside a step costs no order. ``g`` is the kernel on
    the solver's own grid, g[j] = g(j * dt); samples past the n + 1 grid
    times are ignored.

    Scheme: the trapezoid rule on the uniform grid 0, dt, ..., n * dt
    with n = round(t_max / dt), both for the step and for the memory
    integral. Second-order convergence in dt. The implicit steps are
    linear in the amplitudes, so all n of them form one lower-triangular
    Toeplitz-plus-bidiagonal system, solved exactly in blocks of _LEAF =
    64 rows by LAPACK's ztrtrs. Each completed span of w rows passes its
    terms to the next w rows' right side through one FFT convolution
    (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985):
    O(n log^2 n) work instead of O(n^2). The result has the same bits at
    1 and 2 OpenBLAS threads.

    Raises ValueError when ``t_max`` runs past the end of the pulse
    train or ``g`` has fewer than n + 1 samples, and NumericalError if
    |P| exceeds 1.05 or is NaN, the step-size instability guard (the
    exact solution has |P| <= 1).
    """
    # NumPy has no triangular solve. Importing scipy here, not at module
    # level, keeps it out of every run that does not solve this equation.
    from scipy.linalg.lapack import ztrtrs

    t = time_grid(dt, t_max)
    n = len(t) - 1
    check_within_train(control, t_max)
    if len(g) < n + 1:
        raise ValueError(f"kernel samples too short: {len(g)} for {n + 1} grid times")
    g = g[: n + 1]
    half = 0.5 * dt
    # Row k (step k, k = 1..n) reads p[k - l] with weight q[l] for lags l >= 2;
    # q[0] = q[1] = 0 leaves lags 0 and 1 to the diagonal and sub-diagonal.
    q = np.zeros(n + 1, dtype=complex)
    np.add(g[2:], g[1:-1], out=q[2:])
    q *= half * dt
    # p[0] = 1 is a trapezoid end point: half weight. Row 1's constant is
    # what is left once its sub-diagonal term (below) is taken out, as
    # M(0) = 0 and p[0] has half weight in M(1); sliced, since n may be 0.
    rhs = -0.5 * q
    rhs[1:2] = half * half * (g[0] + g[1:2])
    # Row k has 1 + c[k - 1] on its diagonal and c[k - 1] - 1 + half * dt * g[1]
    # on its sub-diagonal, c = half * (i h + half * g[0]) with h the mean drive over
    # step k from the on-time so far, on(t): continuous, so a misrounded floor is harmless.
    cycles = np.floor(t / control.period)
    on = control.width * cycles + np.minimum(t - control.period * cycles, control.width)
    h = drive_offset + control.strength * np.diff(on) / dt
    c = 1j * half * h + half * half * g[0]
    p = np.empty(n + 1, dtype=complex)
    p[0] = 1.0
    rows = np.arange(min(_LEAF, n))
    toeplitz = np.tril(q[np.subtract.outer(rows, rows)])
    for start in range(1, n + 1, _LEAF):
        end = min(start + _LEAF, n + 1)
        steps = end - start
        block_c = c[start - 1 : end - 1]
        sub = block_c - 1 + half * dt * g[1]
        a = toeplitz[:steps, :steps].copy(order="F")
        a[rows[:steps], rows[:steps]] = 1 + block_c
        a[rows[1:steps], rows[: steps - 1]] = sub[1:]
        # The block's only term that neither its Toeplitz part nor the FFT
        # spans carry: its first row's sub-diagonal entry times p[start - 1].
        rhs[start] -= sub[0] * p[start - 1]
        x, info = ztrtrs(a, rhs[start:end, None], lower=1)
        if info != 0:
            raise NumericalError(f"memory-kernel step singular at t={(start + info - 1) * dt:g}")
        block = x[:, 0]
        p[start:end] = block
        # An unstable block may overflow; the first offending step is reported.
        with np.errstate(over="ignore", invalid="ignore"):
            magnitude = np.abs(block)
            unstable = ~(magnitude <= 1.05)  # NaN too
        if unstable.any():
            k = int(np.argmax(unstable))
            raise NumericalError(
                f"memory-kernel stepper unstable at t={(start + k) * dt:g}: "
                f"|P|={magnitude[k]:.3f}; reduce dt"
            )
        if end > n:
            break
        # The span of `width` rows completed here is the first half of a
        # span of 2 * width; its terms leave the second half's right side at once.
        blocks = (end - 1) // _LEAF
        width = (blocks & -blocks) * _LEAF
        size = 2 * width
        conv = np.fft.ifft(np.fft.fft(p[end - width : end], size) * np.fft.fft(q[:size], size))
        top = min(end + width, n + 1)
        rhs[end:top] -= conv[width : width + top - end]
    p.flags.writeable = False
    return p
