"""Physical model of the controlled XY spin chain in the one-magnon sector.

Site 1 carries the qubit, sites 2..N form the environment. With exactly
one up spin the dynamics reduces to an N-dimensional tight-binding
problem: a real symmetric tridiagonal Hamiltonian whose diagonal holds
on-site energies and whose off-diagonal holds the exchange couplings.
The rectangular control pulse acts on the qubit only and appears as a
shift of the first diagonal entry while it is on; the uniform phase it
would impose on the rest of the sector is dropped, which leaves every
amplitude modulus (and hence every fidelity) unchanged.

The effective one-magnon hopping amplitude is taken equal to the
exchange constant J, which normalizes the environment correlation
function to J^2 at zero delay. The sign of J has no observable effect
in this sector.

Three kinds of coupling/site randomness are supported, all uniform on
(-amplitude, +amplitude):

* static bond disorder (amplitude ``static_coupling_disorder``), drawn
  once per chain and applied to every bond;
* static site-energy broadening (amplitude ``band_broadening``), drawn
  once per chain and applied to every site;
* per-period bond noise (amplitude ``per_period_noise``), redrawn before
  each pulse period.

All draws are pure functions of ``ChainSpec.seed`` via tagged splitmix64
streams, so a ChainSpec fully determines its disorder realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64, derive_seed

# Stream tags keying the independent disorder streams of one seed.
STREAM_STATIC_BONDS = 1
STREAM_STATIC_SITES = 2
STREAM_PERIOD_NOISE = 3

_SEED_MAX = (1 << 64) - 1


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Static description of one chain: size, couplings, disorder, seed."""

    n_sites: int
    coupling: float = 1.0
    static_coupling_disorder: float = 0.0
    band_broadening: float = 0.0
    per_period_noise: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError(f"n_sites must be >= 2, got {self.n_sites}")
        _check_finite("coupling", self.coupling)
        for name in ("static_coupling_disorder", "band_broadening", "per_period_noise"):
            v = getattr(self, name)
            _check_finite(name, v)
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if not (0 <= self.seed <= _SEED_MAX):
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass(frozen=True)
class PulseSpec:
    """Rectangular pulse train: strength, repetition period, on-width,
    and the number of periods (total protocol time = periods * period)."""

    strength: float
    period: float
    width: float
    periods: int

    def __post_init__(self):
        _check_finite("strength", self.strength)
        _check_finite("period", self.period)
        _check_finite("width", self.width)
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not (0 <= self.width <= self.period):
            raise ValueError(
                f"width must lie in [0, period]; got width={self.width}, period={self.period}"
            )
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal matrix stored as (diagonal, off_diagonal)."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonal, dtype=float)
        e = np.asarray(self.off_diagonal, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1:
            raise ValueError(
                f"need diagonal of length n and off_diagonal of length n-1, "
                f"got {d.shape} and {e.shape}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("Hamiltonian entries must be finite")
        d.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "off_diagonal", e)

    @property
    def size(self) -> int:
        return len(self.diagonal)


def sample_static_disorder(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw the once-per-chain disorder: (bond_offsets, site_offsets).

    bond_offsets[i] is uniform on (-gamma, +gamma) for each of the N-1
    bonds, site_offsets[j] uniform on (-epsilon, +epsilon) for each of
    the N sites. Bonds and sites use independent streams of the same
    seed, so e.g. the bond realization does not depend on epsilon.
    """
    bonds = SplitMix64(derive_seed(spec.seed, STREAM_STATIC_BONDS))
    sites = SplitMix64(derive_seed(spec.seed, STREAM_STATIC_SITES))
    bond_offsets = spec.static_coupling_disorder * bonds.uniform_open_vector(spec.n_sites - 1)
    site_offsets = spec.band_broadening * sites.uniform_open_vector(spec.n_sites)
    return bond_offsets, site_offsets


def sample_period_noise(spec: ChainSpec, period_index: int) -> np.ndarray:
    """Draw the bond noise for one pulse period (constant within it).

    A pure function of (seed, period_index): each period keys its own
    stream, so periods can be sampled in any order.
    """
    if period_index < 0:
        raise ValueError(f"period_index must be >= 0, got {period_index}")
    stream = SplitMix64(derive_seed(spec.seed, STREAM_PERIOD_NOISE, period_index))
    return spec.per_period_noise * stream.uniform_open_vector(spec.n_sites - 1)


def _offsets(values, length: int, what: str) -> np.ndarray:
    if values is None:
        return np.zeros(length)
    arr = np.asarray(values, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{what} must have shape ({length},), got {arr.shape}")
    return arr


def build_free_hamiltonian(
    spec: ChainSpec,
    bond_offsets: np.ndarray | None = None,
    site_offsets: np.ndarray | None = None,
) -> TridiagonalHamiltonian:
    """One-magnon Hamiltonian of the undriven chain: diagonal = site_offsets,
    off_diagonal = J + bond_offsets, with omitted offsets zero."""
    n = spec.n_sites
    diag = np.zeros(n)
    diag += _offsets(site_offsets, n, "site_offsets")
    off = np.full(n - 1, spec.coupling) + _offsets(bond_offsets, n - 1, "bond_offsets")
    return TridiagonalHamiltonian(diag, off)


def build_controlled_hamiltonian(
    spec: ChainSpec,
    pulse: PulseSpec,
    bond_offsets: np.ndarray | None = None,
    site_offsets: np.ndarray | None = None,
) -> TridiagonalHamiltonian:
    """One-magnon Hamiltonian while the pulse is on: the free Hamiltonian
    with the pulse strength added to the qubit's diagonal entry."""
    h = build_free_hamiltonian(spec, bond_offsets, site_offsets)
    diag = h.diagonal.copy()
    diag[0] += pulse.strength
    return TridiagonalHamiltonian(diag, h.off_diagonal)


def environment_block(h: TridiagonalHamiltonian) -> TridiagonalHamiltonian:
    """The (N-1)-dimensional environment sub-matrix (sites 2..N)."""
    if h.size < 2:
        raise ValueError("need at least 2 sites to take an environment block")
    return TridiagonalHamiltonian(h.diagonal[1:], h.off_diagonal[1:])


def control_value(pulse: PulseSpec, t):
    """The drive c(t): pulse.strength during the first ``width`` of each
    period, zero for the rest. The train starts pulse-on at t = 0.

    ``t`` is a time or an array of times; an array gives an array of the
    same shape, with the same bits as one call per time.
    """
    t = np.asarray(t, dtype=float)
    if pulse.strength == 0.0 or pulse.width == 0.0:
        c = np.zeros_like(t)
    else:
        frac = t - pulse.period * np.floor(t / pulse.period)
        c = np.where(frac < pulse.width, pulse.strength, 0.0)
    return c if c.ndim else float(c)


def time_grid(dt: float, t_max: float) -> np.ndarray:
    """The uniform grid 0, dt, ..., n * dt with n = round(t_max / dt)."""
    if dt <= 0 or t_max <= 0:
        raise ValueError("dt and t_max must be > 0")
    return np.arange(int(round(t_max / dt)) + 1) * dt


def check_within_train(pulse: PulseSpec, t_max: float) -> None:
    """Raise ValueError when ``t_max`` runs past the end of the pulse train."""
    if t_max > pulse.periods * pulse.period * (1 + 1e-12):
        raise ValueError(f"t_max={t_max:g} runs past the end of the pulse train "
                         f"({pulse.periods} periods of {pulse.period:g})")
