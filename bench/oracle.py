"""Independent checks of the CLI's output files.

Fidelities are recomputed with a dense propagator: the Hamiltonians come
from the ``ddchain.model`` builders (so disorder draws are the same), but
every evolution segment is ``scipy.linalg.expm`` of the dense matrix.
Neither ``ddchain.eigen`` nor ``ddchain.propagate`` is on this path, so
an error in the spectral propagator cannot hide itself.

Each ``check_*`` function takes the run's parsed sidecar config, the CSV
bytes, the sidecar's raw key/value pairs and the workload seed, which
chooses the rows to recompute (through ``pick``). It returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import math
import random

import numpy as np
import scipy.linalg

from ddchain.config import RunConfig
from ddchain.model import (
    ChainSpec,
    PulseSpec,
    TridiagonalHamiltonian,
    build_controlled_hamiltonian,
    build_free_hamiltonian,
    sample_period_noise,
    sample_static_disorder,
)

TOL = 1e-9
# The paper's acceptance bound for the memory-kernel route.
PQ_ERROR_BOUND = 1e-3
GRID_CELLS_CHECKED = 8
TRACE_PERIODS_CHECKED = 16
PQ_TIMES_CHECKED = 16

# trace CSV column -> (chain disorder (gamma, epsilon, eta) switches, pulse on)
TRACE_VARIANTS = {
    "f_free": ((False, False, False), False),
    "f_const": ((False, False, False), True),
    "f_broadening": ((False, True, False), True),
    "f_static_random": ((True, False, False), True),
    "f_period_noise": ((False, False, True), True),
}


def parse_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    """Header names and a float table (``nan`` tokens become NaN)."""
    text = data.decode("utf-8")
    head, _, body = text.partition("\n")
    header = head.split(",")
    values = np.array(body.replace(",", " ").split(), dtype=float)
    if values.size % len(header):
        raise ValueError("ragged CSV")
    return header, values.reshape(-1, len(header))


def pick(seed: int, candidates, count: int) -> list[int]:
    """The rows a check recomputes: ``count`` of ``candidates``, chosen by ``seed``."""
    candidates = list(candidates)
    return sorted(random.Random(seed).sample(candidates, min(count, len(candidates))))


def _dense(h: TridiagonalHamiltonian) -> np.ndarray:
    return np.diag(h.diagonal) + np.diag(h.off_diagonal, 1) + np.diag(h.off_diagonal, -1)


def _expm(h: np.ndarray, duration: float) -> np.ndarray:
    return scipy.linalg.expm(-1j * duration * h)


class DenseProtocol:
    """The pulse protocol applied with dense matrix exponentials."""

    def __init__(self, chain: ChainSpec, pulse: PulseSpec | None):
        self.chain = chain
        self.pulse = pulse
        self.bonds, self.sites = sample_static_disorder(chain)
        self._static = None

    def hamiltonians(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense (pulsed, free) Hamiltonians of period ``k``."""
        bonds = self.bonds
        if self.chain.per_period_noise > 0.0:
            bonds = bonds + sample_period_noise(self.chain, k)
        free = _dense(build_free_hamiltonian(self.chain, bonds, self.sites))
        if self.pulse is None:
            return free, free
        pulsed = _dense(build_controlled_hamiltonian(self.chain, self.pulse, bonds, self.sites))
        return pulsed, free

    def period_operator(self, k: int) -> np.ndarray:
        if self.chain.per_period_noise == 0.0 and self._static is not None:
            return self._static
        pulsed, free = self.hamiltonians(k)
        p = self.pulse
        op = _expm(free, p.period - p.width) @ _expm(pulsed, p.width)
        if self.chain.per_period_noise == 0.0:
            self._static = op
        return op

    def initial(self) -> np.ndarray:
        state = np.zeros(self.chain.n_sites, dtype=complex)
        state[0] = 1.0
        return state

    def period_fidelities(self, periods: int) -> np.ndarray:
        """|qubit amplitude| after each of periods 1..``periods``."""
        state = self.initial()
        out = np.empty(periods)
        for k in range(periods):
            state = self.period_operator(k) @ state
            out[k] = abs(state[0])
        return out

    def fidelity_at(self, t: float) -> float:
        """|qubit amplitude| at time ``t``; the pulse train never stops."""
        state = self.initial()
        if self.pulse is None:
            return float(abs((_expm(self.hamiltonians(0)[1], t) @ state)[0]))
        p = self.pulse
        k = int(math.floor(t / p.period))
        for i in range(k):
            state = self.period_operator(i) @ state
        rest = t - k * p.period
        pulsed, free = self.hamiltonians(k)
        if rest <= p.width:
            state = _expm(pulsed, rest) @ state
        else:
            state = _expm(free, rest - p.width) @ (_expm(pulsed, p.width) @ state)
        return float(abs(state[0]))


def _chain(cfg: RunConfig, gamma: float, epsilon: float, eta: float) -> ChainSpec:
    return ChainSpec(
        n_sites=cfg.n, coupling=cfg.j, static_coupling_disorder=gamma,
        band_broadening=epsilon, per_period_noise=eta, seed=cfg.seed,
    )


def _compare(problems: list[str], what: str, got: float, want: float) -> None:
    if not abs(got - want) <= TOL:
        problems.append(f"{what}: CSV {got!r} vs oracle {want!r}")


def _expect_header(header: list[str], want: list[str]) -> list[str]:
    return [] if header == want else [f"header {header} != {want}"]


def check_grid(cfg: RunConfig, data: bytes, sidecar: dict, seed: int) -> list[str]:
    """delta-tau grid: layout, NaN sentinels, and sampled cells."""
    header, table = parse_csv(data)
    problems = _expect_header(header, ["delta", "tau", "fidelity"])
    if problems:
        return problems
    deltas = np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_steps)
    taus = np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_steps)
    want_d, want_t = (a.ravel() for a in np.meshgrid(deltas, taus, indexing="ij"))
    if table.shape[0] != want_d.size or not (
        np.array_equal(table[:, 0], want_d) and np.array_equal(table[:, 1], want_t)
    ):
        return ["grid axes or row order differ from the configured grid"]
    fid = table[:, 2]
    feasible = want_d <= want_t
    if not np.array_equal(np.isnan(fid), ~feasible):
        problems.append("NaN sentinels do not match the infeasible cells")
    if np.any(fid[feasible] < 0.0) or np.any(fid[feasible] > 1.0 + TOL):
        problems.append("fidelity outside [0, 1]")
    chain = _chain(cfg, cfg.gamma, cfg.epsilon, cfg.eta)
    for row in pick(seed, np.flatnonzero(feasible), GRID_CELLS_CHECKED):
        delta, tau = table[row, 0], table[row, 1]
        protocol = DenseProtocol(chain, PulseSpec(cfg.psi, tau, delta, cfg.m))
        _compare(problems, f"cell delta={delta} tau={tau}", fid[row],
                 protocol.period_fidelities(cfg.m)[-1])
    return problems


def check_trace(cfg: RunConfig, data: bytes, sidecar: dict, seed: int) -> list[str]:
    """Disorder variants: time column and the first periods of each variant."""
    header, table = parse_csv(data)
    problems = _expect_header(header, ["t", *TRACE_VARIANTS])
    if problems:
        return problems
    if cfg.record_every != 1 or table.shape[0] != cfg.m + 1:
        return [f"expected {cfg.m + 1} rows at record_every=1, got {table.shape[0]}"]
    times = np.array([0.0] + [(k + 1) * cfg.tau for k in range(cfg.m)])
    if not np.array_equal(table[:, 0], times):
        problems.append("time column is not k * tau")
    periods = min(TRACE_PERIODS_CHECKED, cfg.m)
    for col, ((g, e, n), pulsed) in enumerate(TRACE_VARIANTS.values(), start=1):
        chain = _chain(cfg, cfg.gamma * g, cfg.epsilon * e, cfg.eta * n)
        pulse = PulseSpec(cfg.psi if pulsed else 0.0, cfg.tau, cfg.delta, cfg.m)
        want = DenseProtocol(chain, pulse).period_fidelities(periods)
        for k in range(periods):
            _compare(problems, f"{header[col]} period {k + 1}", table[k + 1, col], want[k])
    return problems


def check_pq(cfg: RunConfig, data: bytes, sidecar: dict, seed: int) -> list[str]:
    """Memory-kernel check: error column, the acceptance bound, and
    sampled times of the direct route."""
    header, table = parse_csv(data)
    problems = _expect_header(header, ["t", "abs_p", "fidelity_direct", "abs_error"])
    if problems:
        return problems
    n = int(round(cfg.m * cfg.tau / cfg.dt))
    if table.shape[0] != n + 1 or not np.array_equal(table[:, 0], np.arange(n + 1) * cfg.dt):
        return [f"time column is not the {n + 1}-point grid of spacing dt"]
    if not np.array_equal(table[:, 3], np.abs(table[:, 1] - table[:, 2])):
        problems.append("abs_error column is not |abs_p - fidelity_direct|")
    max_err = float(sidecar.get("result.max_abs_error", "nan"))
    if not max_err <= PQ_ERROR_BOUND:
        problems.append(f"result.max_abs_error={max_err!r} exceeds {PQ_ERROR_BOUND}")
    elif max_err != table[:, 3].max():
        problems.append("result.max_abs_error is not the CSV's largest abs_error")
    pulse = None if cfg.psi == 0.0 else PulseSpec(cfg.psi, cfg.tau, cfg.delta, cfg.m)
    protocol = DenseProtocol(_chain(cfg, cfg.gamma, cfg.epsilon, 0.0), pulse)
    for row in pick(seed, range(1, n + 1), PQ_TIMES_CHECKED):
        t = table[row, 0]
        _compare(problems, f"fidelity_direct t={t}", table[row, 2], protocol.fidelity_at(t))
    return problems
