"""Command-line front end: parse a run configuration, dispatch the
experiment, write a CSV data file plus a key=value metadata sidecar.

The sidecar records every configuration field plus ``result.*`` summary
keys, so any output can be regenerated from its sidecar alone:

    ddchain size --config out.csv.meta

CSV output is deterministic for a given config and seed: fixed column
order, every float as 17-significant-digit scientific notation,
infeasible sweep cells as the literal token ``nan``.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields

import numpy as np

from ._version import __version__
from .config import KINDS, ConfigError, RunConfig, config_to_lines, parse_config
from .errors import DdchainError
from .model import PulseSpec
from .sweeps import (
    SweepResult,
    chain_spec,
    kernel_study,
    pq_check,
    sweep_delta_tau,
    sweep_ratio_psi,
    sweep_size,
    trace_variants,
)

# Every config key except the kind, which the subcommand names.
_FLAG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "kind")


def _fmt(value: float) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if math.isnan(value):
        return "nan"
    return f"{value:.16e}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(cell) for cell in row) + "\n")


def sidecar_path(out: str) -> str:
    return out + ".meta"


def _write_sidecar(cfg: RunConfig, results: dict[str, str]) -> None:
    lines = ["# ddchain run metadata; feed back via --config to regenerate"]
    lines += config_to_lines(cfg)
    lines += [f"result.{key}={value}" for key, value in results.items()]
    with open(sidecar_path(cfg.out), "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def run(cfg: RunConfig) -> str:
    """Execute one configured experiment; returns a one-line summary."""
    started = time.perf_counter()
    results: dict[str, str] = {"version": __version__}

    if cfg.kind == "delta-tau":
        sweep = sweep_delta_tau(
            cfg.psi, cfg.n, cfg.m,
            np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_steps),
            np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_steps),
            j=cfg.j, gamma=cfg.gamma, epsilon=cfg.epsilon, eta=cfg.eta,
            seed=cfg.seed,
        )
        summary = _write_sweep(cfg, sweep, results)
    elif cfg.kind == "ratio-psi":
        sweep = sweep_ratio_psi(
            cfg.delta,
            np.linspace(cfg.ratio_min, cfg.ratio_max, cfg.ratio_steps),
            np.linspace(cfg.psi_min, cfg.psi_max, cfg.psi_steps),
            cfg.n, cfg.m,
            j=cfg.j, gamma=cfg.gamma, epsilon=cfg.epsilon, eta=cfg.eta,
            seed=cfg.seed,
        )
        summary = _write_sweep(cfg, sweep, results)
    elif cfg.kind == "size":
        table = sweep_size(
            cfg.psi, cfg.delta, cfg.tau, cfg.m, cfg.n_values,
            j=cfg.j, gamma=cfg.gamma, epsilon=cfg.epsilon, eta=cfg.eta,
            seed=cfg.seed,
        )
        _write_csv(
            cfg.out,
            ["n", "fidelity_free", "fidelity_controlled"],
            zip(table.n_values, table.free, table.controlled),
        )
        summary = f"{len(table.n_values)} sizes"
    elif cfg.kind == "trace":
        traces = trace_variants(
            cfg.psi, cfg.delta, cfg.tau, cfg.m, n=cfg.n, j=cfg.j,
            gamma=cfg.gamma, epsilon=cfg.epsilon, eta=cfg.eta,
            seed=cfg.seed, record_every=cfg.record_every,
        )
        _write_csv(
            cfg.out,
            ["t", "f_free", "f_const", "f_broadening", "f_static_random", "f_period_noise"],
            zip(traces.times, traces.free, traces.constant, traces.broadening,
                traces.static_random, traces.period_noise),
        )
        summary = f"{len(traces.times)} times x 5 variants"
    elif cfg.kind == "kernel":
        chain = chain_spec(cfg.n, cfg.j, cfg.gamma, cfg.epsilon, cfg.eta, cfg.seed)
        trace = kernel_study(chain, cfg.dt, cfg.t_max, cfg.threshold, cfg.hold)
        times = np.arange(len(trace.samples)) * trace.dt
        _write_csv(
            cfg.out,
            ["t", "re_g", "im_g"],
            zip(times, trace.samples.real, trace.samples.imag),
        )
        lifetime = float("nan") if trace.lifetime is None else trace.lifetime
        results["lifetime"] = repr(lifetime)
        summary = f"lifetime={lifetime:g}"
    elif cfg.kind == "pq-check":
        pulse = None if cfg.psi == 0.0 else PulseSpec(cfg.psi, cfg.tau, cfg.delta, cfg.m)
        chain = chain_spec(cfg.n, cfg.j, cfg.gamma, cfg.epsilon, cfg.eta, cfg.seed)
        comparison = pq_check(chain, pulse, cfg.dt, cfg.m * cfg.tau)
        _write_csv(
            cfg.out,
            ["t", "abs_p", "fidelity_direct", "abs_error"],
            zip(comparison.times, comparison.p_abs, comparison.direct, comparison.abs_error),
        )
        max_err = float(comparison.abs_error.max())
        results["max_abs_error"] = repr(max_err)
        summary = f"max_abs_error={max_err:.3e}"
    else:  # unreachable after validation
        raise ConfigError(f"unknown kind {cfg.kind!r}")

    results["wall_time_s"] = f"{time.perf_counter() - started:.3f}"
    _write_sidecar(cfg, results)
    return f"{cfg.kind}: wrote {cfg.out} and {sidecar_path(cfg.out)} ({summary})"


def _write_sweep(cfg, sweep: SweepResult, results: dict) -> str:
    rows = (
        (a, b, sweep.fidelities[i, k])
        for i, a in enumerate(sweep.grid.axis1)
        for k, b in enumerate(sweep.grid.axis2)
    )
    _write_csv(cfg.out, [sweep.grid.axis1_name, sweep.grid.axis2_name, "fidelity"], rows)
    n_cells = sweep.fidelities.size
    n_bad = int(np.isnan(sweep.fidelities).sum())
    results["cells"] = str(n_cells)
    results["infeasible_cells"] = str(n_bad)
    return f"{n_cells} cells, {n_bad} infeasible"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddchain",
        description="Pulse-controlled XY spin chain simulator (one-magnon sector).",
    )
    parser.add_argument("--version", action="version", version=f"ddchain {__version__}")
    sub = parser.add_subparsers(dest="command")
    descriptions = {
        "delta-tau": "final fidelity over a (width, period) grid",
        "size": "free vs controlled final fidelity per chain size",
        "trace": "fidelity time traces for the disorder variants",
        "ratio-psi": "final fidelity over a (period/width, strength) grid",
        "kernel": "environment correlation function and its lifetime",
        "pq-check": "memory-kernel route vs direct propagation",
    }
    for kind in KINDS:
        p = sub.add_parser(kind, help=descriptions[kind])
        p.add_argument("--config", help="key=value config file (flags override it)")
        for key in _FLAG_KEYS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar="V")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    overrides = {key: getattr(namespace, key) for key in _FLAG_KEYS}
    try:
        cfg = parse_config(namespace.config, overrides, kind=namespace.command)
    except (ConfigError, OSError) as exc:
        print(f"ddchain: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(run(cfg))
    except (DdchainError, ValueError, OSError) as exc:
        print(f"ddchain: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
