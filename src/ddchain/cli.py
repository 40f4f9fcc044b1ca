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
import contextlib
import os
import sys
import time
from dataclasses import fields

import numpy as np

from ._version import __version__
from .config import KINDS, RESULT_PREFIX, ConfigError, RunConfig, config_to_lines, parse_config
from .errors import DdchainError
from .model import ChainSpec, PulseSpec, time_grid
from .sweeps import (
    SweepResult,
    kernel_study,
    pq_check,
    sweep_delta_tau,
    sweep_ratio_psi,
    sweep_size,
    trace_variants,
)

# Every config key except the kind, which the subcommand names.
_FLAG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "kind")


def _cells(column: np.ndarray) -> list[str]:
    """One CSV column as text: integers plain, floats to 17 significant digits."""
    fmt = str if np.issubdtype(column.dtype, np.integer) else "{:.16e}".format
    return list(map(fmt, column.tolist()))


def sidecar_path(out: str) -> str:
    return out + ".meta"


def _write_outputs(cfg: RunConfig, columns: dict[str, np.ndarray], results: dict[str, str],
                   started: float) -> None:
    """Write the CSV of ``columns`` ({header: column}), then its sidecar, to
    temporary files beside ``cfg.out``, and move them into place (sidecar first)
    only once both are written, so a failed run never leaves a CSV without its sidecar."""
    csv_temp, meta_temp = cfg.out + ".tmp", sidecar_path(cfg.out) + ".tmp"
    try:
        with open(csv_temp, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(columns) + "\n")
            for row in zip(*map(_cells, columns.values())):
                handle.write(",".join(row) + "\n")
        results["wall_time_s"] = f"{time.perf_counter() - started:.3f}"
        lines = ["# ddchain run metadata; feed back via --config to regenerate"]
        lines += config_to_lines(cfg)
        lines += [f"{RESULT_PREFIX}{key}={value}" for key, value in results.items()]
        with open(meta_temp, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(meta_temp, sidecar_path(cfg.out))
        os.replace(csv_temp, cfg.out)
    finally:
        for temp in (csv_temp, meta_temp):
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def run(cfg: RunConfig) -> str:
    """Execute one configured experiment; returns a one-line summary."""
    started = time.perf_counter()
    results: dict[str, str] = {"version": __version__}
    chain = ChainSpec(n_sites=cfg.n, coupling=cfg.j, static_coupling_disorder=cfg.gamma,
                      band_broadening=cfg.epsilon, per_period_noise=cfg.eta, seed=cfg.seed)

    if cfg.kind == "delta-tau":
        sweep = sweep_delta_tau(
            chain, cfg.psi, cfg.m,
            np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_steps),
            np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_steps),
        )
        columns, summary = _grid_columns(sweep, results)
    elif cfg.kind == "ratio-psi":
        sweep = sweep_ratio_psi(
            chain, cfg.delta, cfg.m,
            np.linspace(cfg.ratio_min, cfg.ratio_max, cfg.ratio_steps),
            np.linspace(cfg.psi_min, cfg.psi_max, cfg.psi_steps),
        )
        columns, summary = _grid_columns(sweep, results)
    elif cfg.kind == "size":
        table = sweep_size(chain, cfg.psi, cfg.delta, cfg.tau, cfg.m, cfg.n_values)
        columns = {"n": table.n_values, "fidelity_free": table.free,
                   "fidelity_controlled": table.controlled}
        summary = f"{len(table.n_values)} sizes"
    elif cfg.kind == "trace":
        traces = trace_variants(chain, cfg.psi, cfg.delta, cfg.tau, cfg.m,
                                record_every=cfg.record_every)
        columns = {"t": traces.times, "f_free": traces.free, "f_const": traces.constant,
                   "f_broadening": traces.broadening, "f_static_random": traces.static_random,
                   "f_period_noise": traces.period_noise}
        summary = f"{len(traces.times)} times x 5 variants"
    elif cfg.kind == "kernel":
        trace = kernel_study(chain, cfg.dt, cfg.t_max, cfg.threshold, cfg.hold)
        columns = {"t": time_grid(trace.dt, cfg.t_max), "re_g": trace.samples.real,
                   "im_g": trace.samples.imag}
        lifetime = float("nan") if trace.lifetime is None else trace.lifetime
        results["lifetime"] = repr(lifetime)
        summary = f"lifetime={lifetime:g}"
    elif cfg.kind == "pq-check":
        pulse = None if cfg.psi == 0.0 else PulseSpec(cfg.psi, cfg.tau, cfg.delta, cfg.m)
        comparison = pq_check(chain, pulse, cfg.dt, cfg.m * cfg.tau)
        columns = {"t": comparison.times, "abs_p": comparison.p_abs,
                   "fidelity_direct": comparison.direct, "abs_error": comparison.abs_error}
        max_err = float(comparison.abs_error.max())
        results["max_abs_error"] = repr(max_err)
        summary = f"max_abs_error={max_err:.3e}"
    else:  # unreachable after validation
        raise ConfigError(f"unknown kind {cfg.kind!r}")

    _write_outputs(cfg, columns, results, started)
    return f"{cfg.kind}: wrote {cfg.out} and {sidecar_path(cfg.out)} ({summary})"


def _grid_columns(sweep: SweepResult, results: dict[str, str]):
    """CSV columns (axis2 varying fastest) and summary of a 2-D sweep; records its cell counts."""
    grid = sweep.grid
    columns = {grid.axis1_name: np.repeat(grid.axis1, len(grid.axis2)),
               grid.axis2_name: np.tile(grid.axis2, len(grid.axis1)),
               "fidelity": sweep.fidelities.ravel()}
    n_cells = sweep.fidelities.size
    n_bad = int(np.isnan(sweep.fidelities).sum())
    results["cells"] = str(n_cells)
    results["infeasible_cells"] = str(n_bad)
    return columns, f"{n_cells} cells, {n_bad} infeasible"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddchain",
        description="Pulse-controlled XY spin chain simulator (one-magnon sector).",
    )
    parser.add_argument("--version", action="version", version=f"ddchain {__version__}")
    sub = parser.add_subparsers(dest="command")
    for kind, help_text in KINDS.items():
        p = sub.add_parser(kind, help=help_text)
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
