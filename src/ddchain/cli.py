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
import os
import sys
import tempfile
import time
from dataclasses import fields

import numpy as np

from ._version import __version__
from .config import (KINDS, RESULT_PREFIX, SINGLE_PULSE_KINDS, ConfigError, RunConfig,
                     config_to_lines, parse_config)
from .errors import DdchainError
from .model import ChainSpec, PulseSpec
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


def sidecar_path(out: str) -> str:
    return out + ".meta"


def _write_outputs(cfg: RunConfig, columns: dict[str, np.ndarray], results: dict[str, str],
                   started: float) -> None:
    """Write the CSV of ``columns`` ({header: column}), then its sidecar, into a private
    directory beside ``cfg.out`` and move them into place (the sidecar first, taken back
    out if the CSV cannot follow); the directory goes on exit, so no other file is touched."""
    directory, name = os.path.split(os.path.abspath(cfg.out))
    with tempfile.TemporaryDirectory(prefix=name + ".", suffix=".tmp", dir=directory) as stage:
        csv_temp, meta_temp = os.path.join(stage, "csv"), os.path.join(stage, "meta")
        with open(csv_temp, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(columns) + "\n")
            # One row template: integers plain, floats to 17 significant digits.
            template = ",".join("%d" if np.issubdtype(column.dtype, np.integer) else "%.16e"
                                for column in columns.values()) + "\n"
            rows = zip(*(column.tolist() for column in columns.values()))
            handle.writelines(template % row for row in rows)
        results["wall_time_s"] = f"{time.perf_counter() - started:.3f}"
        lines = ["# ddchain run metadata; feed back via --config to regenerate"]
        lines += config_to_lines(cfg)
        lines += [f"{RESULT_PREFIX}{key}={value}" for key, value in results.items()]
        with open(meta_temp, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(meta_temp, sidecar_path(cfg.out))
        try:
            os.replace(csv_temp, cfg.out)
        except OSError:
            os.remove(sidecar_path(cfg.out))
            raise


def run(cfg: RunConfig, workers: int = 1) -> str:
    """Execute one configured experiment, a grid sweep on up to ``workers`` threads;
    returns a one-line summary of the ``result.*`` keys it recorded (all but the version)."""
    started = time.perf_counter()
    results: dict[str, str] = {"version": __version__}
    chain = ChainSpec(n_sites=cfg.n, coupling=cfg.j, static_coupling_disorder=cfg.gamma,
                      band_broadening=cfg.epsilon, per_period_noise=cfg.eta, seed=cfg.seed)
    if cfg.kind in SINGLE_PULSE_KINDS:  # the kinds whose delta <= tau config checks
        pulse = PulseSpec(cfg.psi, cfg.tau, cfg.delta, cfg.m)

    if cfg.kind == "delta-tau":
        sweep = sweep_delta_tau(
            chain, cfg.psi, cfg.m,
            np.linspace(cfg.delta_min, cfg.delta_max, cfg.delta_steps),
            np.linspace(cfg.tau_min, cfg.tau_max, cfg.tau_steps), workers,
        )
        columns = _grid_columns(("delta", "tau"), sweep, results)
    elif cfg.kind == "ratio-psi":
        sweep = sweep_ratio_psi(
            chain, cfg.delta, cfg.m,
            np.linspace(cfg.ratio_min, cfg.ratio_max, cfg.ratio_steps),
            np.linspace(cfg.psi_min, cfg.psi_max, cfg.psi_steps), workers,
        )
        columns = _grid_columns(("ratio", "psi"), sweep, results)
    elif cfg.kind == "size":
        table = sweep_size(chain, pulse, cfg.n_values)
        columns = {"n": table.n_values, "fidelity_free": table.free,
                   "fidelity_controlled": table.controlled}
    elif cfg.kind == "trace":
        traces = trace_variants(chain, pulse, record_every=cfg.record_every)
        columns = {"t": traces.times, "f_free": traces.free, "f_const": traces.constant,
                   "f_broadening": traces.broadening, "f_static_random": traces.static_random,
                   "f_period_noise": traces.period_noise}
    elif cfg.kind == "kernel":
        trace = kernel_study(chain, cfg.dt, cfg.t_max, cfg.threshold, cfg.hold)
        columns = {"t": trace.times, "re_g": trace.samples.real, "im_g": trace.samples.imag}
        results["lifetime"] = repr(float("nan") if trace.lifetime is None else trace.lifetime)
    elif cfg.kind == "pq-check":
        comparison = pq_check(chain, pulse, cfg.dt, cfg.m * cfg.tau)
        columns = {"t": comparison.times, "abs_p": comparison.p_abs,
                   "fidelity_direct": comparison.direct, "abs_error": comparison.abs_error}
        results["max_abs_error"] = repr(float(comparison.abs_error.max()))
    else:  # unreachable after validation
        raise ConfigError(f"unknown kind {cfg.kind!r}")

    _write_outputs(cfg, columns, results, started)
    summary = ", ".join(f"{key}={value}" for key, value in results.items() if key != "version")
    return f"{cfg.kind}: wrote {cfg.out} and {sidecar_path(cfg.out)} ({summary})"


def _grid_columns(names: tuple[str, str], sweep: SweepResult, results: dict[str, str]):
    """CSV columns (axis2 varying fastest) of a 2-D sweep, headed by the two
    axis ``names`` and ``fidelity``; records its cell and thread counts."""
    columns = {names[0]: np.repeat(sweep.axis1, len(sweep.axis2)),
               names[1]: np.tile(sweep.axis2, len(sweep.axis1)),
               "fidelity": sweep.fidelities.ravel()}
    results["cells"] = str(sweep.fidelities.size)
    results["infeasible_cells"] = str(int(np.isnan(sweep.fidelities).sum()))
    results["threads"] = str(sweep.threads)
    return columns


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
        p.add_argument("--workers", default="1", metavar="V", help=(
            "threads for a delta-tau or ratio-psi grid, each running whole strength blocks or"
            " 8-cell slabs of them (a run option, not a config key); pin"
            " OPENBLAS_NUM_THREADS=1 with it, or BLAS threads oversubscribe the cores"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    if namespace.command is None:
        parser.print_help(file=sys.stderr)
        return 2
    overrides = {key: getattr(namespace, key) for key in _FLAG_KEYS}
    try:
        if not (namespace.workers.isdecimal() and int(namespace.workers) >= 1):
            raise ConfigError(f"--workers must be a positive integer, got {namespace.workers!r}")
        cfg = parse_config(namespace.config, overrides, kind=namespace.command)
        if not cfg.out or os.path.isdir(cfg.out):
            raise ConfigError(f"out must name a file, got {cfg.out!r}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(cfg.out))):
            raise ConfigError(f"out's directory does not exist: {cfg.out!r}")
    except (ConfigError, OSError) as exc:
        print(f"ddchain: error: {exc}", file=sys.stderr)
        return 2
    try:
        print(run(cfg, int(namespace.workers)))
    except (DdchainError, ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"ddchain: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
