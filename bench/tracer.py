"""Traced in-process run of one ddchain CLI experiment.

    python3 bench/tracer.py KIND FLAGS_JSON --spawned-at T

run.py starts this as a child process with BLAS pinned to one thread and
``workers=1``, so every span lands in this process. It wraps the public
entry points of each ddchain module from outside, rebinding each name in
every ddchain module that imported it with a ``from`` import (for
example ``propagate.decompose`` and ``sweeps.final_fidelity``), then
calls ``ddchain.cli.run(parse_config(...))`` once. Spans (name, start,
end, parent) are kept in memory. The last line of stdout is one JSON
object: ``spans`` holds the per-span-name aggregates and ``ended_at`` the
clock reading as it was printed, so the parent can count interpreter
teardown as harness time too.

``T`` is the parent's ``time.perf_counter()`` just before the spawn. The
clock is CLOCK_MONOTONIC, which all processes share, so interpreter
start-up is recorded as harness time.
"""

import argparse
import functools
import importlib
import json
import math
import sys
import time

# Public entry points per layer (layer name == module name). Scalar
# helpers called once per draw or per step (rng.mix64,
# model.control_value, propagate.fidelity, propagate.initial_state) stay
# unwrapped: a span there would cost more than the work it times, and
# their time counts toward the calling layer.
ENTRY_POINTS = {
    "rng": ("SplitMix64.uniform_open_vector",),
    "model": ("sample_static_disorder", "sample_period_noise", "build_free_hamiltonian",
              "build_controlled_hamiltonian", "environment_block"),
    "eigen": ("decompose",),
    "propagate": ("evolve_interval", "run_protocol", "final_fidelity", "site_amplitude_trace"),
    "kernel": ("kernel_values", "correlation_kernel", "estimate_lifetime", "solve_p_equation"),
    "sweeps": ("sweep_delta_tau", "sweep_ratio_psi", "sweep_size", "trace_variants",
               "kernel_study", "pq_check"),
    "config": ("parse_config",),
    "cli": ("run",),
}

# Entry points whose span is one protocol run (one sweep cell or variant).
CELL_SPANS = ("propagate.final_fidelity", "propagate.run_protocol",
              "propagate.site_amplitude_trace")
BUILD_SPANS = ("model.build_free_hamiltonian", "model.build_controlled_hamiltonian")
# A complex multiply-add; real-by-complex matrix-vector products count as
# two real products of 4 flops per element, which comes to the same.
FLOP_PER_CMAC = 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters: (work, flops) computed from argument shapes only.
def _draws(args, kwargs):
    return _arg(args, kwargs, 1, "n"), 0  # (self, n)


def _evolve_flops(args, kwargs):
    n = len(_arg(args, kwargs, 0, "state"))
    return 0, (FLOP_PER_CMAC * n * n if _arg(args, kwargs, 2, "duration") else 0)


def _trace_flops(args, kwargs):
    chain, pulse = _arg(args, kwargs, 0, "chain"), _arg(args, kwargs, 1, "pulse")
    t_max = _arg(args, kwargs, 3, "t_max")
    steps = round(t_max / _arg(args, kwargs, 2, "dt"))
    n = chain.n_sites
    segments = 1 if pulse is None else 2 * math.ceil(t_max / pulse.period)
    # The steps x N phase block times a vector, plus the state update of
    # each segment.
    return 0, FLOP_PER_CMAC * (steps * n + segments * n * n)


def _kernel_flops(args, kwargs):
    samples = len(_arg(args, kwargs, 2, "times"))
    return samples, FLOP_PER_CMAC * samples * _arg(args, kwargs, 0, "env").size


def _volterra_steps(args, kwargs):
    steps = round(_arg(args, kwargs, 2, "t_max") / _arg(args, kwargs, 3, "dt"))
    # Step i dots i history terms.
    return steps, FLOP_PER_CMAC * steps * (steps - 1) // 2


WORK = {
    "rng.uniform_open_vector": _draws,
    "propagate.evolve_interval": _evolve_flops,
    "propagate.site_amplitude_trace": _trace_flops,
    "kernel.kernel_values": _kernel_flops,
    "kernel.solve_p_equation": _volterra_steps,
}


def layer_of(name: str) -> str:
    return name.partition(".")[0]


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, work, flops]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open = [-1]

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1, 0, 0])

    def wrap(self, name: str, fn):
        spans, open_spans, count = self.spans, self._open, WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work, flops = count(args, kwargs) if count else (0, 0)
            span = [name, 0.0, 0.0, open_spans[-1], work, flops]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()

        return traced

    def aggregate(self) -> dict:
        """Per span name: count, total and self seconds, work, flops, and
        the count and seconds of entries from another layer."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, work, flops) in enumerate(self.spans):
            agg = out.setdefault(name, dict.fromkeys(
                ("count", "total_s", "self_s", "work", "flops", "entries", "entry_s"), 0))
            duration = end - start
            agg["count"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - children[i]
            agg["work"] += work
            agg["flops"] += flops
            if parent < 0 or layer_of(self.spans[parent][0]) != layer_of(name):
                agg["entries"] += 1
                agg["entry_s"] += duration
        return out


def install(tracer: Tracer) -> None:
    """Wrap every entry point and rebind it wherever ddchain imported it."""
    importers = [module for key, module in sys.modules.items()
                 if key == "ddchain" or key.startswith("ddchain.")]
    for layer, names in ENTRY_POINTS.items():
        home = importlib.import_module(f"ddchain.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, attr)
            traced = tracer.wrap(f"{layer}.{attr}", original)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for module in importers:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)


def layer_self_s(report: dict) -> dict[str, float]:
    """Self seconds per layer, ``harness`` included."""
    out = {layer: 0.0 for layer in (*ENTRY_POINTS, "harness")}
    for name, agg in report.items():
        out[layer_of(name)] += agg["self_s"]
    return out


def cells(report: dict) -> tuple[int, float]:
    """Protocol runs entered from outside ``propagate`` and their seconds."""
    return (sum(report.get(n, {}).get("entries", 0) for n in CELL_SPANS),
            sum(report.get(n, {}).get("entry_s", 0.0) for n in CELL_SPANS))


def layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics that come from spans alone, as (value, unit).

    Ratios read 0 where the layer did no work on the workload.
    """
    def get(name, key):
        return report.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    def flops(layer):
        return sum(agg["flops"] for name, agg in report.items() if layer_of(name) == layer) / 1e9

    busy = layer_self_s(report)
    draws = get("rng.uniform_open_vector", "work")
    solves = get("eigen.decompose", "count")
    n_cells, cell_s = cells(report)
    steps = get("kernel.solve_p_equation", "work")
    volterra_s = get("kernel.solve_p_equation", "self_s")
    return {
        "rng.draws": (draws, "count"),
        "rng.busy_s": (busy["rng"], "s"),
        "rng.ns_per_draw": (ratio(busy["rng"], draws, 1e9), "ns"),
        "model.builds": (sum(get(n, "entries") for n in BUILD_SPANS), "count"),
        "model.busy_s": (busy["model"], "s"),
        "eigen.calls": (solves, "count"),
        "eigen.busy_s": (busy["eigen"], "s"),
        "eigen.ms_per_call": (ratio(busy["eigen"], solves, 1e3), "ms"),
        "propagate.evolve_calls": (get("propagate.evolve_interval", "count"), "count"),
        "propagate.busy_s": (busy["propagate"], "s"),
        "propagate.cell_ms": (ratio(cell_s, n_cells, 1e3), "ms"),
        "propagate.trace_busy_s": (get("propagate.site_amplitude_trace", "self_s"), "s"),
        "propagate.gflop_computed": (flops("propagate"), "GFLOP"),
        "kernel.sample_busy_s": (busy["kernel"] - volterra_s, "s"),
        "kernel.volterra_steps": (steps, "count"),
        "kernel.volterra_busy_s": (volterra_s, "s"),
        "kernel.us_per_step": (ratio(volterra_s, steps, 1e6), "us"),
        "kernel.gflop_computed": (flops("kernel"), "GFLOP"),
        "sweeps.cells": (n_cells, "count"),
        "sweeps.busy_s": (busy["sweeps"], "s"),
        "config.parse_s": (busy["config"], "s"),
        "cli.self_s": (busy["cli"], "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind")
    parser.add_argument("flags", type=json.loads, help="config key -> value, as JSON")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    start = time.perf_counter()
    tracer.record("harness.startup", args.spawned_at, start)
    import ddchain.cli
    import ddchain.config
    tracer.record("harness.import", start, time.perf_counter())
    start = time.perf_counter()
    install(tracer)
    tracer.record("harness.install", start, time.perf_counter())

    ddchain.cli.run(ddchain.config.parse_config(None, args.flags, kind=args.kind))

    start = time.perf_counter()
    spans = tracer.aggregate()
    seconds = time.perf_counter() - start
    spans["harness.report"] = dict(count=1, total_s=seconds, self_s=seconds, work=0, flops=0,
                                   entries=1, entry_s=seconds)
    print(json.dumps({"spans": spans, "ended_at": time.perf_counter()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
