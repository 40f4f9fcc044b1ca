"""Self-test of the benchmark harness on tiny versions of its workloads.

    python3 bench/selftest.py

Run from the root of a ddchain checkout. For each workload (a 4x4 grid,
a trace with m=4, pq-check with m=2) it runs the end-to-end mode and the
traced mode, checks that both pass their output checks and emit exactly
the metric names and units that BENCHMARK.json lists, and checks that
the oracle accepts a real CSV but rejects it once one checked fidelity is
perturbed by 1e-6. Exits non-zero on any failure. Takes about two
minutes, most of it in the traced mode's diagnostics.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

SEED = 7
PERTURBATION = 1e-6


def checked_cell(name: str, data: bytes) -> tuple[int, int]:
    """A (row, column) of the CSV that the workload's check recomputes."""
    import numpy as np

    import oracle

    header, table = oracle.parse_csv(data)
    if name == "phase-grid":
        feasible = np.flatnonzero(~np.isnan(table[:, 2]))
        return oracle.pick(SEED, feasible, oracle.GRID_CELLS_CHECKED)[0], 2
    if name == "noisy-trace":
        return 1, header.index("f_const")
    return oracle.pick(SEED, range(1, len(table)), oracle.PQ_TIMES_CHECKED)[0], 2


def perturb(data: bytes, row: int, col: int, delta: float) -> bytes:
    lines = data.decode("utf-8").split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = f"{float(cells[col]) + delta:.16e}"
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


def check_oracle(name: str, workload, base_env: dict, tiny_grid: dict) -> list[str]:
    from ddchain.config import parse_config, read_key_value_file

    run.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT))
    try:
        bench = run.Bench(workload, SEED, workdir, base_env, time.perf_counter(), tiny_grid)
        flags = bench.flags("oracle", 1)
        inv = bench.invoke("oracle", flags, bench.env())
        if not inv.ok:
            return [f"{name}: tiny run failed: {bench.problems}"]
        meta = flags["out"] + ".meta"
        cfg, sidecar = parse_config(meta), read_key_value_file(meta)
        bad = perturb(inv.csv, *checked_cell(name, inv.csv), PERTURBATION)
        problems = workload.check(cfg, bad, sidecar, SEED)
        if not any("oracle" in p for p in problems):
            return [f"{name}: oracle accepted a fidelity perturbed by {PERTURBATION}: {problems}"]
        return []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    base_env = run.pin_blas()
    from workloads import TINY, TINY_DEFAULT_THREADS_GRID

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    failures = []
    for name, workload in TINY.items():
        for trace in (False, True):
            _, result, bench = run.run(workload, SEED, 1, trace, base_env,
                                       TINY_DEFAULT_THREADS_GRID)
            label = f"{name} trace={int(trace)}"
            if not result["correct"]:
                failures.append(f"{label}: {bench.problems}")
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{label}: metrics {sorted(got.items())} != "
                                f"BENCHMARK.json {sorted(want[trace].items())}")
            print(f"{label}: {result['attempted']} invocations, {result['failed']} failed")
        failures += check_oracle(name, workload, base_env, TINY_DEFAULT_THREADS_GRID)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
