"""The benchmark's workloads: the CLI experiment each one runs, its unit
of work, and the check its output must pass.

Each workload puts most of its time in different modules:

* ``phase-grid`` is the paper's (delta, tau) phase diagram at half its
  resolution on each axis (18x18 rather than 36x36): per-cell
  ``propagate.final_fidelity`` and ``eigen.decompose`` under the
  ``sweeps`` process pool. Every cell shares the same two Hamiltonians,
  so batching or caching decompositions shows its gain here.
* ``noisy-trace`` (m=512) redraws bond noise every period (``rng``, ``model``
  and two eigensolves per period), so nothing can be shared across
  periods: a grid-batching change should predict no change here.
* ``pq-check`` (m=32) runs the O(n^2) Volterra stepper in ``kernel``, the
  dense time-by-site exponential blocks in ``kernel`` and ``propagate``,
  and a 3.8 MB CSV written by ``cli``.

Each invocation takes about 2.5 s on a 2-vCPU host, so a 40 s run
repeats it ten to a dozen times and its median rides out the host's
second-scale speed swings.

N=130, psi=8, delta=1.2, tau=1.3 and the disorder amplitudes are left at
the CLI defaults, which are the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    flags: dict[str, str]  # config keys set on the command line
    work_unit: str
    check: Callable[..., list[str]]
    count_work: Callable[[bytes], int]


def _rows(data: bytes) -> int:
    return data.count(b"\n") - 1


def _feasible_cells(data: bytes) -> int:
    return _rows(data) - data.count(b",nan\n")


def _variant_periods(data: bytes) -> int:
    return len(oracle.TRACE_VARIANTS) * (_rows(data) - 1)


def _volterra_steps(data: bytes) -> int:
    return _rows(data) - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("phase-grid", "delta-tau", {"delta_steps": "18", "tau_steps": "18"},
                 "feasible cells", oracle.check_grid, _feasible_cells),
        Workload("noisy-trace", "trace", {"m": "512"},
                 "variant-periods", oracle.check_trace, _variant_periods),
        Workload("pq-check", "pq-check", {"m": "32"},
                 "Volterra steps", oracle.check_pq, _volterra_steps),
    )
}

# The same experiments at a size that runs in about a second each.
TINY = {
    "phase-grid": replace(WORKLOADS["phase-grid"], flags={"delta_steps": "4", "tau_steps": "4"}),
    "noisy-trace": replace(WORKLOADS["noisy-trace"], flags={"m": "4"}),
    "pq-check": replace(WORKLOADS["pq-check"], flags={"m": "2"}),
}

# The phase-grid run at CLI defaults (no --workers, BLAS threads not
# pinned) that keeps the oversubscription defect visible. A smaller grid
# than the workload's, because that configuration has taken 4x to 20x
# longer than the pinned one.
DEFAULT_THREADS_GRID = {"delta_steps": "8", "tau_steps": "8"}
TINY_DEFAULT_THREADS_GRID = {"delta_steps": "3", "tau_steps": "3"}
