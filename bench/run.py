"""ddchain benchmark: run the real CLI as users do, check every output
against an independent oracle, and print end-to-end or per-layer metrics.

    python3 bench/run.py --workload phase-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a ddchain checkout; the package is loaded from
``src/``. Lines before the last record the environment and every metric
by name and unit. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. An
invocation fails when it exits non-zero, times out, or fails its output
check; ``failed / attempted`` is the failed fraction.

``--trace 0`` repeats the workload's CLI invocation for ``--seconds``
seconds with BLAS pinned to one thread and ``--workers`` at most 2.
Between invocations it times fresh interpreters that only import the CLI
and parse the workload's flags (``setup_s``). It reports medians.

``--trace 1`` runs the workload untraced at 2 and at 1 workers, once
traced in-process (``bench/tracer.py``), once with two OpenBLAS threads
(the byte-identity diagnostic), and a small phase grid at CLI defaults
(the oversubscription diagnostic), and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_build" / "ddchain-bench"

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUP_PROBES = 5
# A run must end within 180 s; invocations are killed at this deadline.
DEADLINE_S = 170.0
DEFAULT_THREADS_TIMEOUT_S = 90.0
ACCOUNTED_TOLERANCE = 0.05
_SETUP_CODE = (
    "import json, sys\n"
    "import ddchain.cli\n"
    "from ddchain.config import parse_config\n"
    "parse_config(None, json.loads(sys.argv[2]), kind=sys.argv[1])\n"
)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Invocation:
    label: str
    started: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    csv: bytes = b""
    work: int = 0
    ok: bool = False


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict, timeout_s: float, scratch: Path, stamp: bool = False):
    """Run ``argv`` from the checkout root in its own process group.

    Returns (spawn time, wall seconds, rusage of the child and its
    reaped descendants, exit code or None if killed at the timeout,
    stdout, stderr). Times are ``time.perf_counter()`` readings. Output
    is buffered in files under ``scratch``. With ``stamp`` the spawn time
    is passed as ``--spawned-at``.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        if stamp:
            argv = [*argv, "--spawned-at", repr(start)]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        expired = threading.Event()

        def expire():
            expired.set()
            _kill_group(proc.pid)

        timer = threading.Timer(max(timeout_s, 0.1), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = None if expired.is_set() else proc.returncode
        return (start, wall, usage, code, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"))


def _lscpu() -> dict[str, str]:
    if shutil.which("lscpu") is None:
        return {}
    text = subprocess.run(["lscpu"], capture_output=True, text=True,
                          env={**os.environ, "LC_ALL": "C"}, timeout=10).stdout
    return {k.strip(): v.strip() for k, _, v in (line.partition(":") for line in text.splitlines())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=10)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ddchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workers: int, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = _lscpu()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name") or _cpu_model(),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": PINNED,
        "workers": workers,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


class Bench:
    """One benchmark run of one workload: invocations, checks, counts."""

    def __init__(self, workload, seed: int, workdir: Path, base_env: dict, started: float,
                 default_threads_grid: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.base_env = base_env
        self.deadline = started + DEADLINE_S
        self.default_threads_grid = default_threads_grid
        self.workers = min(2, os.cpu_count() or 1)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invocations: list[Invocation] = []
        self.reference: bytes | None = None

    def env(self, pinned: bool = True, **extra: str) -> dict:
        env = {**self.base_env, **(PINNED if pinned else {}), **extra}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return env

    def flags(self, label: str, workers: int | None, grid: dict | None = None) -> dict:
        flags = dict(grid or self.workload.flags, seed=str(self.seed),
                     out=str(self.workdir / f"{label}.csv"))
        if workers is not None:
            flags["workers"] = str(workers)
        return flags

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.append(f"{label}: " + "; ".join(problems[:3]))

    def setup_probe(self) -> float:
        flags = self.flags("setup", self.workers)
        argv = [sys.executable, "-c", _SETUP_CODE, self.workload.kind, json.dumps(flags)]
        _, wall, _, code, _, err = spawn(argv, self.env(), self.remaining(), self.workdir)
        if code != 0:
            raise BenchError(f"set-up probe failed ({code}): {err.strip()[-500:]}")
        return wall

    def invoke(self, label: str, flags: dict, env: dict, workload=None, compare: bool = True,
               traced: bool = False, timeout_s: float | None = None) -> Invocation:
        """Run the CLI once (or, ``traced``, bench/tracer.py) and check its output.

        With ``compare`` the CSV bytes must equal the first compared CSV
        of this run.
        """
        from ddchain.config import ConfigError, parse_config, read_key_value_file

        workload = workload or self.workload
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), workload.kind, json.dumps(flags)]
        else:
            argv = [sys.executable, "-m", "ddchain", workload.kind]
            for key, value in flags.items():
                argv += [f"--{key.replace('_', '-')}", value]
        timeout_s = self.remaining() if timeout_s is None else min(timeout_s, self.remaining())
        start, wall, usage, code, out, err = spawn(argv, env, timeout_s, self.workdir, stamp=traced)
        inv = Invocation(label, start, wall, usage.ru_utime + usage.ru_stime,
                         usage.ru_maxrss / 1024, out)
        self.attempted += 1
        self.invocations.append(inv)
        if code is None:
            self.fail(label, [f"timed out after {wall:.1f} s"])
            return inv
        if code != 0:
            self.fail(label, [f"exit code {code}: {err.strip()[-500:]}"])
            return inv
        csv_path = Path(flags["out"])
        meta_path = Path(str(csv_path) + ".meta")
        try:
            inv.csv = csv_path.read_bytes()
            sidecar = read_key_value_file(str(meta_path))
            cfg = parse_config(str(meta_path))
            problems = [] if cfg == parse_config(None, flags, kind=workload.kind) else [
                "sidecar config differs from the requested flags"]
            problems += workload.check(cfg, inv.csv, sidecar, self.seed)
        except (OSError, ValueError, ConfigError) as exc:
            problems = [f"unreadable output: {exc}"]
        if compare and not problems:
            if self.reference is None:
                self.reference = inv.csv
            elif inv.csv != self.reference:
                problems.append("CSV bytes differ from this run's first CSV")
        if problems:
            self.fail(label, problems)
            return inv
        inv.work = workload.count_work(inv.csv)
        inv.ok = True
        return inv

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics: medians over repeated pinned invocations.

        An untimed set-up probe first fills the page cache and writes the
        bytecode. Every other timed invocation is followed by a timed
        set-up probe, so both medians sample the host over the same
        stretch of time. The run stops before the next invocation would
        pass ``seconds``.
        """
        start = time.perf_counter()
        self.setup_probe()
        setup: list[float] = []
        runs: list[Invocation] = []
        while True:
            runs.append(self.invoke(f"run{len(runs)}", self.flags("run", self.workers), self.env()))
            if len(runs) % 2:
                setup.append(self.setup_probe())
            elapsed = time.perf_counter() - start
            per_run = elapsed / len(runs)
            if elapsed + per_run > seconds or self.remaining() < 2 * per_run + 5:
                break
        while len(setup) < MIN_SETUP_PROBES:
            setup.append(self.setup_probe())
        good = [r for r in runs if r.ok] or runs
        wall = statistics.median(r.wall_s for r in good)
        return {
            "wall_s": (wall, "s"),
            "work_per_s": (max(r.work for r in good) / wall, "1/s"),
            "cpu_s": (statistics.median(r.cpu_s for r in good), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    def trace(self) -> dict:
        """Per-layer metrics from one traced run plus the diagnostics."""
        import tracer
        from workloads import WORKLOADS

        pinned = self.env()
        wide = self.invoke("workers", self.flags("workers", self.workers), pinned)
        one = self.invoke("one-worker", self.flags("one-worker", 1), pinned)
        traced_flags = self.flags("traced", 1)
        traced = self.invoke("traced", traced_flags, pinned, traced=True)
        blas2 = self.invoke("blas2", self.flags("blas2", 1),
                            self.env(OPENBLAS_NUM_THREADS="2"), compare=False)
        defaults = self.invoke("defaults", self.flags("defaults", None, self.default_threads_grid),
                               self.env(pinned=False), workload=WORKLOADS["phase-grid"],
                               compare=False, timeout_s=DEFAULT_THREADS_TIMEOUT_S)

        report, teardown = {}, 0.0
        if traced.ok:
            last = json.loads(traced.stdout.splitlines()[-1])
            report, teardown = last["spans"], traced.started + traced.wall_s - last["ended_at"]
        metrics = tracer.layer_metrics(report)
        _, cell_s = tracer.cells(report)
        # Layer self times plus the harness's own time (start-up, imports,
        # wrapping, reporting, interpreter teardown) against the wall time.
        accounted = (sum(tracer.layer_self_s(report).values()) + teardown) / traced.wall_s
        if traced.ok and abs(accounted - 1.0) > ACCOUNTED_TOLERANCE:
            self.fail("traced", [f"layer self times plus harness time cover {accounted:.3f} "
                                 "of the traced wall time"])
        written = len(traced.csv) + len(Path(traced_flags["out"] + ".meta").read_bytes()) \
            if traced.ok else 0
        cli_s = metrics["cli.self_s"][0]
        metrics.update({
            "sweeps.scaling_eff": (cell_s / (self.workers * wide.wall_s), "ratio"),
            "sweeps.default_threads_wall_s": (defaults.wall_s, "s"),
            "sweeps.default_threads_cpu_s": (defaults.cpu_s, "s"),
            "cli.bytes_written": (written, "B"),
            "cli.mb_per_s": (written / 1e6 / cli_s if cli_s else 0.0, "MB/s"),
            "trace.overhead_frac": (traced.wall_s / one.wall_s - 1.0, "ratio"),
            "trace.accounted_frac": (accounted, "ratio"),
            "determinism.blas_threads_identical": (
                float(blas2.ok and self.reference is not None and blas2.csv == self.reference),
                "bool"),
        })
        return metrics


def result_line(bench: Bench, metrics: dict) -> dict:
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def pin_blas() -> dict:
    """Pin this process's BLAS to one thread; call before numpy loads.

    Returns the environment without the thread settings, which children
    start from.
    """
    base = {key: value for key, value in os.environ.items() if key not in PINNED}
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    return base


def run(workload, seed: int, seconds: float, trace: bool, base_env: dict,
        default_threads_grid: dict) -> tuple[dict, dict, Bench]:
    """One benchmark run; returns (environment, result, bench)."""
    started = time.perf_counter()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    bench = Bench(workload, seed, workdir, base_env, started, default_threads_grid)
    try:
        env = environment(bench.workers, seed)
        if trace:
            metrics = bench.trace()
        else:
            metrics = bench.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return env, result_line(bench, metrics), bench


def main(argv=None) -> int:
    if not (SRC / "ddchain" / "cli.py").is_file():
        print(f"bench: no ddchain sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    base_env = pin_blas()
    # Turn SIGTERM into SystemExit so spawn() kills and reaps the child's
    # process group on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import DEFAULT_THREADS_GRID, WORKLOADS

    parser = argparse.ArgumentParser(description="ddchain benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**64 and seconds > 0")

    try:
        env, result, bench = run(WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), base_env, DEFAULT_THREADS_GRID)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for inv in bench.invocations:
        print(f"invocation {inv.label} ok={inv.ok} wall_s={inv.wall_s:.3f} cpu_s={inv.cpu_s:.3f} "
              f"rss_mb={inv.rss_mb:.1f} work={inv.work}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    for name, metric in result["metrics"].items():
        note = f" ({bench.workload.work_unit} per second)" if name == "work_per_s" else ""
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
