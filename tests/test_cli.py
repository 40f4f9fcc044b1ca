import dataclasses
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ddchain
from ddchain.cli import _build_parser, _write_outputs, main, sidecar_path
from ddchain.config import KINDS, RunConfig, parse_config

FLOAT_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("kind", KINDS)
def test_every_config_field_is_a_flag(kind):
    parser = _build_parser()
    for field in dataclasses.fields(RunConfig):
        if field.name == "kind":
            continue
        flag = "--" + field.name.replace("_", "-")
        namespace = parser.parse_args([kind, flag, "7"])
        assert getattr(namespace, field.name) == "7", flag


def per_cell_csv(columns):
    """The CSV text as the writer once built it, one formatted cell at a time."""
    def cells(column):
        fmt = str if np.issubdtype(column.dtype, np.integer) else "{:.16e}".format
        return list(map(fmt, column.tolist()))
    rows = [",".join(row) for row in zip(*map(cells, columns.values()))]
    return "\n".join([",".join(columns), *rows]) + "\n"


def test_csv_rows_match_per_cell_formatting(tmp_path):
    floats = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324, -1.0 / 3, 0.1, 2.0 ** 60]
    columns = {
        "n": np.array([-7, 0, 2, 130, 2 ** 62, 1, 2, 3, 4, 5, 6]),
        "x": np.array(floats),
        "y": -np.array(floats[::-1]),
    }
    out = tmp_path / "w.csv"
    cfg = parse_config(kind="size", overrides={"out": str(out)})
    _write_outputs(cfg, columns, {"version": ddchain.__version__}, 0.0)
    assert out.read_bytes() == per_cell_csv(columns).encode()


def test_kernel_run_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "k.csv"
    assert run_cli("kernel", "--n", "130", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["t", "re_g", "im_g"]
    assert len(rows) == 501  # t_max=5.0 at dt=0.01
    for cell in rows[3]:
        assert FLOAT_RE.match(cell), cell
    meta = (tmp_path / "k.csv.meta").read_text(encoding="utf-8")
    lifetime = float(re.search(r"result\.lifetime=(\S+)", meta).group(1))
    assert lifetime == pytest.approx(1.87, abs=0.05)
    # A trace too short for the hold window has no lifetime, and its sidecar
    # still regenerates the same bytes.
    short, again = tmp_path / "short.csv", tmp_path / "again.csv"
    assert run_cli("kernel", "--t-max", "1", "--out", str(short)) == 0
    meta = Path(sidecar_path(str(short))).read_text(encoding="utf-8")
    assert re.search(r"^result\.lifetime=nan$", meta, re.MULTILINE)
    assert run_cli("kernel", "--config", sidecar_path(str(short)), "--out", str(again)) == 0
    assert again.read_bytes() == short.read_bytes()


def test_zero_kernel_has_no_lifetime(tmp_path):
    # At J = 0 the kernel is zero everywhere: nothing decays, so no lifetime.
    out = tmp_path / "k0.csv"
    assert run_cli("kernel", "--j", "0", "--n", "10", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert {float(cell) for row in rows for cell in row[1:]} == {0.0}
    meta = Path(sidecar_path(str(out))).read_text(encoding="utf-8")
    assert re.search(r"^result\.lifetime=nan$", meta, re.MULTILINE)


def test_sidecar_reruns_to_identical_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("size", "--n-values", "10,14,19", "--m", "8", "--out", str(out1)) == 0
    cfg = parse_config(sidecar_path(str(out1)))
    assert cfg.kind == "size" and cfg.n_values == (10, 14, 19)
    assert run_cli("size", "--config", sidecar_path(str(out1)), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_workers_flag_keeps_bytes_and_legacy_key_is_ignored(tmp_path, usable_cpus):
    usable_cpus(4)
    args = ["delta-tau", "--n", "16", "--m", "8",
            "--delta-min", "0.2", "--delta-max", "1.4", "--delta-steps", "4",
            "--tau-min", "0.3", "--tau-max", "1.5", "--tau-steps", "4"]
    out1 = tmp_path / "plain.csv"
    out2 = tmp_path / "w3.csv"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--workers", "3", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # --workers is a run option: the sidecar records the threads the 10 feasible
    # cells ran on (a slab of 8 and one of 2), not a workers key.
    meta = Path(sidecar_path(str(out2)))
    assert "workers=" not in meta.read_text(encoding="utf-8")
    assert re.search(r"^result\.threads=2$", meta.read_text(encoding="utf-8"), re.MULTILINE)
    assert "result.threads=1\n" in Path(sidecar_path(str(out1))).read_text(encoding="utf-8")
    # An old sidecar that holds the retired key still reruns.
    meta.write_text(meta.read_text(encoding="utf-8") + "workers=4\n", encoding="utf-8")
    assert run_cli("delta-tau", "--config", str(meta), "--out", str(out1)) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-1", "1.5", "abc", "", "²"])
def test_workers_must_be_a_positive_integer(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    assert run_cli("delta-tau", "--delta-steps", "2", "--tau-steps", "2", "--m", "1",
                   "--workers", workers, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"ddchain: error: --workers must be a positive integer, got {workers!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_failing_threaded_grid_exits_1_and_joins_its_threads(tmp_path, capsys, usable_cpus):
    # E t overflows in every slab of the 15 feasible cells: both threads fail.
    usable_cpus(2)
    before = threading.active_count()
    assert run_cli("delta-tau", "--psi", "1.7e308", "--n", "5", "--m", "2",
                   "--delta-steps", "4", "--tau-steps", "6", "--workers", "2",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err == "ddchain: error: a spectral phase E t overflows\n"
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == before


def test_blas_thread_count_does_not_change_csv(tmp_path):
    src = str(Path(ddchain.__file__).resolve().parents[1])
    runs = [
        (["delta-tau", "--delta-steps", "18", "--tau-steps", "18", "--m", "4"], 18 * 18),
        (["ratio-psi", "--ratio-steps", "6", "--psi-steps", "7", "--m", "6"], 6 * 7),
        # A noisy batched sweep changes basis through the sites every period.
        (["delta-tau", "--n", "16", "--m", "6", "--eta", "0.1",
          "--delta-steps", "4", "--tau-steps", "4"], 4 * 4),
        # The trace's per-period noise variant takes a new basis every period.
        (["trace", "--m", "12"], 13),
        (["size", "--n-values", "20,40,60,80,100,130", "--m", "8"], 6),
        (["kernel"], 501),
        # The Volterra history sums and block solves must not go through threaded BLAS.
        (["pq-check", "--m", "12"], 15601),
        # At zero strength the direct trace samples every segment of the train.
        (["pq-check", "--psi", "0", "--m", "12"], 15601),
    ]
    for args, rows in runs:
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{args[0]}-threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run(
                [sys.executable, "-m", "ddchain", *args, "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == rows + 1, args[0]
        assert outputs[0] == outputs[1], args[0]


def test_blas_thread_count_does_not_change_chebyshev_trace_column(tmp_path):
    # At N = 500 dstevd's threaded merge changes the eigenvector bits of the
    # spectral variants with the thread count; the per-period noise variant
    # steps by tridiagonal matvecs only, so its column must not move.
    src = str(Path(ddchain.__file__).resolve().parents[1])
    columns = []
    for threads in ("1", "2"):
        out = tmp_path / f"trace-threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "ddchain", "trace", "--m", "4", "--n", "500", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        header, rows = read_rows(out)
        columns.append([row[header.index("f_period_noise")] for row in rows])
    assert len(columns[0]) == 5
    assert columns[0] == columns[1]


# Runs small spectral kinds in-process and lists the scipy modules then
# loaded, then runs a small pq-check and says whether it loaded scipy.linalg.
SCIPY_MODULES_CHILD = """
import sys
from ddchain.cli import main
out = sys.argv[1]
for args in (["trace", "--n", "8", "--m", "2"], ["kernel", "--n", "8"],
             ["delta-tau", "--n", "8", "--m", "2", "--delta-steps", "2", "--tau-steps", "2"]):
    assert main([*args, "--out", out]) == 0, args
print("loaded:", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
assert main(["pq-check", "--m", "2", "--out", out]) == 0
print("loaded:", "scipy.linalg" in sys.modules)
"""


def test_cli_import_leaves_scipy_out(tmp_path):
    # Importing scipy.linalg adds about 0.2 s to every run's start-up. The
    # eigensolver goes through NumPy's own LAPACK, and the Chebyshev step
    # computes its Bessel coefficients in NumPy, so only pq-check's
    # Volterra solve, which needs a triangular solve, loads scipy.
    src = str(Path(ddchain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SCIPY_MODULES_CHILD, str(tmp_path / "x.csv")],
                            env=env, check=True, capture_output=True, text=True, timeout=120)
    loaded = [line for line in result.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: []", "loaded: True"]


# Runs the CLI in-process, then prints this process's own peak RSS (kB) last.
PEAK_RSS_CHILD = """
import sys
from ddchain.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_pq_check_peak_memory_is_bounded(tmp_path):
    # Whole (time steps x N) exponential blocks would take this run to about
    # 220 MB; sampling in blocks of fixed size keeps it near 80 MB. The child
    # reports its own VmHWM: a child's ru_maxrss starts at its parent's RSS,
    # so it would read this test process's peak instead.
    src = str(Path(ddchain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "pq-check", "--m", "32",
         "--out", str(tmp_path / "pq.csv")],
        env=env, capture_output=True, text=True, check=True,
    )
    peak_kb = int(child.stdout.split()[-1])
    assert peak_kb / 1024 < 150


def test_delta_tau_emits_nan_sentinels(tmp_path, capsys):
    out = tmp_path / "dt.csv"
    assert run_cli(
        "delta-tau", "--n", "10", "--m", "4",
        "--delta-min", "0.5", "--delta-max", "1.5", "--delta-steps", "2",
        "--tau-min", "0.4", "--tau-max", "1.0", "--tau-steps", "2",
        "--out", str(out),
    ) == 0
    header, rows = read_rows(out)
    assert header == ["delta", "tau", "fidelity"]
    fids = [row[2] for row in rows]
    # delta=0.5 > tau=0.4, delta=1.5 > both taus.
    assert fids.count("nan") == 3
    # The stdout line lists the sidecar's result keys but the version.
    meta = Path(sidecar_path(str(out))).read_text(encoding="utf-8")
    results = re.findall(r"^result\.(\w+=\S+)$", meta, re.MULTILINE)
    assert results[0].startswith("version=") and results[1:3] == ["cells=4", "infeasible_cells=3"]
    assert capsys.readouterr().out == (
        f"delta-tau: wrote {out} and {out}.meta ({', '.join(results[1:])})\n")


def test_size_csv_has_integer_sizes(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("size", "--n-values", "8,12", "--m", "4", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["n", "fidelity_free", "fidelity_controlled"]
    assert [row[0] for row in rows] == ["8", "12"]


def test_trace_csv_columns(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("trace", "--n", "12", "--m", "5", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["t", "f_free", "f_const", "f_broadening", "f_static_random", "f_period_noise"]
    assert len(rows) == 6
    assert all(float(cell) == 1.0 for cell in rows[0][1:])


def test_pq_check_reports_max_error(tmp_path, capsys):
    out = tmp_path / "pq.csv"
    assert run_cli("pq-check", "--n", "5", "--m", "3", "--out", str(out)) == 0
    header, rows = read_rows(out)
    assert header == ["t", "abs_p", "fidelity_direct", "abs_error"]
    meta = (tmp_path / "pq.csv.meta").read_text(encoding="utf-8")
    max_err = float(re.search(r"result\.max_abs_error=(\S+)", meta).group(1))
    assert max_err <= 1e-4
    errors = np.array([float(row[3]) for row in rows])
    assert errors.max() == pytest.approx(max_err, rel=1e-12)
    assert "max_abs_error" in capsys.readouterr().out


def test_pq_check_runs_when_dt_does_not_divide_the_train(tmp_path):
    # m * tau = 2.6 and round(2.6 / 0.003) = 867: the grid ends at 2.601,
    # half a step short of one more, just past the train's end.
    out = tmp_path / "pq.csv"
    args = ("pq-check", "--n", "8", "--m", "2", "--dt", "0.003", "--out", str(out))
    assert run_cli(*args) == 0
    _, rows = read_rows(out)
    assert len(rows) == 868
    assert float(rows[-1][0]) == pytest.approx(2.601)


def test_pq_check_runs_on_a_one_point_grid(tmp_path):
    # m * tau = 1.3 is under dt / 2, so the grid is t = 0 alone.
    out = tmp_path / "pq.csv"
    assert run_cli("pq-check", "--dt", "10", "--m", "1", "--out", str(out)) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0


def test_pq_check_runs_with_dt_above_hold(tmp_path):
    out = tmp_path / "pq.csv"
    args = ("pq-check", "--n", "10", "--psi", "2.0", "--tau", "1.2", "--delta", "0.6",
            "--m", "2", "--dt", "0.6", "--out", str(out))
    assert run_cli(*args) == 0
    _, rows = read_rows(out)
    assert [float(row[0]) for row in rows] == pytest.approx([0.0, 0.6, 1.2, 1.8, 2.4])
    assert max(float(row[3]) for row in rows) <= 0.1


def test_failed_sidecar_write_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    (tmp_path / "k.csv.meta").mkdir()
    assert run_cli("kernel", "--n", "10", "--out", str(out)) == 1
    assert "error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.csv.meta"]


def test_failed_csv_move_leaves_no_sidecar(tmp_path, capsys, monkeypatch):
    # The sidecar is moved into place first; when the CSV cannot follow, it is taken back out.
    out = tmp_path / "k.csv"
    real_replace = os.replace

    def replace(src, dst):
        if dst == str(out):
            raise OSError("cannot move the CSV into place")
        real_replace(src, dst)

    monkeypatch.setattr("ddchain.cli.os.replace", replace)
    assert run_cli("kernel", "--n", "5", "--out", str(out)) == 1
    assert capsys.readouterr().err == "ddchain: error: cannot move the CSV into place\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failure, code, written", [
    ("none", 0, ["s.csv", "s.csv.meta"]), ("sidecar move", 1, ["s.csv.meta"]), ("csv move", 1, [])],
    ids=["success", "sidecar move fails", "csv move fails"])
def test_files_beside_out_keep_their_bytes(tmp_path, capsys, monkeypatch, failure, code, written):
    # A run stages in a private directory, so files of the user's at <out>.tmp and
    # <out>.meta.tmp are neither overwritten nor removed, whether it succeeds or fails.
    out = tmp_path / "s.csv"
    neighbours = [tmp_path / "s.csv.tmp", tmp_path / "s.csv.meta.tmp"]
    for path in neighbours:
        path.write_bytes(b"keep\n")
    if failure == "sidecar move":
        (tmp_path / "s.csv.meta").mkdir()
    elif failure == "csv move":
        real_replace = os.replace

        def replace(src, dst):
            if dst == str(out):
                raise OSError("cannot move the CSV into place")
            real_replace(src, dst)

        monkeypatch.setattr("ddchain.cli.os.replace", replace)
    assert run_cli("size", "--n-values", "5", "--m", "2", "--out", str(out)) == code
    assert ("error" in capsys.readouterr().err) == (code != 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        written + ["s.csv.meta.tmp", "s.csv.tmp"])
    for path in neighbours:
        assert path.read_bytes() == b"keep\n"


def test_outputs_keep_the_mode_of_a_plainly_opened_file(tmp_path):
    # The outputs are created with open(), so they get the umask's mode, as any
    # file the user writes there would (mkstemp's would be 0600).
    out = tmp_path / "s.csv"
    assert run_cli("size", "--n-values", "5", "--m", "2", "--out", str(out)) == 0
    with open(tmp_path / "plain", "w", encoding="utf-8"):
        pass
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert stat.S_IMODE(Path(sidecar_path(str(out))).stat().st_mode) == mode


def test_out_in_a_missing_directory_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("ddchain.cli.run", run)
    out = tmp_path / "nodir" / "x.csv"
    assert run_cli("pq-check", "--m", "32", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"ddchain: error: out's directory does not exist: {str(out)!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["d/", "d", ""])
def test_out_that_names_no_file_exits_2_and_keeps_what_was_there(tmp_path, capsys,
                                                                 monkeypatch, out):
    # A directory (or nothing) as out would put the sidecar at <out>.meta and lose
    # whatever file was there when the CSV move failed; it is refused before the run.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    for meta in (tmp_path / ".meta", tmp_path / "d" / ".meta"):
        meta.write_text("keep\n", encoding="utf-8")
    assert run_cli("size", "--n-values", "5", "--m", "2", "--out", out) == 2
    assert capsys.readouterr().err == f"ddchain: error: out must name a file, got {out!r}\n"
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        ".meta", "d", "d/.meta"]
    for meta in (tmp_path / ".meta", tmp_path / "d" / ".meta"):
        assert meta.read_text(encoding="utf-8") == "keep\n"


def test_grid_too_large_for_memory_exits_1(tmp_path, capsys):
    # 5e13 kernel samples cannot be allocated: a clean error, no traceback, no files.
    out = tmp_path / "k.csv"
    assert run_cli("kernel", "--dt", "1e-13", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("ddchain: error: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    # The phases E t overflow.
    ["delta-tau", "--psi", "1.7e308", "--n", "5", "--m", "2",
     "--delta-steps", "2", "--tau-steps", "2"],
    ["size", "--j", "1e308", "--n-values", "5", "--m", "2"],
    ["trace", "--j", "1e308", "--n", "5", "--m", "2"],
    # J^2 overflows: no kernel, so no Volterra solve either.
    ["pq-check", "--j", "1e200", "--n", "5", "--m", "1", "--dt", "0.01"],
    ["kernel", "--j", "1e160", "--n", "5", "--t-max", "0.05"],
    # t_max / dt overflows the time grid.
    ["kernel", "--dt", "5e-324"],
    ["kernel", "--n", "5", "--t-max", "1e308"],
    ["pq-check", "--n", "5", "--m", "1", "--dt", "1e-310"],
    ["pq-check", "--n", "4", "--m", "1", "--tau", "1e308", "--delta", "1"],
])
def test_overflowing_inputs_exit_1_without_files(tmp_path, capsys, args):
    assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err.startswith("ddchain: error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["kernel", "--n", "6", "--j", "1e150", "--t-max", "1e300", "--dt", "1e298", "--hold", "1e299"],
    ["delta-tau", "--n", "6", "--m", "1", "--delta-steps", "2", "--tau-steps", "2",
     "--psi", "1e308"],
    # An eigenvalue rounds to inf, and inf * 0 is NaN at t = 0.
    ["kernel", "--n", "5", "--epsilon", "1.7e308", "--gamma", "1.7e308"],
], ids=["kernel", "delta-tau", "kernel-infinite-eigenvalue"])
def test_overflowing_phase_is_named_before_any_warning(tmp_path, capsys, args):
    # Under the suite's warnings-as-errors a numpy overflow warning fails this too.
    assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err == "ddchain: error: a spectral phase E t overflows\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["delta-tau", "--n", "5", "--m", "2", "--delta-steps", "2", "--tau-steps", "2",
     "--j", "1.7e308", "--gamma", "1e308"],
    ["kernel", "--n", "5", "--j", "1.7e308", "--gamma", "1e308"],
    ["size", "--n-values", "5", "--m", "2", "--psi", "1.7e308", "--epsilon", "1e308",
     "--eta", "0.1"],
], ids=["delta-tau", "kernel", "size"])
def test_overflowing_hamiltonian_is_named_before_any_warning(tmp_path, capsys, args):
    # J + b and offset + psi overflow: the finiteness check is the one report.
    assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err == "ddchain: error: Hamiltonian entries must be finite\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta", ["0", "1.2", "1.3"])
def test_unbounded_noise_trace_runs_without_a_warning(tmp_path, capsys, delta):
    # eta = 1e308 makes the noisy variant's run interval infinite: it steps spectrally.
    out = tmp_path / "t.csv"
    args = ["trace", "--n", "5", "--m", "2", "--eta", "1e308", "--delta", delta]
    assert run_cli(*args, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_rows(out)
    assert np.all(np.isfinite(np.array(rows, dtype=float)))


@pytest.mark.parametrize("args, message", [
    (["size", "--n-values", "99999999999999999999", "--m", "1"],
     "every n_values entry must fit in a signed 64-bit integer"),
    (["trace", "--n", "99999999999999999999", "--m", "1"],
     "n must fit in a signed 64-bit integer, got 99999999999999999999"),
], ids=["size-n_values", "trace-n"])
def test_sizes_past_64_bits_exit_2_without_files(tmp_path, capsys, args, message):
    assert run_cli(*args, "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == f"ddchain: error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kind=size\npsii=8\n", encoding="utf-8")
    assert run_cli("size", "--config", str(cfg)) == 2
    assert "psii" in capsys.readouterr().err


def test_config_with_a_byte_order_mark_runs(tmp_path):
    text = b"kind=size\nn_values=5,8\nm=2\n"
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    for name in ("plain", "bom"):
        assert run_cli("size", "--config", str(tmp_path / f"{name}.cfg"),
                       "--out", str(tmp_path / f"{name}.csv")) == 0
    assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"kind=size\nn_values=5\xff\n")
    assert run_cli("size", "--config", str(cfg), "--out", str(tmp_path / "s.csv")) == 2
    assert capsys.readouterr().err == f"ddchain: error: {cfg}: not UTF-8 text at byte 20\n"
    assert [p.name for p in tmp_path.iterdir()] == ["latin1.cfg"]


def test_out_of_range_flag_exits_2(tmp_path, capsys):
    assert run_cli("trace", "--delta", "1.5", "--tau", "1.0", "--out", str(tmp_path / "x.csv")) == 2
    err = capsys.readouterr().err
    assert "delta" in err


def test_ratio_psi_zero_delta_exits_2(tmp_path, capsys):
    out = tmp_path / "rp.csv"
    assert run_cli("ratio-psi", "--delta", "0", "--out", str(out)) == 2
    assert "delta must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--delta-min", "-0.5"], "delta_min must be >= 0"),
    (["--delta-min", "0", "--tau-min", "0"], "tau_min must be > 0"),
    (["--tau-min", "-1"], "tau_min must be > 0"),
])
def test_delta_tau_axes_that_are_not_pulse_trains_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "dt.csv"
    assert run_cli("delta-tau", *flags, "--delta-steps", "3", "--tau-steps", "3",
                   "--m", "2", "--n", "4", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli("size", "--config", str(tmp_path / "nope.cfg")) == 2
    assert capsys.readouterr().err


def test_no_subcommand_exits_2(capsys):
    assert run_cli() == 2
    capsys.readouterr()
