"""Golden outputs: small configs of every kind, with the CSV and sidecar each
wrote, under tests/golden/. Each CSV is regenerated in process from its sidecar.
The header, the row count, the integer and axis columns and the positions of
``nan`` must match exactly, and every other value to 1e-12 absolute; the worst
difference per file is printed. A change that moves a value past the bound
regenerates the file it moves and says what moved and by how much."""

from pathlib import Path

import numpy as np
import pytest

from ddchain.cli import main, sidecar_path
from ddchain.config import parse_config

GOLDEN = Path(__file__).parent / "golden"
EXACT = {"n", "t", "delta", "tau", "ratio", "psi"}  # the axis and integer columns
BOUND = 1e-12


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("csv", sorted(GOLDEN.glob("*.csv")), ids=lambda path: path.stem)
def test_golden_output_regenerates_within_bound(tmp_path, csv):
    meta = sidecar_path(str(csv))
    out = tmp_path / csv.name
    assert main([parse_config(meta).kind, "--config", meta, "--out", str(out)]) == 0
    (header, rows), (want_header, want_rows) = read_csv(out), read_csv(csv)
    assert header == want_header
    assert len(rows) == len(want_rows)
    worst = 0.0
    for name, got, want in zip(header, zip(*rows), zip(*want_rows)):
        if name in EXACT:
            assert got == want, name
            continue
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        finite = ~np.isnan(want)
        worst = max(worst, float(np.abs(got[finite] - want[finite]).max(initial=0.0)))
    print(f"{csv.name}: worst |delta| {worst:.3e}")
    assert worst <= BOUND
