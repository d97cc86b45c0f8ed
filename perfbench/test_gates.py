"""Self-tests of the benchmark's gates, accounting and hooks.

    python3 -m pytest -q perfbench/test_gates.py

Corrupted outputs must count as failed instances, never as timed results.
"""

from __future__ import annotations

import csv
import dataclasses
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hooks import Tracer  # noqa: E402
from run import Tally  # noqa: E402
from workloads import CK_AND_EED_SEED, WORKLOADS, check_reports, mod, report_key  # noqa: E402


def drift_mass1(path: Path, row: int, rel: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("mass1")
    rows[row + 1][col] = repr(float(rows[row + 1][col]) * (1.0 + rel))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_drifted_mass_in_csv_is_a_failed_instance(tmp_path):
    wl = WORKLOADS["simulate-ref"](CK_AND_EED_SEED, tmp_path)
    wl.setup()
    tally = Tally()
    assert tally.attempt(wl) is not None  # the real output passes

    real = wl.instance

    def corrupted():
        rc = real()
        drift_mass1(wl.csv, row=40, rel=1e-9)
        return rc

    wl.instance = corrupted
    assert tally.attempt(wl) is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_missing_csv_is_a_failed_instance(tmp_path):
    wl = WORKLOADS["simulate-ref"](CK_AND_EED_SEED, tmp_path)
    wl.setup()
    wl.instance = lambda: 0  # reports success but writes nothing
    tally = Tally()
    assert tally.attempt(wl) is None
    assert tally.failed == 1


def test_perturbed_pin_is_a_failed_instance(tmp_path):
    wl = WORKLOADS["ineq-lab"](CK_AND_EED_SEED, tmp_path)
    wl.setup()
    tally = Tally()
    passed = tally.attempt(wl)
    assert passed is not None

    real = wl.instance

    def perturbed():
        reports = real()
        rep = reports[1]
        reports[1] = dataclasses.replace(rep, min_ratio=rep.min_ratio * (1.0 + 1e-6))
        return reports

    wl.instance = perturbed
    assert tally.attempt(wl) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    # away from the pinned seed, a repeat must still equal the first instance
    reports = passed[1]
    reference = [report_key(r) for r in reports]
    assert not check_reports(reports, 7, reference)
    shifted = [dataclasses.replace(r, max_ratio=r.max_ratio * 2.0) for r in reports]
    assert check_reports(shifted, 7, reference)


def test_raising_instance_is_a_failed_instance(tmp_path):
    wl = WORKLOADS["vacuum-fine"](CK_AND_EED_SEED, tmp_path)
    wl.setup()

    def boom():
        raise RuntimeError("dt underflow")

    wl.instance = boom
    tally = Tally()
    assert tally.attempt(wl) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_hooks_restore_names_and_tolerate_missing_ones(monkeypatch, tmp_path):
    WORKLOADS["simulate-ref"](CK_AND_EED_SEED, tmp_path).setup()
    solver = mod("solver")
    original = solver.cho_solve_banded
    monkeypatch.delattr(solver, "laplacian_neumann")
    tracer = Tracer()
    with tracer.hooked():
        assert solver.cho_solve_banded is not original
    assert solver.cho_solve_banded is original
    assert not hasattr(solver, "laplacian_neumann")
    counts = tracer.counts()
    assert counts["grid.laplacian_calls"] is None
    assert counts["solver.fallbacks"] is None
    assert counts["solver.banded_solves"] == 0
    assert tracer.times(1)["grid.laplacian_us"] is None


def test_without_source_tree_exits_nonzero_without_result(tmp_path):
    here = Path(__file__).resolve().parent
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for f in here.glob("*.py"):
        (dest / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((here.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ineq-lab", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
