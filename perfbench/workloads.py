"""The benchmark's workloads: how each builds its inputs, runs one instance
and checks that instance's output.

A workload object is created with the run's seed and a scratch directory
inside the checkout.  ``setup()`` imports the package and builds the inputs
through its public API (this is what ``setup_s`` times in a fresh process),
``instance()`` runs one timed instance, and ``check(output)`` returns the
list of problems with that output; an empty list means the instance passed
its correctness gate.  The gates are written here, independently of the
package's own checkers, so a broken checker cannot pass a broken run.

Modules of the package are always resolved through
``sys.modules["revreact.<mod>"]``: the package re-exports functions over some
submodule names (``revreact.entropy`` is a function there).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Values recorded at the commit that introduced the benchmark.
CK_AND_EED_SEED = 2024
EED_CONFIGS = (  # ((alpha, beta, gamma), (m1, m2), pinned min D/E_rel at seed 2024)
    ((1, 1, 1), (2, 2), 1927.5712061189856),
    ((2, 1, 1), (2, 1), 1842.1805760548427),
    ((1, 2, 3), (4, 3), 2338.3682906992217),
)
CK_CONFIG = ((1, 1, 1), (2, 2), 0.5499516443391989)
PIN_RTOL = 1e-9
VACUUM_E_REL = 9.814971560598261e-02
VACUUM_E_REL_RTOL = 1e-6
REF_CSV_SHA256 = "3415e7b9a4fa5bca9dbcfeb697a0eba54b5f6d320a9d5c42bf7a269ac01b1e79"

MASS_RTOL = 1e-11
ENTROPY_SLACK = 1e-10
TERMINAL_L1 = 1e-6


class SetupError(RuntimeError):
    """The checkout does not hold a usable revreact source tree."""


def import_revreact():
    """Import revreact from the checkout's ``src`` tree, never an installed copy."""
    if not (SRC / "revreact" / "__init__.py").is_file():
        raise SetupError(f"no revreact source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import revreact

    if Path(revreact.__file__).resolve().parent != SRC / "revreact":
        raise SetupError(f"imported revreact from {revreact.__file__}, not {SRC}")
    return revreact


def mod(name: str):
    """The package's submodule ``revreact.<name>``."""
    return sys.modules[f"revreact.{name}"]


# ---------------------------------------------------------------------------
# gates


def check_rows(rows: list[dict], t_end: float) -> list[str]:
    """Run invariants on diagnostics rows given as column -> float dicts.

    Times increase and reach t_end, both weighted masses stay within
    MASS_RTOL of the first row, the entropy never increases by more than
    rounding, and no recorded concentration is negative.
    """
    if len(rows) < 2:
        return [f"{len(rows)} diagnostics rows"]
    problems = []
    m1, m2 = rows[0]["mass1"], rows[0]["mass2"]
    prev_t, prev_e = -math.inf, math.inf
    for i, row in enumerate(rows):
        if not row["t"] > prev_t:
            problems.append(f"row {i}: time {row['t']!r} not increasing")
        if not abs(row["mass1"] - m1) <= MASS_RTOL * abs(m1):
            problems.append(f"row {i}: mass1 drifted to {row['mass1']!r}")
        if not abs(row["mass2"] - m2) <= MASS_RTOL * abs(m2):
            problems.append(f"row {i}: mass2 drifted to {row['mass2']!r}")
        if not row["E"] <= prev_e + ENTROPY_SLACK * (1.0 + abs(prev_e)):
            problems.append(f"row {i}: entropy increased to {row['E']!r}")
        if not row["min_conc"] >= 0.0:
            problems.append(f"row {i}: negative concentration {row['min_conc']!r}")
        prev_t, prev_e = row["t"], row["E"]
    if not math.isclose(rows[-1]["t"], t_end, rel_tol=1e-12):
        problems.append(f"run stopped at t={rows[-1]['t']!r}, not t_end={t_end!r}")
    return problems


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in rec.items()} for rec in csv.DictReader(fh)]


def check_simulate_csv(path: Path, t_end: float) -> list[str]:
    """Gate of one ``revreact simulate`` output: invariants and terminal L1."""
    try:
        rows = read_csv(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable CSV {path.name}: {exc!r}"]
    try:
        problems = check_rows(rows, t_end)
        last = rows[-1] if rows else None
        l1 = last["l1_u"] + last["l1_v"] + last["l1_w"] if last else math.inf
    except KeyError as exc:
        return [f"CSV lacks column {exc}"]
    if not l1 < TERMINAL_L1:
        problems.append(f"terminal L1 distance {l1!r} >= {TERMINAL_L1}")
    return problems


def report_key(rep) -> tuple:
    """The fields of a RatioReport that a same-seed repeat must reproduce."""
    return tuple(
        getattr(rep, f, None)
        for f in ("n_samples", "min_ratio", "max_ratio", "argmin", "argmax",
                  "constant_estimate", "n_skipped")
    )


def check_reports(reports: list, seed: int, reference: list | None) -> list[str]:
    """Gate of one inequality-lab instance.

    Every min_ratio is finite and > 0; at the pinned seed each equals its pin
    to PIN_RTOL; and the reports equal those of the run's first instance.
    """
    pins = [c[2] for c in EED_CONFIGS] + [CK_CONFIG[2]]
    if len(reports) != len(pins):
        return [f"{len(reports)} reports, expected {len(pins)}"]
    problems = []
    for i, (rep, pin) in enumerate(zip(reports, pins)):
        r = rep.min_ratio
        if not (math.isfinite(r) and r > 0):
            problems.append(f"report {i}: min_ratio {r!r} not finite and > 0")
        if seed == CK_AND_EED_SEED and not math.isclose(r, pin, rel_tol=PIN_RTOL):
            problems.append(f"report {i}: min_ratio {r!r} != pin {pin!r}")
    if reference is not None and [report_key(r) for r in reports] != reference:
        problems.append("reports differ from the first instance at the same seed")
    return problems


# ---------------------------------------------------------------------------
# workloads


class SimulateRef:
    """The reference relaxation run through in-process ``revreact simulate``."""

    name = "simulate-ref"
    why = ("reference relaxation run via the CLI: per-step overhead bound, "
           "no fallbacks; the paper's headline experiment")
    t_end = 20.0
    config = (
        "alpha = 1\nbeta = 1\ngamma = 1\n"
        "d1 = 1\nd2 = 2\nd3 = 3\n"
        "n_cells = 200\n"
        "u_profile = cosine-bump\nu_amplitude = 2\n"
        "v_profile = homogeneous\nv_amplitude = 2\n"
        "w_profile = homogeneous\nw_amplitude = 0\n"
        "dt_init = 1e-2\nt_end = 20\nrecord_every = 20\n"
    )

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.conf = scratch / "simulate-ref.conf"
        self.csv = scratch / "simulate-ref.csv"

    def setup(self) -> None:
        import_revreact()
        import revreact.cli  # noqa: F401  (the simulate command pays this import)

        self.conf.write_text(self.config, encoding="utf-8")
        self.argv = ["simulate", "--config", str(self.conf), "--out", str(self.csv)]

    def prepare(self) -> None:
        # a CSV left by an earlier instance must not pass this one's gate
        with contextlib.suppress(FileNotFoundError):
            self.csv.unlink()

    def instance(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return mod("cli").main(self.argv)

    def check(self, rc) -> list[str]:
        problems = [] if rc == 0 else [f"simulate exit code {rc}"]
        return problems + check_simulate_csv(self.csv, self.t_end)

    def counts(self, rc) -> dict:
        data = self.csv.read_bytes()
        return {
            "cli.csv_bytes": len(data),
            "cli.csv_identical": int(hashlib.sha256(data).hexdigest() == REF_CSV_SHA256),
        }


class VacuumFine:
    """A fine-grid run from vacuum blocks through the library's ``run``."""

    name = "vacuum-fine"
    why = ("2000 cells from vacuum blocks, alpha+beta=gamma: per-element work, "
           "direct-solve fallbacks, heavier diagnostics and kept states")
    t_end = 1.0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> None:
        rr = import_revreact()
        import numpy as np

        self.params = rr.ReactionParams(2, 1, 3, d1=1.0, d2=0.1, d3=0.01)
        x = rr.Grid1D(2000).cell_centers()
        self.s0 = rr.State(
            0.0, np.where(x < 0.5, 2.0, 0.0), np.where(x >= 0.5, 2.0, 0.0), np.zeros_like(x)
        )
        self.cfg = rr.StepConfig(dt_init=1e-3, t_end=self.t_end, record_every=5)

    def prepare(self) -> None:
        pass

    def instance(self):
        return mod("solver").run(self.params, self.s0, self.cfg)

    def check(self, traj) -> list[str]:
        fields = ("t", "mass1", "mass2", "E", "E_rel", "min_conc")
        rows = [{f: float(getattr(r, f)) for f in fields} for r in traj.rows]
        problems = check_rows(rows, self.t_end)
        e_rel = rows[-1]["E_rel"] if rows else math.nan
        if not math.isclose(e_rel, VACUUM_E_REL, rel_tol=VACUUM_E_REL_RTOL):
            problems.append(f"terminal E_rel {e_rel!r} != recorded {VACUUM_E_REL!r}")
        return problems

    def counts(self, traj) -> dict:
        return {}


class IneqLab:
    """EED estimates on three configs plus one Csiszar-Kullback estimate."""

    name = "ineq-lab"
    why = ("1000-sample EED and CK estimates on 64 cells: sampler and estimator "
           "only, never the step loop; the control for solver changes")
    n_samples = 1000
    n_cells = 64

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.reference = None

    def setup(self) -> None:
        rr = import_revreact()
        self.grid = rr.Grid1D(self.n_cells)
        self.eed = [(rr.ReactionParams(*a), rr.MassPair(*m)) for a, m, _ in EED_CONFIGS]
        a, m, _ = CK_CONFIG
        self.ck = (rr.ReactionParams(*a), rr.MassPair(*m))

    def prepare(self) -> None:
        pass

    def instance(self):
        lab = mod("ineqlab")
        # no `threads` keyword: the estimators' defaults are single-threaded
        reports = [
            lab.estimate_eed_constant(p, m, self.grid, self.n_samples, seed=self.seed)
            for p, m in self.eed
        ]
        p, m = self.ck
        reports.append(
            lab.verify_csiszar_kullback(p, m, self.grid, self.n_samples, seed=self.seed)
        )
        return reports

    def check(self, reports) -> list[str]:
        problems = check_reports(reports, self.seed, self.reference)
        if not problems and self.reference is None:
            self.reference = [report_key(r) for r in reports]
        return problems

    def counts(self, reports) -> dict:
        return {"ineqlab.reported": sum(r.n_samples for r in reports)}


WORKLOADS = {w.name: w for w in (SimulateRef, VacuumFine, IneqLab)}


def scratch_dir(tag: str) -> Path:
    """A fresh directory for one process's files, inside the checkout."""
    path = ROOT / ".bench_build" / "perfbench" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
