"""The benchmark's pins and per-layer hooks hold for the package.

``perfbench/hooks.py`` replaces names in the package's submodules, but only
in submodules already in ``sys.modules``; the ``vacuum-fine`` and
``ineq-lab`` workloads import nothing but ``revreact``.  A name that is not
reachable after ``import revreact`` leaves its traced metric null, and a
hooked name the package uses as more than a callable (``State`` in
``revreact.solver`` becomes a plain function) breaks every traced run.

The perfbench modules are loaded by path, so their pins have one copy.
"""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from revreact.cli import load_config, main
from revreact.grid import Grid1D
from revreact.model import MassPair, ReactionParams
from revreact.solver import State, StepConfig, steps

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

PROBE = """
import importlib.util, json, sys
import revreact

spec = importlib.util.spec_from_file_location("hooks", sys.argv[1])
hooks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hooks)
missing = [
    f"revreact.{mod}.{name}"
    for mod, name, *_ in hooks.HOOKS
    if getattr(sys.modules.get(f"revreact.{mod}"), name, None) is None
]
print(json.dumps({"hooks": len(hooks.HOOKS), "missing": missing}))
"""


def test_every_hooked_name_resolves_after_import_revreact():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench" / "hooks.py")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["hooks"] > 0
    assert result["missing"] == []


def test_reference_simulate_csv_matches_the_benchmark_digest(tmp_path):
    workloads = _perfbench("workloads")
    conf = tmp_path / "ref.conf"
    conf.write_text(workloads.SimulateRef.config)
    out = tmp_path / "ref.csv"
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == workloads.REF_CSV_SHA256


def test_traced_run_and_estimate_match_untraced_and_report_strict_json():
    hooks = _perfbench("hooks")
    solver, ineqlab = sys.modules["revreact.solver"], sys.modules["revreact.ineqlab"]
    p = ReactionParams(2, 1, 3, d1=1.0, d2=0.1, d3=0.01)
    x = Grid1D(50).cell_centers()
    s0 = State(0.0, np.where(x < 0.5, 2.0, 0.0), np.where(x >= 0.5, 2.0, 0.0), np.zeros(50))
    cfg = StepConfig(dt_init=1e-3, t_end=0.05, record_every=5)
    untraced = solver.run(p, s0, cfg)

    tracer = hooks.Tracer()
    t0 = perf_counter_ns()
    with tracer.hooked():
        traced = solver.run(p, s0, cfg)
        ineqlab.estimate_eed_constant(p, MassPair(2.0, 1.0), Grid1D(16), 40, seed=3)
    wall_ns = perf_counter_ns() - t0

    assert traced.rows == untraced.rows
    np.testing.assert_array_equal(traced.final.y, untraced.final.y)
    counts = tracer.counts()
    assert 0 < counts["solver.accepted"] <= counts["solver.attempts"]
    assert counts["solver.kept_state_bytes"] == 0
    json.dumps({**counts, **tracer.times(wall_ns)}, allow_nan=False)


def fixed_point_repeats(cfg) -> int:
    """The accepted steps k of cfg's run with y[k-2] == y[k-1] == y[k] byte for byte and
    dt[k-1] == dt[k]: those the run answers from its remembered fixed point, uncomputed."""
    seen = [(dt, s.y.tobytes()) for s, dt in steps(cfg.params, cfg.initial_state(), cfg.step)]
    return sum(a[1] == b[1] == c[1] and b[0] == c[0] for a, b, c in zip(seen, seen[1:], seen[2:]))


def test_traced_reference_run_repeats_the_baseline_counts(tmp_path):
    # one Laplacian and one banded solve per computed attempt, for all three species, and
    # no fallback; baseline.json recorded one of each per species, 3 * 2068 = 6204.  It
    # predates the fixed-point repeats, which compute nothing but still count as accepted
    hooks, workloads = _perfbench("hooks"), _perfbench("workloads")
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())["counts"]
    conf = tmp_path / "ref.conf"
    conf.write_text(workloads.SimulateRef.config)
    tracer = hooks.Tracer()
    with tracer.hooked(), redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "ref.csv")]) == 0
    keys = ("solver.accepted", "solver.fallbacks")
    counts = tracer.counts()
    assert {k: counts[k] for k in keys} == {k: baseline["simulate-ref"][k] for k in keys}
    repeats = fixed_point_repeats(load_config(conf))
    assert repeats == 860
    assert counts["solver.attempts"] == baseline["simulate-ref"]["solver.attempts"] - repeats
    assert counts["solver.banded_solves"] == counts["grid.laplacian_calls"] == counts["solver.attempts"]
