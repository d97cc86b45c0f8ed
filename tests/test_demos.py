"""Demos 01-03 and README's library quick start run against the package's public API.

Demo 04 takes several seconds and is run by CI, as its own step of
.github/workflows/tier1.yml, beside the installed `revreact` console script
on README's cheap CLI examples.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_equilibrium_and_rescaling.py",
    "02_relaxation_run.py",
    "03_functional_inequalities.py",
])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    traj = namespace["traj"]
    assert (traj.final.t, traj.final.y.shape) == (20.0, (3, 200))
    assert capsys.readouterr().out.splitlines()[-1] == "20.0 (3, 200)"
