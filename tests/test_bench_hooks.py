"""The benchmark's per-layer hooks must find every name they patch.

``perfbench/hooks.py`` replaces names in the package's submodules, but only
in submodules already in ``sys.modules``; the ``vacuum-fine`` and
``ineq-lab`` workloads import nothing but ``revreact``.  A name that is not
reachable after ``import revreact`` leaves its traced metric null.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
