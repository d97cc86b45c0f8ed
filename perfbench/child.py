"""Fresh-process side of the benchmark: set one workload up, and optionally
run one gated instance of it.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|instance

``setup`` prints ``ready`` once the inputs are built; the parent times the
interval from start to that line (``setup_s``), or runs it under
``-X importtime`` for the import breakdown.  ``instance`` runs one instance
and prints ``ok`` or ``FAIL <problems>``; the parent reads its peak resident
memory (``peak_rss_mb``).
"""

from __future__ import annotations

import argparse
import shutil
import sys

from workloads import WORKLOADS, scratch_dir


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "instance"))
    args = ap.parse_args(argv)
    scratch = scratch_dir(f"child-{args.workload}")
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)
        wl.setup()
        if args.mode == "setup":
            print("ready", flush=True)
            return 0
        wl.prepare()
        problems = wl.check(wl.instance())
        print("FAIL " + "; ".join(problems[:5]) if problems else "ok", flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
