"""Repeat the benchmark over several seeds and report its run-to-run spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 0|1]
                                [--seconds S] [--first-seed N] [--baseline PATH]

Runs ``run.py`` once per seed, one run at a time, for each workload.  For
every metric it prints the median over the runs and the distance between
the first and third quartile as a share of that median, which is the spread
BENCHMARK.json's bounds are judged against; an end-to-end spread at or over
its bound is flagged.  For traced runs it flags every count that is not
identical in all runs.  ``--baseline`` also writes the machine description,
the per-run values and their medians to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bytes", "bool")
EXACT_RATIOS = ("solver.accept_ratio", "ineqlab.informative_ratio")


def machine() -> dict:
    """Where the numbers were measured."""
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.is_file() else []
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else None,
        "cpu_model": models[0] if models else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartile_spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=2024)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = {"machine": machine(), "run_seconds": args.seconds, "trace": args.trace,
           "workloads": {}}
    ok = True
    for name in names:
        results = []
        for i in range(args.runs):
            t0 = time.perf_counter()
            res = run_once(name, args.first_seed + i, args.seconds, args.trace)
            results.append(res)
            print(f"{name} seed {args.first_seed + i} ({time.perf_counter() - t0:.1f} s): "
                  f"correct={res['correct']} "
                  f"{res['failed']}/{res['attempted']} failed  " + "  ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                      if k in bounds and v["value"] is not None), flush=True)
        summary = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            exact = units[key] in EXACT_UNITS or key in EXACT_RATIOS
            if exact and len(set(values)) > 1:
                ok = False
                print(f"  MISMATCH {name} {key}: counts differ between runs: {values}")
            numeric = [v for v in values if v is not None]
            if len(numeric) < 2:
                summary[key] = {"values": values}
                continue
            spread = quartile_spread(numeric)
            summary[key] = {"median": statistics.median(numeric), "iqr_frac": spread,
                            "values": values}
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and spread >= bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and spread >= bound / 3:
                flag = "  over a third of the bound"
            if not exact:
                print(f"  {name} {key}: median {summary[key]['median']:.6g} {units[key]}, "
                      f"IQR/median {spread:.4f}" + (f" (bound {bound})" if bound else "") + flag)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok &= failed == 0 and all(r["correct"] for r in results)
        print(f"  {name}: {failed}/{attempted} instances failed")
        out["workloads"][name] = {"seeds": [args.first_seed + i for i in range(args.runs)],
                                  "attempted": attempted, "failed": failed,
                                  "metrics": summary}
    if args.baseline:
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
