"""revreact benchmark: time to a checked solution on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``simulate-ref``, ``vacuum-fine``, ``ineq-lab``.
Run from anywhere; the package is imported from the ``src`` tree next to
this directory.  Everything runs in one process at a time, one instance
after another, with no pools.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one instance at the reference host speed,
  tracing off, after one warm-up instance, over as many instances as fit
  in S seconds.  Only instances that pass their correctness gate are timed
  results.  Each instance's wall time is divided by the median time of the
  fixed computation in reference.py, run right before and right after it
  for REF_SHARE of the instance's own time, and multiplied by that
  computation's nominal time (reference.REFERENCE_S); ``wall_s`` is the
  median of these over the run.
  On the shared 2-core machine this was built on, other tenants slow the
  same work by up to 1.8x for seconds to minutes at a time, so raw times
  measure when a run happened: over ten 30 s runs, raw medians spread
  12-32 % IQR/median and even raw minima 5-23 %, against 2-7 % scaled by
  the reference (baseline.json).  The raw median, lower decile and minimum
  are printed beside it.
* ``setup_s``: median, over fresh interpreters started one at a time, of
  the time from process start to the workload's inputs being built
  (``import revreact`` plus the public-API calls that build them).  It is
  not scaled by the reference computation: tried that way, its run-to-run
  spread did not shrink (simulate-ref, vacuum-fine) or grew (ineq-lab).
* ``peak_rss_mb``: peak resident memory of a fresh process that runs one
  instance; it is the first child, so ``RUSAGE_CHILDREN`` is its own peak.

``--trace 1`` alternates untraced and traced instances for S seconds and
reports the per-layer metrics (hooks.py) of the traced ones: counts from
the first traced instance, which every later one must repeat exactly, and
medians of the times.  It also reports the import breakdown from
``python -X importtime`` in fresh processes, and the tracing overhead as
the median over adjacent (untraced, traced) pairs of their time ratio.

Failed instances (raised, or failed their gate) are counted in ``failed``
out of ``attempted``; ``fail_frac`` is printed on its own line.  The last
line of standard output is the JSON result, holding the metrics that
BENCHMARK.json lists for the mode.  Exit code 2 means the benchmark could
not run at all (for example, no source tree) and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

from hooks import Tracer
from reference import REFERENCE_S, reference
from workloads import ROOT, SRC, WORKLOADS, SetupError, scratch_dir

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 11
REF_REPS = 3  # least number of reference timings on each side of an instance
REF_SHARE = 0.1  # reference time around an instance, as a share of the instance's time
IMPORT_REPEATS = 3
CHILD_TIMEOUT = 60.0
IMPORTS = {  # metric -> module whose cumulative -X importtime entry it reports
    "setup.import_revreact_s": "revreact",
    "setup.import_scipy_linalg_s": "scipy.linalg",
    "setup.import_scipy_special_s": "scipy.special",
    "setup.import_numpy_s": "numpy",
}
# per-layer counts that only some workloads produce
WORKLOAD_COUNTS = {"cli.csv_bytes": 0, "cli.csv_identical": 0, "ineqlab.informative_ratio": 0.0}


class Tally:
    """Instances attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.fail(problems)

    def fail(self, problems: list[str]) -> None:
        """Count the last recorded instance as failed after all."""
        self.failed += 1
        print(f"instance {self.attempted} failed: " + "; ".join(problems[:5]),
              file=sys.stderr)

    def attempt(self, wl, tracer: Tracer | None = None):
        """Run and gate one instance; (wall_ns, output) if it passed, else None."""
        wl.prepare()
        hooked = tracer.hooked() if tracer else contextlib.nullcontext()
        try:
            with hooked:
                t0 = perf_counter_ns()
                out = wl.instance()
                wall = perf_counter_ns() - t0
            problems = wl.check(out)
        except Exception:  # a raising instance is a failed instance, not a crash
            problems = ["raised " + traceback.format_exc().strip().splitlines()[-1]]
        self.record(problems)
        return None if problems else (wall, out)


def run_child(workload: str, seed: int, mode: str, log: Path, *pyflags: str):
    """Run child.py in a fresh interpreter; (first stdout line, seconds to it).

    The child's standard error goes to `log`.
    """
    cmd = [sys.executable, *pyflags, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    with open(log, "wb") as err:
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT) as proc:
            try:
                if not select.select([proc.stdout], [], [], CHILD_TIMEOUT)[0]:
                    raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT)
                line = proc.stdout.readline()
                seconds = perf_counter() - t0
                proc.communicate(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
    if proc.returncode != 0 or not line:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        raise SetupError(f"child {mode} exited {proc.returncode}: {' | '.join(tail)}")
    return line.decode().strip(), seconds


def import_times(log: Path) -> dict:
    """Cumulative import seconds per IMPORTS module from an -X importtime log."""
    cumulative = {}
    for line in log.read_text().splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            with contextlib.suppress(ValueError):
                cumulative[name.strip()] = int(cum) / 1e6
    return {metric: cumulative.get(mod) for metric, mod in IMPORTS.items()}


def reference_s() -> float:
    """Seconds one call of the reference computation takes now."""
    t0 = perf_counter_ns()
    reference()
    return (perf_counter_ns() - t0) / 1e9


def reference_times(budget: float) -> list[float]:
    """Times of at least REF_REPS reference calls that add up to `budget` s."""
    times = []
    while len(times) < REF_REPS or sum(times) < budget:
        times.append(reference_s())
    return times


def median_or_none(values):
    return None if not values or None in values else statistics.median(values)


def lower_decile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(name: str, seed: int, seconds: float, scratch: Path, tally: Tally) -> dict:
    log = scratch / "child.err"
    # first child: RUSAGE_CHILDREN holds the largest peak of the children so far
    line, _ = run_child(name, seed, "instance", log)
    tally.record([] if line == "ok" else [f"fresh-process instance: {line}"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setups = [run_child(name, seed, "setup", log)[1] for _ in range(SETUP_REPEATS)]

    wl = WORKLOADS[name](seed, scratch)
    wl.setup()
    warm_up = tally.attempt(wl)
    reference_s()
    budget = REF_SHARE / 2 * warm_up[0] / 1e9 if warm_up else 0.0
    walls = []
    deadline = perf_counter() + seconds
    while True:
        refs = reference_times(budget)
        result = tally.attempt(wl)
        if result:
            wall = result[0] / 1e9
            budget = REF_SHARE / 2 * wall
            refs += reference_times(budget)
            walls.append((wall, wall / statistics.median(refs) * REFERENCE_S))
        if perf_counter() >= deadline:
            break
    if walls:
        raw = [w for w, _ in walls]
        print(f"{name} raw wall over {len(raw)} instances: median {statistics.median(raw)!r} s, "
              f"lower decile {lower_decile(raw)!r} s, minimum {min(raw)!r} s")
    return {
        "wall_s": median_or_none([w for _, w in walls]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(name: str, seed: int, seconds: float, scratch: Path, tally: Tally) -> dict:
    log = scratch / "child.err"
    imports = []
    for _ in range(IMPORT_REPEATS):
        run_child(name, seed, "setup", log, "-X", "importtime")
        imports.append(import_times(log))

    wl = WORKLOADS[name](seed, scratch)
    wl.setup()
    tally.attempt(wl)  # warm-up
    plain, walls, ratios, times, first = [], [], [], [], None
    deadline = perf_counter() + seconds
    while True:
        result = tally.attempt(wl)
        plain_wall = result and result[0]
        if plain_wall:
            plain.append(plain_wall)
        tracer = Tracer()
        result = tally.attempt(wl, tracer)
        if result:
            wall, out = result
            counts = {**tracer.counts(), **WORKLOAD_COUNTS, **wl.counts(out)}
            reported = counts.pop("ineqlab.reported", None)
            if reported is not None and counts["ineqlab.samples"]:
                counts["ineqlab.informative_ratio"] = reported / counts["ineqlab.samples"]
            first = first or counts
            if counts == first:
                walls.append(wall)
                times.append(tracer.times(wall))
                if plain_wall:
                    ratios.append(wall / plain_wall)
            else:
                diff = {k: (first[k], v) for k, v in counts.items() if first.get(k) != v}
                tally.fail([f"counts differ from the first traced instance: {diff}"])
        if perf_counter() >= deadline:
            break

    metrics = dict(first or {})
    for key in times[0] if times else ():
        metrics[key] = median_or_none([t[key] for t in times])
    for key in IMPORTS:
        metrics[key] = median_or_none([i[key] for i in imports])
    metrics["trace.traced_wall_s"] = statistics.median(walls) / 1e9 if walls else None
    metrics["trace.untraced_wall_s"] = statistics.median(plain) / 1e9 if plain else None
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else None
    compare_baseline(name, metrics)
    return metrics


def compare_baseline(name: str, metrics: dict) -> None:
    """Flag every count that differs from the one recorded in baseline.json."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return
    recorded = json.loads(path.read_text()).get("counts", {}).get(name, {})
    for key, value in recorded.items():
        if metrics.get(key) != value:
            print(f"count {key} = {metrics.get(key)!r}, baseline recorded {value!r}",
                  file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "revreact" / "__init__.py").is_file():
            raise SetupError(f"no revreact source tree under {SRC}")
    except (OSError, ValueError, SetupError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    scratch = scratch_dir(args.workload)
    tally = Tally()
    measure = traced if args.trace else end_to_end
    try:
        values = measure(args.workload, args.seed, args.seconds, scratch, tally)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in listed}
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} fail_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted!r} ratio")
    # a missing hook reads None in a traced run; an end-to-end metric never may
    correct = tally.failed == 0 and (
        bool(args.trace) or all(m["value"] is not None for m in metrics.values())
    )
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
