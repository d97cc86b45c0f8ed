"""Per-layer tracing from outside the package.

Each hook replaces one public name in the module that looks it up at call
time, so a call is attributed to its caller: ``dissipation`` called from
``revreact.solver`` is a diagnostics row, called from ``revreact.ineqlab``
it is an estimator evaluation.  A timed hook records one span per call and
adds its duration to the span that encloses it, which gives every layer its
self time; a counting hook only counts.  Names a later version no longer
has are skipped, and the metrics that need them read ``None``.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter_ns

# (module that looks the name up, name, span key, timed)
HOOKS = (
    ("solver", "run", "solver.run", True),
    ("cli", "run", "solver.run", True),
    ("solver", "reaction_rate", "solver.reaction_rate", False),
    ("solver", "State", "solver.State", False),
    ("solver", "cho_solve_banded", "solver.banded_solve", True),
    ("solver", "laplacian_neumann", "grid.laplacian", True),
    ("solver", "dissipation", "solver.diag_dissipation", True),
    ("solver", "l1_distances", "solver.diag_l1", True),
    ("entropy", "fisher_information", "grid.fisher", True),
    ("ineqlab", "sample_admissible", "ineqlab.sample", True),
    ("ineqlab", "dissipation", "ineqlab.estimator", True),
    ("ineqlab", "ck_gap", "ineqlab.estimator", True),
    ("cli", "load_config", "cli.load_config", True),
    ("cli", "write_trajectory_csv", "cli.write_csv", True),
    ("solver", "compute_equilibrium", "model.equilibrium", True),
    ("entropy", "compute_equilibrium", "model.equilibrium", True),
    ("ineqlab", "compute_equilibrium", "model.equilibrium", True),
    ("cli", "compute_equilibrium", "model.equilibrium", True),
)

# span keys reported per call (`<key>_us`) and as a share of wall (`<key>_share`)
TIMED_LAYERS = (
    "solver.banded_solve",
    "grid.laplacian",
    "grid.fisher",
    "model.equilibrium",
    "ineqlab.sample",
    "ineqlab.estimator",
    "cli.load_config",
    "cli.write_csv",
)


def _state_bytes(traj) -> int:
    """Bytes held by the states a trajectory keeps (0 if it keeps none)."""
    states = getattr(traj, "states", None) or ()
    return sum(s.u.nbytes + s.v.nbytes + s.w.nbytes for s in states)


class Tracer:
    """Span and call aggregates of one traced instance."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.kept_state_bytes = 0
        self.installed: set[str] = set()
        self._open: list[int] = []  # child time of each open span

    def _wrap(self, fn, key: str, timed: bool):
        calls = self.calls
        calls.setdefault(key, 0)
        if not timed:
            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        total, own, open_spans = self.total_ns, self.self_ns, self._open
        total.setdefault(key, 0)
        own.setdefault(key, 0)

        def spanned(*args, **kwargs):
            open_spans.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                calls[key] += 1
                total[key] += dur
                own[key] += dur - child
            if key == "solver.run":
                self.kept_state_bytes += _state_bytes(result)
            return result

        return spanned

    @contextlib.contextmanager
    def hooked(self):
        """Install every hook whose name exists; restore them on exit."""
        saved = []
        try:
            for modname, name, key, timed in HOOKS:
                module = sys.modules.get(f"revreact.{modname}")
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, key, timed))
                self.installed.add(key)
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def _count(self, key: str):
        return self.calls[key] if key in self.installed else None

    def counts(self) -> dict:
        """Work done per layer; these repeat exactly between instances."""
        attempts = self._count("solver.reaction_rate")
        accepted = self._count("solver.State")
        solves = self._count("solver.banded_solve")
        laplacians = self._count("grid.laplacian")
        return {
            "solver.attempts": attempts,
            "solver.accepted": accepted,
            "solver.accept_ratio": (
                None if attempts is None or accepted is None
                else accepted / attempts if attempts else 0.0
            ),
            "solver.banded_solves": solves,
            "solver.fallbacks": (
                None if solves is None or laplacians is None else solves - laplacians
            ),
            "grid.laplacian_calls": laplacians,
            "solver.diag_rows": self._count("solver.diag_dissipation"),
            "model.equilibrium_calls": self._count("model.equilibrium"),
            "ineqlab.samples": self._count("ineqlab.sample"),
            "solver.kept_state_bytes": (
                self.kept_state_bytes if "solver.run" in self.installed else None
            ),
        }

    def times(self, wall_ns: int) -> dict:
        """Microseconds per call and share of the instance's wall per layer."""
        out = {}

        def put(stem, ns, calls):
            if ns is None or calls is None:
                out[f"{stem}_us"] = out[f"{stem}_share"] = None
            else:
                out[f"{stem}_us"] = ns / calls / 1e3 if calls else 0.0
                out[f"{stem}_share"] = ns / wall_ns

        def total(key):
            return self.total_ns[key] if key in self.installed else None

        for key in TIMED_LAYERS:
            put(key, total(key), self._count(key))
        run_self = self.self_ns["solver.run"] if "solver.run" in self.installed else None
        put("solver.step_self", run_self, self._count("solver.reaction_rate"))
        diag = total("solver.diag_dissipation")
        l1 = total("solver.diag_l1")
        put("solver.diag", None if diag is None or l1 is None else diag + l1,
            self._count("solver.diag_dissipation"))
        return out
