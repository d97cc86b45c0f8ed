"""Experiment orchestration: config files, subcommands, CSV and text reports.

Config files are line-oriented ``key = value`` with ``#`` comments.  All
floats in the CSV output are written as shortest round-trip decimals, and
infinite dissipation is serialized as the literal token ``inf``, so output
is byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import Grid1D, integrate
from .ineqlab import (
    duality_margin,
    estimate_eed_constant,
    scan_homogeneous_ratio,
    verify_csiszar_kullback,
)
from .model import MassPair, ReactionParams, compute_equilibrium
from .solver import CSV_COLUMNS, DiagnosticsRow, State, StepConfig, Trajectory, run


class ConfigError(ValueError):
    """Bad config file content; message carries line numbers when known."""


PROFILES = ("homogeneous", "cosine-bump", "two-blocks")

# key -> (type, default, help); None default means "no value unless given"
CONFIG_KEYS = {
    "alpha": (float, 1.0, "stoichiometric exponent of u (>= 1)"),
    "beta": (float, 1.0, "stoichiometric exponent of v (>= 1)"),
    "gamma": (float, 1.0, "stoichiometric exponent of w (>= 1)"),
    "ell": (float, 1.0, "forward rate (> 0)"),
    "k": (float, 1.0, "backward rate (> 0)"),
    "d1": (float, 1.0, "diffusivity of u (> 0)"),
    "d2": (float, 1.0, "diffusivity of v (> 0)"),
    "d3": (float, 1.0, "diffusivity of w (> 0)"),
    "m1": (float, None, "conserved mass gamma*int(u)+alpha*int(w) (> 0)"),
    "m2": (float, None, "conserved mass gamma*int(v)+beta*int(w) (> 0)"),
    "n_cells": (int, 200, "number of grid cells (>= 2)"),
    "u_profile": (str, "homogeneous", "initial u: homogeneous|cosine-bump|two-blocks"),
    "v_profile": (str, "homogeneous", "initial v profile"),
    "w_profile": (str, "homogeneous", "initial w profile"),
    "u_amplitude": (float, 1.0, "mean of the initial u profile"),
    "v_amplitude": (float, 1.0, "mean of the initial v profile"),
    "w_amplitude": (float, 0.0, "mean of the initial w profile"),
    "dt_init": (float, 1e-3, "initial / maximal time step"),
    "dt_min": (float, 1e-12, "abort threshold for the adaptive step"),
    "safety": (float, 0.2, "max pointwise relative change per step (0 < s <= 1)"),
    "t_end": (float, 10.0, "final time"),
    "record_every": (int, 20, "diagnostics stride in accepted steps"),
    "seed": (int, 0, "random seed for samplers"),
    "n_samples": (int, 1000, "sample count for verification commands"),
    "n_grid": (int, 2001, "grid for the homogeneous-ratio scan (>= 100)"),
    "k1": (float, 1.0, "reaction-defect coefficient for the split bound"),
    "floor_delta": (float, None, "sampler cell floor (default 1e-6*min(m1,m2))"),
    "out": (str, None, "output path for CSV / report"),
}


@dataclass
class RunConfig:
    """Validated config: everything needed to reproduce a run."""

    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def params(self) -> ReactionParams:
        return ReactionParams(
            self.alpha, self.beta, self.gamma, self.ell, self.k,
            self.d1, self.d2, self.d3,
        )

    def step_config(self, t_end: float | None = None) -> StepConfig:
        return StepConfig(
            dt_init=self.dt_init,
            dt_min=self.dt_min,
            safety=self.safety,
            t_end=self.t_end if t_end is None else t_end,
            record_every=self.record_every,
        )

    def grid(self) -> Grid1D:
        return Grid1D(self.n_cells)

    def masses(self) -> MassPair:
        """Explicit m1/m2 if given, else derived from the initial profiles."""
        if self.m1 is not None and self.m2 is not None:
            return MassPair(self.m1, self.m2)
        g = self.grid()
        s = self.initial_state()
        return MassPair(
            self.gamma * integrate(g, s.u) + self.alpha * integrate(g, s.w),
            self.gamma * integrate(g, s.v) + self.beta * integrate(g, s.w),
        )

    def initial_state(self) -> State:
        g = self.grid()
        x = g.cell_centers()
        return State(
            0.0,
            _profile(self.u_profile, self.u_amplitude, x),
            _profile(self.v_profile, self.v_amplitude, x),
            _profile(self.w_profile, self.w_amplitude, x),
        )


def _profile(name: str, amplitude: float, x: np.ndarray) -> np.ndarray:
    """Initial profile with mean `amplitude`, sampled at cell midpoints."""
    if name == "homogeneous":
        return np.full_like(x, amplitude)
    if name == "cosine-bump":
        return amplitude * (1.0 - np.cos(2.0 * np.pi * x))
    if name == "two-blocks":
        return np.where(x < 0.5, 2.0 * amplitude, 0.0)
    raise ConfigError(f"unknown profile '{name}' (choose from {', '.join(PROFILES)})")


def _validate_values(values: dict) -> None:
    simple = {
        "alpha": (values["alpha"] >= 1, "alpha must be >= 1"),
        "beta": (values["beta"] >= 1, "beta must be >= 1"),
        "gamma": (values["gamma"] >= 1, "gamma must be >= 1"),
        "ell": (values["ell"] > 0, "ell must be > 0"),
        "k": (values["k"] > 0, "k must be > 0"),
        "d1": (values["d1"] > 0, "d1 must be > 0"),
        "d2": (values["d2"] > 0, "d2 must be > 0"),
        "d3": (values["d3"] > 0, "d3 must be > 0"),
        "n_cells": (values["n_cells"] >= 2, "n_cells must be >= 2"),
        "n_grid": (values["n_grid"] >= 100, "n_grid must be >= 100"),
        "k1": (values["k1"] > 0, "k1 must be > 0"),
        "n_samples": (values["n_samples"] >= 1, "n_samples must be >= 1"),
    }
    for key, (ok, msg) in simple.items():
        if not ok:
            raise ConfigError(msg)
    for key in ("m1", "m2", "floor_delta"):
        if values[key] is not None and not values[key] > 0:
            raise ConfigError(f"{key} must be > 0")
    for key in ("u_profile", "v_profile", "w_profile"):
        if values[key] not in PROFILES:
            raise ConfigError(
                f"{key} must be one of {', '.join(PROFILES)}, got '{values[key]}'"
            )
    for key in ("u_amplitude", "v_amplitude", "w_amplitude"):
        if values[key] < 0:
            raise ConfigError(f"{key} must be >= 0")
    try:
        StepConfig(
            dt_init=values["dt_init"],
            dt_min=values["dt_min"],
            safety=values["safety"],
            t_end=values["t_end"],
            record_every=values["record_every"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a ``key = value`` config document."""
    values = {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {seen[key]})"
            )
        seen[key] = lineno
        typ = CONFIG_KEYS[key][0]
        try:
            values[key] = value if typ is str else typ(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: '{key}' expects {typ.__name__}, got '{value}'"
            ) from None
    _validate_values(values)
    return RunConfig(values)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# CSV emission / ingestion


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in traj.rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv_rows(path: str | Path) -> list[DiagnosticsRow]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or text[0].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path}: missing or wrong CSV header")
    rows = []
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: bad row '{line}'")
        rows.append(DiagnosticsRow(*(float(p) for p in parts)))
    return rows


def validate_rows(rows: list[DiagnosticsRow]) -> list[str]:
    """Re-check the run invariants on (possibly re-read) diagnostics rows."""
    problems = []
    if not rows:
        return ["no rows"]
    m1_0, m2_0 = rows[0].mass1, rows[0].mass2
    prev_t = -math.inf
    prev_E = math.inf
    for i, row in enumerate(rows):
        if row.t <= prev_t:
            problems.append(f"row {i}: time {row.t} not increasing")
        if abs(row.mass1 - m1_0) > 1e-11 * abs(m1_0):
            problems.append(f"row {i}: mass1 drifted to {row.mass1!r}")
        if abs(row.mass2 - m2_0) > 1e-11 * abs(m2_0):
            problems.append(f"row {i}: mass2 drifted to {row.mass2!r}")
        if row.E > prev_E + 1e-10 * (1.0 + abs(prev_E)):
            problems.append(f"row {i}: entropy increased to {row.E!r}")
        if row.min_conc < 0:
            problems.append(f"row {i}: negative concentration {row.min_conc!r}")
        prev_t, prev_E = row.t, row.E
    return problems


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(series) -> tuple[float, float, float]:
    """Fit value ~ exp(intercept - K*t) on the decaying tail of a series.

    The fit uses points with value in (1e-14, 0.1 * first value); when
    fewer than three qualify (e.g. a constant series) it falls back to all
    points above 1e-14.  Returns (K_fit, intercept, r_squared).
    """
    pts = np.asarray(list(series), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("series must be pairs (t, value)")
    t, val = pts[:, 0], pts[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    qualifying = val > 1e-14
    if qualifying.sum() < 3:
        raise ValueError("too few qualifying points (need 3 above 1e-14)")
    tail = qualifying & (val < 0.1 * val[0])
    sel = tail if tail.sum() >= 3 else qualifying
    y = np.log(val[sel])
    if np.all(y == y[0]):
        return 0.0, float(y[0]), 1.0
    slope, intercept = np.polyfit(t[sel], y, 1)
    resid = y - (slope * t[sel] + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(intercept), float(r2)


# ---------------------------------------------------------------------------
# subcommands


def _report(path: str | Path, pairs: list[tuple[str, object]]) -> None:
    Path(path).write_text(
        "".join(f"{key}: {value}\n" for key, value in pairs), encoding="utf-8"
    )


def _power_bound(x: float, floor: float = 1e-12) -> str:
    b = max(x, floor)
    return f"1e{math.ceil(math.log10(b))}"


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig(
        {key: default for key, (_, default, _) in CONFIG_KEYS.items()}
    )
    for key in CONFIG_KEYS:
        flag = getattr(args, f"opt_{key}", None)
        if flag is not None:
            cfg.values[key] = flag
    if getattr(args, "out", None):
        cfg.values["out"] = args.out
    if getattr(args, "seed", None) is not None:
        cfg.values["seed"] = args.seed
    _validate_values(cfg.values)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    out = cfg.out
    if not out:
        print("simulate: no output path (set 'out' in the config or pass --out)",
              file=sys.stderr)
        return 2
    traj = run(cfg.params(), cfg.initial_state(), cfg.step_config())
    write_trajectory_csv(out, traj)
    last = traj.rows[-1]
    print(
        f"wrote {out}: {len(traj.rows)} rows, t_end={_fmt(last.t)}, "
        f"E_rel={last.E_rel:.6e}"
    )
    return 0


def cmd_equilibrium(args) -> int:
    cfg = _config_from_args(args)
    p = cfg.params()
    eq = compute_equilibrium(p, cfg.masses())
    print(
        f"a_inf={eq.a_inf:.12g} b_inf={eq.b_inf:.12g} c_inf={eq.c_inf:.12g} "
        f"residual<={_power_bound(eq.residual)}"
    )
    return 0


def cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    rep = scan_homogeneous_ratio(cfg.params(), cfg.masses(), cfg.n_grid)
    ok = math.isfinite(rep.constant_estimate) and rep.constant_estimate > 0
    out = cfg.out or "scan-report.txt"
    _report(out, [
        ("command", "scan"),
        ("n_grid", rep.n_samples),
        ("min_ratio", rep.min_ratio),
        ("max_ratio", rep.max_ratio),
        ("argmin_mu_c", rep.argmin),
        ("argmax_mu_c", rep.argmax),
        ("constant_estimate", rep.constant_estimate),
        ("zero_limit", rep.zero_limit),
        ("status", "PASS" if ok else "FAIL"),
    ])
    print(f"{'PASS' if ok else 'FAIL'} scan constant_estimate={rep.constant_estimate!r} "
          f"zero_limit={rep.zero_limit!r}")
    return 0 if ok else 1


def _verify_command(name: str, estimator, cfg: RunConfig) -> int:
    rep = estimator(
        cfg.params(), cfg.masses(), cfg.grid(), cfg.n_samples,
        seed=cfg.seed, floor_delta=cfg.floor_delta,
    )
    ok = rep.min_ratio > 0
    out = cfg.out or f"{name}-report.txt"
    _report(out, [
        ("command", name),
        ("n_samples", rep.n_samples),
        ("seed", cfg.seed),
        ("min_ratio", rep.min_ratio),
        ("max_ratio", rep.max_ratio),
        ("argmin", rep.argmin),
        ("constant_estimate", rep.constant_estimate),
        ("status", "PASS" if ok else "FAIL"),
    ])
    print(f"{'PASS' if ok else 'FAIL'} {name} min_ratio={rep.min_ratio!r} "
          f"n_samples={rep.n_samples}")
    return 0 if ok else 1


def cmd_verify_eed(args) -> int:
    return _verify_command("verify-eed", estimate_eed_constant, _config_from_args(args))


def cmd_verify_ck(args) -> int:
    return _verify_command("verify-ck", verify_csiszar_kullback, _config_from_args(args))


def cmd_fit_rate(args) -> int:
    rows = read_csv_rows(args.csv)
    if args.column not in CSV_COLUMNS:
        print(f"fit-rate: unknown column '{args.column}'", file=sys.stderr)
        return 2
    series = [(row.t, getattr(row, args.column)) for row in rows]
    k_fit, intercept, r2 = fit_rate(series)
    ok = k_fit > 0 and r2 >= args.r2_min
    out = args.out or "fit-rate-report.txt"
    _report(out, [
        ("command", "fit-rate"),
        ("csv", args.csv),
        ("column", args.column),
        ("K_fit", k_fit),
        ("intercept", intercept),
        ("r_squared", r2),
        ("r2_min", args.r2_min),
        ("status", "PASS" if ok else "FAIL"),
    ])
    print(f"{'PASS' if ok else 'FAIL'} fit-rate K_fit={k_fit!r} r_squared={r2!r}")
    return 0 if ok else 1


def _diffusivity(text: str) -> float:
    """argparse type of --da/--db: a finite number > 0 (usage error otherwise)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def cmd_duality(args) -> int:
    margin = duality_margin(args.da, args.db)
    print(f"margin={margin:.12g} condition_p2={'SATISFIED' if margin < 1 else 'VIOLATED'}")
    return 0


def cmd_validate(args) -> int:
    problems = validate_rows(read_csv_rows(args.csv))
    if problems:
        for msg in problems:
            print(f"FAIL validate {msg}")
        return 1
    print(f"PASS validate {args.csv}")
    return 0


def _config_epilog() -> str:
    lines = ["config keys (key = value, '#' comments):"]
    for key, (typ, default, helptext) in CONFIG_KEYS.items():
        shown = "unset" if default is None else default
        lines.append(f"  {key:<14} {typ.__name__:<5} default={shown!r:<8} {helptext}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revreact",
        description="Simulate the reversible reaction-diffusion system "
        "a*U + b*V <-> c*W and verify its entropy-decay inequalities.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, config=True, numeric=()):
        sp = sub.add_parser(name, help=helptext)
        if config:
            sp.add_argument("--config", help="path to key = value config file")
            sp.add_argument("--out", help="output path override")
            sp.add_argument("--seed", type=int, help="seed override")
            for key in numeric:
                typ = CONFIG_KEYS[key][0]
                sp.add_argument(
                    f"--{key.replace('_', '-')}", dest=f"opt_{key}", type=typ,
                    help=f"override config key {key}",
                )
        sp.set_defaults(fn=fn)
        return sp

    add("simulate", cmd_simulate, "integrate a run and write the trajectory CSV",
        numeric=("t_end", "n_cells", "dt_init", "record_every"))
    add("equilibrium", cmd_equilibrium, "print the detailed-balance equilibrium",
        numeric=("alpha", "beta", "gamma", "m1", "m2"))
    add("scan", cmd_scan, "scan the homogeneous distance/defect ratio",
        numeric=("alpha", "beta", "gamma", "m1", "m2", "n_grid"))
    add("verify-eed", cmd_verify_eed,
        "sample the entropy / entropy-dissipation ratio",
        numeric=("alpha", "beta", "gamma", "m1", "m2", "n_samples", "n_cells"))
    add("verify-ck", cmd_verify_ck,
        "sample the Csiszar-Kullback ratio",
        numeric=("alpha", "beta", "gamma", "m1", "m2", "n_samples", "n_cells"))

    sp = sub.add_parser("fit-rate", help="fit an exponential decay rate to a CSV column")
    sp.add_argument("--csv", required=True, help="trajectory CSV path")
    sp.add_argument("--column", default="E_rel", help="column to fit (default E_rel)")
    sp.add_argument("--r2-min", type=float, default=0.999, help="PASS threshold on r^2")
    sp.add_argument("--out", help="report path")
    sp.set_defaults(fn=cmd_fit_rate)

    sp = sub.add_parser("duality", help="closeness margin of two diffusivities")
    sp.add_argument("--da", type=_diffusivity, required=True, help="first diffusivity")
    sp.add_argument("--db", type=_diffusivity, required=True, help="second diffusivity")
    sp.set_defaults(fn=cmd_duality)

    sp = sub.add_parser("validate", help="re-check run invariants on a written CSV")
    sp.add_argument("--csv", required=True, help="trajectory CSV path")
    sp.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
