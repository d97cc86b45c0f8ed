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
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .grid import Grid1D
from .ineqlab import (
    check_n_grid,
    check_sampling_keys,
    duality_margin,
    estimate_eed_constant,
    scan_homogeneous_ratio,
    verify_csiszar_kullback,
)
from .model import MassPair, ReactionParams, compute_equilibrium, require, weighted_masses
from .solver import CSV_COLUMNS, DiagnosticsRow, State, StepConfig, Trajectory, run


class ConfigError(ValueError):
    """Bad config file content; message carries line numbers when known."""


# initial profile name -> (mean amplitude, cell midpoints) -> field with that mean
PROFILES = {
    "homogeneous": lambda a, x: np.full_like(x, a),
    "cosine-bump": lambda a, x: a * (1.0 - np.cos(2.0 * np.pi * x)),
    "two-blocks": lambda a, x: np.where(x < 0.5, 2.0 * a, 0.0),
}

# key -> (type, the model type whose field it sets or None for RunConfig's own
# field, help); the default is that of the dataclass field of the same name
CONFIG_KEYS = {
    "alpha": (float, ReactionParams, "stoichiometric exponent of u (>= 1)"),
    "beta": (float, ReactionParams, "stoichiometric exponent of v (>= 1)"),
    "gamma": (float, ReactionParams, "stoichiometric exponent of w (>= 1)"),
    "ell": (float, ReactionParams, "forward rate (> 0; 1 unless alpha+beta == gamma)"),
    "k": (float, ReactionParams, "backward rate (> 0; 1 unless alpha+beta == gamma)"),
    "d1": (float, ReactionParams, "diffusivity of u (> 0)"),
    "d2": (float, ReactionParams, "diffusivity of v (> 0)"),
    "d3": (float, ReactionParams, "diffusivity of w (> 0)"),
    "m1": (float, MassPair, "conserved mass gamma*int(u)+alpha*int(w) (> 0)"),
    "m2": (float, MassPair, "conserved mass gamma*int(v)+beta*int(w) (> 0)"),
    "n_cells": (int, Grid1D, "number of grid cells (>= 2)"),
    "u_profile": (str, None, "initial u: " + "|".join(PROFILES)),
    "v_profile": (str, None, "initial v profile"),
    "w_profile": (str, None, "initial w profile"),
    "u_amplitude": (float, None, "mean of the initial u profile (>= 0)"),
    "v_amplitude": (float, None, "mean of the initial v profile (>= 0)"),
    "w_amplitude": (float, None, "mean of the initial w profile (>= 0)"),
    "dt_init": (float, StepConfig, "initial / maximal time step (> 0)"),
    "dt_min": (float, StepConfig, "abort threshold for the adaptive step (<= dt_init)"),
    "safety": (float, StepConfig, "max pointwise relative change per step (0 < s <= 1)"),
    "t_end": (float, StepConfig, "final time (> 0)"),
    "record_every": (int, StepConfig, "diagnostics stride in accepted steps (>= 1)"),
    "seed": (int, None, "random seed for samplers (>= 0)"),
    "n_samples": (int, None, "sample count for verification commands (1 to 2**32 - 1)"),
    "n_grid": (int, None, "grid for the homogeneous-ratio scan (>= 100)"),
    "out": (str, None, "output path for CSV / report"),
}

# subcommand -> the config keys it reads; any other key is rejected.  Every one reads the
# exponents and the initial profiles, from which m1, m2 are derived when not set.  Only
# simulate and verify-eed read the rates and diffusivities: they enter only the evolution and D.
COMMAND_KEYS = {
    command: ("alpha", "beta", "gamma", "n_cells", "u_profile", "v_profile", "w_profile",
              "u_amplitude", "v_amplitude", "w_amplitude") + extra
    for command, extra in {
        "simulate": ("ell", "k", "d1", "d2", "d3", "dt_init", "dt_min", "safety", "t_end",
                     "record_every", "out"),
        "equilibrium": ("m1", "m2"),
        "scan": ("m1", "m2", "n_grid", "out"),
        "verify-eed": ("ell", "k", "d1", "d2", "d3", "m1", "m2", "n_samples", "seed", "out"),
        "verify-ck": ("m1", "m2", "n_samples", "seed", "out"),
    }.items()
}


@dataclass(frozen=True)
class RunConfig:
    """Validated config: the model objects of a run, its initial profiles and
    the options of the sampling commands.  Each part checks its own fields."""

    params: ReactionParams = field(default_factory=ReactionParams)
    grid: Grid1D = field(default_factory=Grid1D)
    step: StepConfig = field(default_factory=StepConfig)
    explicit_masses: MassPair | None = None
    u_profile: str = "homogeneous"
    v_profile: str = "homogeneous"
    w_profile: str = "homogeneous"
    u_amplitude: float = 1.0
    v_amplitude: float = 1.0
    w_amplitude: float = 0.0
    seed: int = 0
    n_samples: int = 1000
    n_grid: int = 2001
    out: str | None = None

    def __post_init__(self):
        # the commands run the normalised system; rescale_params is library-only
        self.params.require_normalised("the config")
        for key in ("u_profile", "v_profile", "w_profile"):
            if getattr(self, key) not in PROFILES:
                raise ValueError(f"{key} must be one of {', '.join(PROFILES)}, "
                                 f"got '{getattr(self, key)}'")
        for key in ("u_amplitude", "v_amplitude", "w_amplitude"):
            require(key, getattr(self, key), getattr(self, key) >= 0, ">= 0")
        check_sampling_keys(self.seed, self.n_samples)
        check_n_grid(self.n_grid)

    def masses(self) -> MassPair:
        """Explicit m1/m2 if given, else derived from the initial profiles."""
        return self.explicit_masses or MassPair(*weighted_masses(self.params, self.initial_state()))

    def initial_state(self) -> State:
        """The t = 0 profiles; ValueError naming the amplitudes if a mass is 0 or not finite."""
        x = self.grid.cell_centers()
        s = State(0.0, *(
            PROFILES[getattr(self, f"{c}_profile")](getattr(self, f"{c}_amplitude"), x)
            for c in "uvw"
        ))
        masses = weighted_masses(self.params, s)
        if not all(0 < m < math.inf for m in masses):  # MassPair would blame m1, m2, never set
            raise ValueError(f"u_amplitude, v_amplitude and w_amplitude give initial profiles "
                             f"whose masses (m1, m2) = {masses} are not finite and > 0")
        return s


def _build(values: dict) -> RunConfig:
    """The config from typed key -> value pairs; unset keys keep their defaults."""

    def given(part):
        return {key: v for key, v in values.items() if CONFIG_KEYS[key][1] is part}

    masses = given(MassPair)
    if len(masses) == 1:
        raise ValueError("m1 and m2 must be set together")
    return RunConfig(
        ReactionParams(**given(ReactionParams)), Grid1D(**given(Grid1D)),
        StepConfig(**given(StepConfig)), MassPair(**masses) if masses else None,
        **given(None),
    )


def parse_config(text: str, command: str | None = None, overrides: dict | None = None):
    """Parse a ``key = value`` config document and build the validated RunConfig.

    `command` restricts the keys to those it reads (None accepts every key);
    `overrides` holds typed values from flags, which win over the document.
    """
    allowed = COMMAND_KEYS[command] if command else CONFIG_KEYS
    values: dict = {}
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
        if key not in allowed:
            raise ConfigError(f"line {lineno}: {command} does not read key '{key}'")
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {seen[key]})"
            )
        seen[key] = lineno
        typ = CONFIG_KEYS[key][0]
        try:
            values[key] = typ(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: '{key}' expects {typ.__name__}, got '{value}'"
            ) from None
    try:
        return _build({**values, **(overrides or {})})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path | None, command: str | None = None, overrides=None):
    """parse_config of a file's text; no path means an empty document."""
    text = Path(path).read_text(encoding="utf-8") if path else ""
    return parse_config(text, command, overrides)


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
    """Re-check the run invariants on (possibly re-read) diagnostics rows; every
    test fails on NaN, and the row after a NaN is compared with the one before."""
    problems = []
    if not rows:
        return ["no rows"]
    m1_0, m2_0 = rows[0].mass1, rows[0].mass2
    prev_t = -math.inf
    prev_E = math.inf
    for i, row in enumerate(rows):
        if not (row.t > prev_t):
            problems.append(f"row {i}: time {row.t} not increasing")
        if not (abs(row.mass1 - m1_0) <= 1e-11 * abs(m1_0)):
            problems.append(f"row {i}: mass1 drifted to {row.mass1!r}")
        if not (abs(row.mass2 - m2_0) <= 1e-11 * abs(m2_0)):
            problems.append(f"row {i}: mass2 drifted to {row.mass2!r}")
        if not (row.E <= prev_E + 1e-10 * (1.0 + abs(prev_E))):
            problems.append(f"row {i}: entropy increased to {row.E!r}")
        if not (row.min_conc >= 0):
            problems.append(f"row {i}: negative concentration {row.min_conc!r}")
        prev_t = prev_t if math.isnan(row.t) else row.t
        prev_E = prev_E if math.isnan(row.E) else row.E
    return problems


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(series) -> tuple[float, float, float]:
    """Fit value ~ exp(intercept - K*t) on the decaying tail of a series.

    The fit uses points with value in (1e-14, 0.1 * first value); when
    fewer than three qualify (e.g. a constant series) it falls back to all
    finite points above 1e-14.  Returns (K_fit, intercept, r_squared).
    """
    pts = np.asarray(list(series), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("series must be pairs (t, value)")
    t, val = pts[:, 0], pts[:, 1]
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)):
        raise ValueError("times must be finite and strictly increasing")
    if np.isnan(val).any():  # inf is kept: D is inf at t = 0
        raise ValueError(f"value is NaN at t = {_fmt(t[np.isnan(val)][0])}")
    qualifying = np.isfinite(val) & (val > 1e-14)
    if qualifying.sum() < 3:
        raise ValueError("too few qualifying points (need 3 finite above 1e-14)")
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


def _report(name: str, out: str | Path, ok: bool, pairs: list, summary: str) -> int:
    """Write the `key: value` report, print the PASS/FAIL line, return the exit code."""
    status = "PASS" if ok else "FAIL"
    pairs = [("command", name), *pairs, ("status", status)]
    Path(out).write_text("".join(f"{k}: {v}\n" for k, v in pairs), encoding="utf-8")
    print(f"{status} {name} {summary}")
    return 0 if ok else 1


def _config_from_args(args) -> RunConfig:
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None}
    return load_config(args.config, args.command, flags)


def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    if not cfg.out:
        raise ConfigError("simulate needs an output path: set 'out' or pass --out")
    traj = run(cfg.params, cfg.initial_state(), cfg.step)
    write_trajectory_csv(cfg.out, traj)
    last = traj.rows[-1]
    print(
        f"wrote {cfg.out}: {len(traj.rows)} rows, t_end={_fmt(last.t)}, "
        f"E_rel={last.E_rel:.6e}"
    )
    return 0


def cmd_equilibrium(args) -> int:
    cfg = _config_from_args(args)
    eq = compute_equilibrium(cfg.params, cfg.masses())
    print(
        f"a_inf={eq.a_inf:.12g} b_inf={eq.b_inf:.12g} c_inf={eq.c_inf:.12g} "
        f"residual<=1e{math.ceil(math.log10(max(eq.residual, 1e-12)))}"
    )
    return 0


def cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    rep = scan_homogeneous_ratio(cfg.params, cfg.masses(), cfg.n_grid)
    ok = math.isfinite(rep.constant_estimate) and rep.constant_estimate > 0
    return _report("scan", cfg.out or "scan-report.txt", ok, [
        ("n_grid", rep.n_samples),
        ("min_ratio", rep.min_ratio),
        ("max_ratio", rep.max_ratio),
        ("argmin_mu_c", rep.argmin),
        ("argmax_mu_c", rep.argmax),
        ("constant_estimate", rep.constant_estimate),
        ("zero_limit", rep.zero_limit),
    ], f"constant_estimate={rep.constant_estimate!r} zero_limit={rep.zero_limit!r}")


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    estimator = {"verify-eed": estimate_eed_constant, "verify-ck": verify_csiszar_kullback}
    rep = estimator[args.command](cfg.params, cfg.masses(), cfg.grid, cfg.n_samples, seed=cfg.seed)
    return _report(args.command, cfg.out or f"{args.command}-report.txt", rep.min_ratio > 0, [
        ("n_samples", rep.n_samples),
        ("seed", cfg.seed),
        ("min_ratio", rep.min_ratio),
        ("max_ratio", rep.max_ratio),
        ("argmin", rep.argmin),
        ("constant_estimate", rep.constant_estimate),
    ], f"min_ratio={rep.min_ratio!r} n_samples={rep.n_samples}")


def cmd_fit_rate(args) -> int:
    rows = read_csv_rows(args.csv)
    series = [(row.t, getattr(row, args.column)) for row in rows]
    k_fit, intercept, r2 = fit_rate(series)
    ok = k_fit > 0 and r2 >= args.r2_min
    return _report("fit-rate", args.out or "fit-rate-report.txt", ok, [
        ("csv", args.csv),
        ("column", args.column),
        ("K_fit", k_fit),
        ("intercept", intercept),
        ("r_squared", r2),
        ("r2_min", args.r2_min),
    ], f"K_fit={k_fit!r} r_squared={r2!r}")


def _finite(test, needs: str):
    """argparse type: a finite number that passes `test` (usage error otherwise)."""

    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and test(x)):
            raise argparse.ArgumentTypeError(f"must be a finite number {needs}, got {text!r}")
        return x

    return parse


def cmd_duality(args) -> int:
    margin = duality_margin(args.da, args.db)
    print(f"margin={margin:.12g}")
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
    lines = ["config keys (key = value, '#' comments; finite numbers only):"]
    for key, (typ, part, helptext) in CONFIG_KEYS.items():
        default = next(f.default for f in fields(part or RunConfig) if f.name == key)
        shown = "unset" if default in (None, MISSING) else default
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

    # a config subcommand's flags are exactly the keys it reads; a flag overrides the file
    for name, (fn, helptext) in {
        "simulate": (cmd_simulate, "integrate a run and write the trajectory CSV"),
        "equilibrium": (cmd_equilibrium, "print the detailed-balance equilibrium"),
        "scan": (cmd_scan, "scan the homogeneous distance/defect ratio"),
        "verify-eed": (cmd_verify, "sample the entropy / entropy-dissipation ratio"),
        "verify-ck": (cmd_verify, "sample the Csiszar-Kullback ratio"),
    }.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="path to key = value config file")
        for key in COMMAND_KEYS[name]:
            typ, _, keyhelp = CONFIG_KEYS[key]
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, help=keyhelp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("fit-rate", help="fit an exponential decay rate to a CSV column")
    sp.add_argument("--csv", required=True, help="trajectory CSV path")
    sp.add_argument("--column", default="E_rel", choices=CSV_COLUMNS, metavar="COLUMN",
                    help="column to fit (default E_rel)")
    sp.add_argument("--r2-min", type=_finite(lambda x: x <= 1, "<= 1"), default=0.999,
                    help="PASS threshold on r^2 (<= 1)")
    sp.add_argument("--out", help="report path")
    sp.set_defaults(fn=cmd_fit_rate)

    sp = sub.add_parser("duality", help="closeness margin of two diffusivities")
    positive = _finite(lambda x: x > 0, "> 0")
    sp.add_argument("--da", type=positive, required=True, help="first diffusivity")
    sp.add_argument("--db", type=positive, required=True, help="second diffusivity")
    sp.set_defaults(fn=cmd_duality)

    sp = sub.add_parser("validate", help="re-check run invariants on a written CSV")
    sp.add_argument("--csv", required=True, help="trajectory CSV path")
    sp.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow to inf and the NaN after it are caught as values and reported
        # in one error line; numpy's warnings about them would only add noise
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
