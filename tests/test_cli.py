import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from revreact.cli import (
    COMMAND_KEYS,
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    _config_from_args,
    build_parser,
    fit_rate,
    main,
    parse_config,
    read_csv_rows,
    validate_rows,
    write_trajectory_csv,
)
from revreact.grid import Grid1D, integrate
from revreact.model import MassPair, ReactionParams
from revreact.solver import CSV_COLUMNS, StepConfig, run


REFERENCE_CONFIG = """\
# relaxation toward (1,1,1)
alpha = 1
beta = 1
gamma = 1
d1 = 1.0
d2 = 2.0
d3 = 3.0
n_cells = 50
u_profile = cosine-bump
u_amplitude = 2.0
v_profile = homogeneous
v_amplitude = 2.0
w_amplitude = 0.0
dt_init = 5e-3
t_end = 2.0
record_every = 10
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config("alpha = 1\nn_cells = 100\nt_end = 10\n")
        assert cfg.params.alpha == 1.0
        assert cfg.grid.n_cells == 100
        assert cfg.step.dt_init == 1e-3
        assert cfg.step.safety == 0.2
        assert cfg.u_profile == "homogeneous"

    def test_comments_and_blanks(self):
        cfg = parse_config("# comment\n\nalpha = 2  # trailing\n")
        assert cfg.params.alpha == 2.0

    def test_invariant_violation_names_key(self):
        with pytest.raises(ConfigError, match="alpha must be >= 1"):
            parse_config("alpha = 0.5\n")

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'alpha'.*line 1"):
            parse_config("alpha = 1\nbeta = 1\nalpha = 2\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'bogus'"):
            parse_config("bogus = 3\n")

    def test_removed_threads_key_is_unknown(self, tmp_path, capsys):
        conf = _write(tmp_path, "threads = 2\n")
        assert main(["verify-eed", "--config", str(conf), "--n-samples", "5"]) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="line 1: 'n_cells' expects int"):
            parse_config("n_cells = many\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("alpha = 1\njust words\n")

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="u_profile"):
            parse_config("u_profile = wiggle\n")

    def test_step_config_invariants_checked_at_load(self):
        with pytest.raises(ConfigError):
            parse_config("dt_init = 1e-8\ndt_min = 1e-3\n")


def _with(config: str, key: str, value: str) -> str:
    """`config` with `key` set to `value`, replacing any line that sets it."""
    lines = [line for line in config.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


class TestBoundary:
    """Every rejected input fails at load, exit 2, with a message naming its key."""

    @pytest.mark.parametrize("key,value", [
        ("t_end", "inf"),  # the step loop would never run, leaving a 1-row CSV
        ("u_amplitude", "nan"),
        ("d1", "inf"),
        ("alpha", "inf"),
        ("m1", "5"),  # simulate derives its masses from the profiles
        ("ell", "2"),  # no command reads a rate: each runs the normalised system
        # a factor on R could not move the equilibrium, which stayed ell = k = 1's
        pytest.param("ell", {"gamma": "2", "ell": "4", "k": "1"}, id="ell-4-on-1-1-2"),
    ])
    def test_simulate_repros_exit_2_naming_key(self, tmp_path, capsys, key, value):
        text = REFERENCE_CONFIG
        for name, setting in (value if isinstance(value, dict) else {key: value}).items():
            text = _with(text, name, setting)
        conf = _write(tmp_path, text)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        ("simulate", "seed"), ("simulate", "n_samples"), ("equilibrium", "out"),
        ("equilibrium", "t_end"), ("scan", "seed"), ("verify-eed", "dt_init"),
        # the diffusivities enter only the evolution and D
        ("equilibrium", "d2"), ("scan", "d1"), ("verify-ck", "d3"),
    ])
    def test_subcommand_rejects_keys_it_does_not_read(self, command, key):
        with pytest.raises(ConfigError, match=f"line 2: {command} does not read key '{key}'"):
            parse_config(f"alpha = 1\n{key} = 1\n", command)

    def test_removed_k1_key_is_unknown(self):
        with pytest.raises(ConfigError, match="unknown key 'k1'"):
            parse_config("k1 = 1\n")

    @pytest.mark.parametrize("key,value", [
        ("floor_delta", "1e-3"),  # the sampler's floor is always default_floor(m)
        ("k", "0.5"),  # D is computed for the normalised rates ell = k = 1 only
    ])
    def test_removed_key_and_flag_exit_2(self, tmp_path, capsys, key, value):
        conf = _write(tmp_path, f"{key} = {value}\n")
        report = tmp_path / "report.txt"
        assert main(["verify-eed", "--config", str(conf), "--out", str(report)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not report.exists()
        with pytest.raises(SystemExit) as exc:
            main(["verify-eed", f"--{key.replace('_', '-')}", value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key.replace('_', '-')}" in capsys.readouterr().err

    def test_masses_are_set_together(self):
        with pytest.raises(ConfigError, match="m1 and m2 must be set together"):
            parse_config("m1 = 2\n", "equilibrium")

    def test_flag_overrides_are_validated(self, capsys):
        assert main(["equilibrium", "--m1", "nan", "--m2", "2"]) == 2
        assert "m1 must be finite and > 0" in capsys.readouterr().err

    def test_n_samples_is_one_seed_word(self):
        assert parse_config("n_samples = 4294967295\n", "verify-eed").n_samples == 2**32 - 1
        with pytest.raises(ConfigError, match=re.escape("n_samples must be in [1, 2**32), got")):
            parse_config("", "verify-eed", {"n_samples": 2**32})

    @pytest.mark.parametrize("command,flag,value,message", [
        ("verify-eed", "--seed", "-1", "seed must be >= 0, got -1"),
        ("verify-ck", "--n-samples", "0", "n_samples must be in [1, 2**32), got 0"),
        ("scan", "--n-grid", "99", "n_grid must be >= 100, got 99"),
    ])
    def test_sampling_keys_follow_the_estimators_rules(self, capsys, command, flag, value,
                                                       message):
        # the estimators' own checks, applied when the config is built: exit 2 naming the key
        assert main([command, "--m1", "2", "--m2", "2", flag, value]) == 2
        assert message in capsys.readouterr().err

    def test_large_amplitude_is_a_domain_error(self, tmp_path, capsys):
        # overflows the mass sums: exit 1 with one line, not a traceback
        conf = _write(tmp_path, _with(REFERENCE_CONFIG, "v_amplitude", "1e308"))
        assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_underflowing_equilibrium_names_its_keys(self, tmp_path, capsys):
        # (3, 3, 1) at u = v = 1e-100: the equilibrium's c_inf underflows to 0
        conf = _write(tmp_path, "alpha = 3\nbeta = 3\nn_cells = 8\nu_amplitude = 1e-100\n"
                                "v_amplitude = 1e-100\nt_end = 0.01\n")
        assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert all(f"{key}=" in err for key in ("m1", "m2", "alpha", "beta", "gamma"))
        assert "with a zero component" in err and not (tmp_path / "x.csv").exists()

    def test_overflowing_equilibrium_names_its_keys(self, capsys):
        # the bisection midpoint overflows, and the residual is NaN
        assert main(["equilibrium", "--m1", "1e308", "--m2", "1e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(f"{key}=" in err for key in ("m1", "m2", "alpha", "beta", "gamma"))
        assert "overflows" in err

    @pytest.mark.parametrize("command", ["simulate", "equilibrium"])
    def test_overflowing_profile_masses_name_the_amplitudes(self, tmp_path, capsys, command):
        # cosine-bump cells overflow at 2e308, so m1 derived from them is inf
        conf = _write(tmp_path, "u_profile = cosine-bump\nu_amplitude = 1e308\n")
        out = tmp_path / "x.csv"
        argv = [command, "--config", str(conf)]
        if command == "simulate":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "u_amplitude" in err and "m1 must be" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "equilibrium"])
    def test_zero_profile_masses_name_the_amplitudes(self, tmp_path, capsys, command):
        # no u and no w: m1 = gamma*int(u) + alpha*int(w) derived from them is 0
        conf = _write(tmp_path, "u_amplitude = 0\nw_amplitude = 0\n")
        out = tmp_path / "x.csv"
        argv = [command, "--config", str(conf)]
        if command == "simulate":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "u_amplitude" in err and "m1 must be" not in err
        assert not out.exists()

    @staticmethod
    def _assert_fresh_simulate_prints_one_error_line(tmp_path, text):
        # a fresh interpreter, where numpy's warnings reach stderr uncaptured
        conf = _write(tmp_path, text)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from revreact.cli import main; sys.exit(main())",
             "simulate", "--config", str(conf), "--out", str(tmp_path / "x.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    def test_huge_amplitude_prints_only_its_error_line(self, tmp_path):
        # the t = 0 diagnostics row overflows in the entropy density
        self._assert_fresh_simulate_prints_one_error_line(
            tmp_path, "v_amplitude = 1e306\nn_cells = 50\n")

    @pytest.mark.parametrize("text", [
        # the Fisher information of the t = 0 row overflows
        "u_profile = two-blocks\nu_amplitude = 1e306\nn_cells = 50\n",
        # v**2 overflows in stoich_pow
        "alpha = 2\nbeta = 2\ngamma = 3\nv_amplitude = 1e200\nn_cells = 50\n",
    ], ids=["fisher", "rate"])
    def test_other_overflows_print_only_their_error_line(self, tmp_path, text):
        self._assert_fresh_simulate_prints_one_error_line(tmp_path, text)

    @pytest.mark.parametrize("command", ["simulate", "equilibrium", "scan", "verify-eed"])
    def test_overflowing_balance_law_names_the_exponents(self, tmp_path, capsys, command):
        # the masses stay finite, but c**gamma overflows in the equilibrium bisection
        conf = _write(tmp_path, "gamma = 1e308\nn_cells = 8\n"
                                "u_amplitude = 0.5\nv_amplitude = 0.5\nw_amplitude = 1\n")
        argv = [command, "--config", str(conf)]
        if command != "equilibrium":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in ("alpha", "beta", "gamma"))


# valid values keep every in-process run small: n_cells <= 16, t_end <= 0.05
_VALID = {
    "alpha": ("1", "2"), "beta": ("1", "2"), "gamma": ("1", "3"), "d1": ("1", "0.1"), "d2": ("1", "2"), "d3": ("1", "0.5"),
    "m1": ("2", "0.5"), "m2": ("2", "1e-3"), "n_cells": ("4", "16"),
    "u_profile": ("homogeneous", "cosine-bump", "two-blocks"),
    "v_profile": ("homogeneous", "two-blocks"), "w_profile": ("homogeneous", "cosine-bump"),
    "u_amplitude": ("1", "0.5"), "v_amplitude": ("1", "2"), "w_amplitude": ("0.5", "0.25"),
    "dt_init": ("1e-2", "1e-3"), "dt_min": ("1e-12", "1e-4"), "safety": ("0.2", "1"),
    "t_end": ("0.01", "0.05"), "record_every": ("1", "5"), "seed": ("0", "7"),
    "n_samples": ("5", "20"), "n_grid": ("100", "150"),
    "out": ("report.txt", "other.txt"),
}
_INVALID = ("0", "-1", "nan", "inf", "-inf", "1e308", "many")
_NEVER_VALID = ("-1", "nan", "inf", "-inf")  # rejected for every key but out


def _entries(keys, invalid=_INVALID):
    entry = st.sampled_from(sorted(keys)).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(_VALID[key] + invalid))
    )
    return st.lists(entry, max_size=5, unique_by=lambda e: e[0])


class TestConfigFuzz:
    def test_every_key_has_fuzz_values(self):
        assert set(_VALID) == set(CONFIG_KEYS)

    @given(entries=_entries(CONFIG_KEYS))
    @settings(max_examples=150, deadline=None)
    def test_parse_config_builds_or_names_the_problem(self, entries):
        text = "".join(f"{key} = {value}\n" for key, value in entries)
        for command in (None, *COMMAND_KEYS):
            try:
                cfg = parse_config(text, command)
            except ConfigError as exc:
                assert str(exc)
                continue
            assert isinstance(cfg, RunConfig)
            for key, value in entries:
                assert key == "out" or value not in _NEVER_VALID, (command, key, value)

    @given(entries=_entries(COMMAND_KEYS["simulate"]).filter(
        lambda es: ("t_end", "1e308") not in es  # a finite but endless run
    ))
    @example(entries=[("alpha", "1e308")])
    @example(entries=[("d1", "1e308")])
    @example(entries=[("dt_init", "1e308"), ("dt_min", "1e308")])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_simulate_exits_0_1_or_2(self, tmp_path, capsys, entries):
        # small runs: n_cells <= 16 and t_end <= 0.05 unless set otherwise
        text = "n_cells = 8\nt_end = 0.01\n"
        for key, value in entries:
            text = _with(text, key, value)
        conf = _write(tmp_path, text)
        code = main(["simulate", "--config", str(conf), "--out", str(tmp_path / "f.csv")])
        assert code in (0, 1, 2)
        capsys.readouterr()


def _config_value(cfg: RunConfig, key: str):
    """The value of config key `key` in the built config."""
    part = {ReactionParams: cfg.params, MassPair: cfg.explicit_masses, Grid1D: cfg.grid,
            StepConfig: cfg.step, None: cfg}[CONFIG_KEYS[key][1]]
    return getattr(part, key)


class TestFlags:
    """A config subcommand's flags are exactly the keys it reads."""

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, keys in COMMAND_KEYS.items() for key in keys
    ])
    def test_every_key_read_is_a_flag_that_overrides_the_file(self, tmp_path, command, key):
        # the masses are set together or not at all
        text = "m1 = 2\nm2 = 2\n" if "m1" in COMMAND_KEYS[command] else ""
        in_file, in_flag = _VALID[key][0], _VALID[key][-1]
        assert in_file != in_flag
        conf = _write(tmp_path, _with(text, key, in_file))
        args = build_parser().parse_args(
            [command, "--config", str(conf), f"--{key.replace('_', '-')}", in_flag])
        cfg = _config_from_args(args)
        assert _config_value(cfg, key) == CONFIG_KEYS[key][0](in_flag)

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, keys in COMMAND_KEYS.items()
        for key in (*CONFIG_KEYS, "ell", "k") if key not in keys  # no command reads a rate
    ])
    def test_a_key_not_read_is_no_flag(self, capsys, command, key):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{key.replace('_', '-')}", _VALID.get(key, ("1",))[0]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [], *([command] for command in COMMAND_KEYS), ["fit-rate"], ["duality"], ["validate"],
    ])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert "usage: revreact" in capsys.readouterr().out


class TestProfiles:
    def test_profile_means_match_amplitudes(self):
        cfg = parse_config(REFERENCE_CONFIG)
        s = cfg.initial_state()
        assert integrate(s.u) == pytest.approx(2.0, rel=1e-13)
        assert integrate(s.v) == pytest.approx(2.0, rel=1e-13)
        assert integrate(s.w) == 0.0

    def test_two_blocks(self):
        cfg = parse_config("u_profile = two-blocks\nu_amplitude = 1.5\nn_cells = 10\n")
        s = cfg.initial_state()
        np.testing.assert_array_equal(s.u[:5], 3.0)
        np.testing.assert_array_equal(s.u[5:], 0.0)

    def test_masses_derived_from_profiles(self):
        cfg = parse_config(REFERENCE_CONFIG)
        m = cfg.masses()
        assert m.m1 == pytest.approx(2.0, rel=1e-13)
        assert m.m2 == pytest.approx(2.0, rel=1e-13)

    def test_explicit_masses_win(self):
        cfg = parse_config("m1 = 3\nm2 = 4\n")
        m = cfg.masses()
        assert (m.m1, m.m2) == (3.0, 4.0)


class TestFitRate:
    def test_exact_exponential(self):
        t = np.arange(0.0, 10.01, 0.1)
        series = list(zip(t, 5.0 * np.exp(-2.0 * t)))
        k, intercept, r2 = fit_rate(series)
        assert k == pytest.approx(2.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(5.0), abs=1e-9)

    def test_constant_series(self):
        t = np.arange(0.0, 1.01, 0.1)
        k, _, r2 = fit_rate(list(zip(t, np.full_like(t, 3.0))))
        assert k == 0.0
        assert r2 == 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="too few qualifying"):
            fit_rate([(0.0, 1e-20), (1.0, 1e-20), (2.0, 1e-20), (3.0, 1.0)])

    def test_times_must_increase(self):
        # a NaN or an infinite time is refused too
        for times in [(0.0, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.5, math.nan),
                      (0.0, 0.5, math.inf)]:
            with pytest.raises(ValueError, match="finite and strictly increasing"):
                fit_rate(zip(times, (1.0, 0.5, 0.2)))

    def test_a_nan_value_is_named_by_its_time(self):
        # inf stays allowed: the D column is inf at t = 0
        with pytest.raises(ValueError, match=re.escape("value is NaN at t = 0.5")):
            fit_rate([(0.0, math.inf), (0.5, math.nan), (1.0, 0.2), (2.0, 0.1)])

    def test_an_infinite_value_stays_out_of_the_fallback_fit(self):
        # no point lies below 0.1 * first, so the fit falls back; it used to keep the
        # inf and return NaNs with a numpy warning (any warning fails this suite)
        fit = fit_rate([(0.0, 1.0), (1.0, math.inf), (2.0, 0.5), (3.0, 0.4)])
        assert all(map(math.isfinite, fit))
        assert fit == fit_rate([(0.0, 1.0), (2.0, 0.5), (3.0, 0.4)])

    def test_an_infinite_value_does_not_count_as_qualifying(self):
        with pytest.raises(ValueError, match=re.escape("need 3 finite above 1e-14")):
            fit_rate([(0.0, math.inf), (1.0, 0.5), (2.0, 0.4)])

    @pytest.mark.parametrize("series", [[], [1.0, 2.0, 3.0], [(0.0, 1.0, 2.0)]])
    def test_series_must_be_pairs(self, series):
        with pytest.raises(ValueError, match=re.escape("series must be pairs (t, value)")):
            fit_rate(series)


@pytest.fixture
def small_traj():
    cfg = parse_config(REFERENCE_CONFIG)
    return run(cfg.params, cfg.initial_state(), cfg.step)


def _tamper(path, row, col, value):
    """Set one field of a written CSV; `row` counts data rows from 0, as validate does."""
    header, *data = path.read_text().splitlines()
    parts = data[row].split(",")
    parts[CSV_COLUMNS.index(col)] = value
    data[row] = ",".join(parts)
    path.write_text("\n".join([header, *data]) + "\n")


class TestCsv:
    def test_round_trip(self, tmp_path, small_traj):
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, small_traj)
        rows = read_csv_rows(path)
        assert len(rows) == len(small_traj.rows)
        for got, want in zip(rows, small_traj.rows):
            for col in CSV_COLUMNS:
                a, b = getattr(got, col), getattr(want, col)
                assert a == b or (math.isinf(a) and math.isinf(b))

    def test_infinite_dissipation_token(self, tmp_path, small_traj):
        # w starts at zero, so the first row carries infinite dissipation
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, small_traj)
        first_data_line = path.read_text().splitlines()[1]
        assert "inf" in first_data_line.split(",")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(REFERENCE_CONFIG)
        blobs = []
        for name in ("a.csv", "b.csv"):
            traj = run(cfg.params, cfg.initial_state(), cfg.step)
            path = tmp_path / name
            write_trajectory_csv(path, traj)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_validate_passes_and_catches_tampering(self, tmp_path, small_traj):
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, small_traj)
        rows = read_csv_rows(path)
        assert validate_rows(rows) == []
        _tamper(path, 1, "mass1", repr(rows[1].mass1 * 1.01))
        assert any("mass1" in msg for msg in validate_rows(read_csv_rows(path)))

    def test_validate_fails_on_a_nan_row(self, tmp_path, small_traj, capsys):
        # NaN compares false, so every invariant must be written to fail on it
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, small_traj)
        for col in ("mass1", "E"):
            _tamper(path, 2, col, "nan")
        assert main(["validate", "--csv", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PASS" not in out
        assert "row 2: mass1 drifted to nan" in out
        assert "row 2: entropy increased to nan" in out
        assert "row 3" not in out  # compared with row 1, not with the NaN

    @pytest.mark.parametrize("col,value,message", [
        ("t", "0.0", "FAIL validate row 2: time 0.0 not increasing"),
        ("mass2", "2.5", "FAIL validate row 2: mass2 drifted to 2.5"),
        ("min_conc", "-0.001", "FAIL validate row 2: negative concentration -0.001"),
        ("D", "1.0,2.0", "bad row '"),  # one field too many
    ])
    def test_each_check_catches_one_tampered_field(self, tmp_path, small_traj, capsys,
                                                   col, value, message):
        path = tmp_path / "run.csv"
        write_trajectory_csv(path, small_traj)
        _tamper(path, 2, col, value)
        assert main(["validate", "--csv", str(path)]) == 1
        out, err = capsys.readouterr()
        [line] = (out + err).splitlines()
        assert message in line

    def test_header_only_has_no_rows(self, tmp_path, capsys):
        path = tmp_path / "run.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        assert main(["validate", "--csv", str(path)]) == 1
        assert capsys.readouterr().out == "FAIL validate no rows\n"

    def test_fit_rate_names_a_file_with_no_data_rows(self, tmp_path, capsys):
        path, report = tmp_path / "run.csv", tmp_path / "fit.txt"
        path.write_text(",".join(CSV_COLUMNS) + "\n")
        assert main(["fit-rate", "--csv", str(path), "--out", str(report)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: no data rows to fit, only the header\n"
        assert not report.exists()

    @pytest.mark.parametrize("row,col,message", [
        (2, "t", "times must be finite and strictly increasing"),
        (-1, "t", "times must be finite and strictly increasing"),
        (20, "E_rel", "value is NaN at t = "),
    ])
    def test_fit_rate_refuses_a_nan_in_one_error_line(self, tmp_path, capfd, small_traj,
                                                      row, col, message):
        # capfd, not capsys: LAPACK writes to the file descriptor directly
        path, report = tmp_path / "run.csv", tmp_path / "fit.txt"
        write_trajectory_csv(path, small_traj)
        _tamper(path, row, col, "nan")
        assert main(["fit-rate", "--csv", str(path), "--out", str(report)]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not report.exists()

    def test_header_enforced(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_csv_rows(bad)


class TestMain:
    def test_equilibrium_command(self, capsys):
        code = main(["equilibrium", "--m1", "2", "--m2", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "a_inf=1 b_inf=1 c_inf=1" in out
        assert "residual<=1e-12" in out

    def test_equilibrium_command_at_moderate_masses(self, capsys):
        # the bisection used to run out of halvings once c_inf >= 64
        assert main(["equilibrium", "--m1", "100", "--m2", "100"]) == 0
        assert "c_inf=90.4875078027" in capsys.readouterr().out

    def test_duality_command(self, capsys):
        code = main(["duality", "--da", "1", "--db", "3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["margin=0.5"]

    @pytest.mark.parametrize("da,db,flag", [
        ("nan", "1", "--da"), ("1", "inf", "--db"), ("0", "1", "--da"), ("1", "x", "--db"),
    ])
    def test_duality_rejects_bad_diffusivity(self, capsys, da, db, flag):
        with pytest.raises(SystemExit) as exc:
            main(["duality", "--da", da, "--db", db])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a finite number > 0" in err

    @pytest.mark.parametrize("r2_min", ["nan", "inf", "5"])
    def test_fit_rate_rejects_a_threshold_no_fit_can_pass(self, tmp_path, capsys,
                                                          small_traj, r2_min):
        csv = tmp_path / "run.csv"
        write_trajectory_csv(csv, small_traj)
        out = tmp_path / "fit.txt"
        with pytest.raises(SystemExit) as exc:
            main(["fit-rate", "--csv", str(csv), "--r2-min", r2_min, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --r2-min: must be a finite number <= 1, got '{r2_min}'" in err
        assert not out.exists()  # 0.99 passes: test_simulate_validate_fit_pipeline

    def test_fit_rate_fits_past_an_infinite_value(self, tmp_path, capsys):
        path, report = tmp_path / "run.csv", tmp_path / "fit.txt"
        e_rel = {0.0: "1.0", 1.0: "inf", 2.0: "0.5", 3.0: "0.4"}
        rows = [",".join(value if col == "E_rel" else str(t) if col == "t" else "1.0"
                         for col in CSV_COLUMNS) for t, value in e_rel.items()]
        path.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
        main(["fit-rate", "--csv", str(path), "--out", str(report)])
        out = capsys.readouterr().out
        assert out.startswith("FAIL fit-rate K_fit=0.311") and "nan" not in out.lower()
        assert "nan" not in report.read_text().lower()

    def test_verify_eed_never_reports_nan(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code = main([
            "verify-eed", "--m1", "1e-300", "--m2", "1", "--n-samples", "50",
            "--out", str(out),
        ])
        assert code == 1
        assert "gave a non-finite ratio" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_validate_fit_pipeline(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(REFERENCE_CONFIG + f"out = {tmp_path / 'traj.csv'}\n")
        assert main(["simulate", "--config", str(conf)]) == 0
        assert (tmp_path / "traj.csv").exists()
        assert main(["validate", "--csv", str(tmp_path / "traj.csv")]) == 0
        assert "PASS validate" in capsys.readouterr().out
        code = main([
            "fit-rate", "--csv", str(tmp_path / "traj.csv"),
            "--column", "E_rel", "--r2-min", "0.99",
            "--out", str(tmp_path / "fit.txt"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS fit-rate")
        report = (tmp_path / "fit.txt").read_text()
        assert "status: PASS" in report
        assert "K_fit:" in report

    def test_simulate_without_out_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(REFERENCE_CONFIG)
        assert main(["simulate", "--config", str(conf)]) == 2

    def test_scan_command(self, tmp_path, capsys):
        code = main([
            "scan", "--m1", "2", "--m2", "2",
            "--out", str(tmp_path / "scan.txt"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS scan")
        assert "zero_limit" in (tmp_path / "scan.txt").read_text()

    def test_verify_commands(self, tmp_path, capsys):
        for name in ("verify-eed", "verify-ck"):
            code = main([
                name, "--m1", "2", "--m2", "2", "--n-samples", "40",
                "--n-cells", "32", "--seed", "5",
                "--out", str(tmp_path / f"{name}.txt"),
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert out.startswith(f"PASS {name}")
            assert "min_ratio" in (tmp_path / f"{name}.txt").read_text()

    def test_config_error_exit_code(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("alpha = 0.1\n")
        assert main(["simulate", "--config", str(conf)]) == 2
        assert "alpha must be >= 1" in capsys.readouterr().err

    def test_domain_error_exit_code(self, tmp_path, capsys):
        # no room above the sampler's floor is a domain error, not a usage error;
        # the equilibrium of these inputs exists, so the sampler is what fails
        code = main([
            "verify-eed", "--alpha", "2e6", "--m1", "2", "--m2", "2", "--n-samples", "5",
            "--n-cells", "16", "--out", str(tmp_path / "r.txt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "m1=2.0, m2=2.0 with alpha=2000000.0, beta=1.0, gamma=1.0" in err
        assert "leave no room for w" in err
        assert not (tmp_path / "r.txt").exists()

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/x.conf"]) == 2


def _write(tmp_path, text):
    path = tmp_path / "extra.conf"
    path.write_text(text)
    return path
