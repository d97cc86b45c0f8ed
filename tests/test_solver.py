import dataclasses
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from revreact import solver
from revreact.cli import validate_rows
from revreact.entropy import dissipation, entropy, l1_distances
from revreact.grid import Grid1D, integrate
from revreact.model import ReactionParams, masses_of, weighted_masses
from revreact.solver import (
    State,
    StepConfig,
    StepUnderflowError,
    reaction_rate,
    run,
    steps,
    z_linf,
)

from plain_imex import PlainUnderflow, plain_steps  # tests/plain_imex.py


def step_imex(p, s, dt):
    return solver._Workspace(p, s).attempt(s, dt, 0.2)


def homogeneous_state(n, u, v, w):
    return State(0.0, np.full(n, float(u)), np.full(n, float(v)), np.full(n, float(w)))


def vacuum_blocks(n):
    """u on the left half, v on the right half, no w."""
    x = Grid1D(n).cell_centers()
    return State(0.0, np.where(x < 0.5, 2.0, 0.0), np.where(x >= 0.5, 2.0, 0.0), np.zeros(n))


def mixed_start(n):
    """A start with a bump in u, a step in v and a ramp in w."""
    x = Grid1D(n).cell_centers()
    u = 1.0 + 0.5 * np.cos(np.pi * x) + np.where(x < 0.5, 2.0, 0.0)
    return State(0.0, u, np.where(x >= 0.5, 3.0, 0.1), 0.2 * x)


def rk4_homogeneous(y0, t_end, dt, alpha=1.0, beta=1.0, gamma=1.0):
    """Independent classical RK4 reference for the well-mixed kinetics."""
    def f(y):
        r = y[0] ** alpha * y[1] ** beta - y[2] ** gamma
        return np.array([-alpha * r, -beta * r, gamma * r])

    y = np.array(y0, dtype=float)
    for _ in range(int(round(t_end / dt))):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestStateLayout:
    def test_species_are_the_rows_of_one_array(self):
        u, v, w = np.arange(5.0), np.ones(5), np.zeros(5)
        s = State(0.5, u, v, w)
        assert s.y.shape == (3, 5)
        np.testing.assert_array_equal(s.y, [u, v, w])

    def test_stack_of_fields_is_s_by_3_by_n(self):
        fields = np.random.default_rng(1).uniform(0, 1, (3, 4, 6))
        s = State(0.0, *fields)
        assert s.y.shape == (4, 3, 6)
        np.testing.assert_array_equal(s.v, fields[1])

    def test_fields_are_views_of_y(self):
        s = homogeneous_state(4, 1, 2, 3)
        for name in "uvw":
            assert np.shares_memory(getattr(s, name), s.y)
        s.w[1] = 7.0
        assert s.y[2, 1] == 7.0

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match="u, v, w must share one grid"):
            State(0.0, np.ones(4), np.ones(4), np.ones(5))

    @pytest.mark.parametrize("field", [[1, 2, 3], np.arange(3), np.arange(3, dtype=np.uint8),
                                       np.arange(3, dtype=np.float32), np.arange(3.0)[::-1]])
    def test_real_fields_convert_to_float64(self, field):
        for k in range(3):
            fields = [np.ones(3)] * 3
            fields[k] = field
            s = State(0.0, *fields)
            assert s.y.dtype == np.float64 and s.y.flags.c_contiguous
            np.testing.assert_array_equal(s.y[k], np.asarray(field, dtype=float))

    @pytest.mark.parametrize("field", [np.ones(3, complex), np.ones(3, bool), np.ones(3, object),
                                       np.array(["1", "2", "3"]), [1.0, [2.0], 3.0], "abc"])
    def test_fields_that_are_not_real_numbers_raise_naming_the_field(self, field):
        for k, name in enumerate("uvw"):
            fields = [np.ones(3)] * 3
            fields[k] = field
            with pytest.raises(ValueError, match=f"^{name} must"):
                State(0.0, *fields)

    def test_min_concentration_reduces_each_state_of_a_stack(self):
        u, v, w = np.array([[[3.0, 4.0], [1.0, 9.0]], [[2.0, 6.0], [8.0, 8.0]],
                            [[5.0, 7.0], [0.5, 3.0]]])
        stacked = State(0.0, u, v, w)
        assert stacked.min_concentration().tolist() == [2.0, 0.5]
        for k, low in enumerate((2.0, 0.5)):
            one = State(0.0, u[k], v[k], w[k]).min_concentration()
            assert type(one) is float and one == low


class TestReactionRate:
    def test_equilibrium_point(self):
        assert reaction_rate(ReactionParams(1, 1, 1), 1.0, 1.0, 1.0) == 0.0

    def test_linear_case(self):
        assert reaction_rate(ReactionParams(1, 1, 1), 2.0, 1.0, 1.0) == 1.0

    def test_mixed_exponents(self):
        assert reaction_rate(ReactionParams(2, 1, 3), 2.0, 3.0, 1.0) == 11.0

    def test_rate_factor_applies_when_sum_matches_gamma(self):
        # u v^2 - w^3 = 2*9 - 1 = 17, doubled by (ell/k)^(1/gamma) = 2
        p = ReactionParams(1, 2, 3, ell=8.0, k=1.0)
        assert reaction_rate(p, 2.0, 3.0, 1.0) == pytest.approx(34.0, rel=1e-14)

    def test_vectorized(self):
        p = ReactionParams(1, 1, 2)
        u = np.array([1.0, 2.0])
        out = reaction_rate(p, u, u, u)
        np.testing.assert_allclose(out, u * u - u * u, atol=0)


class TestStepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(dt_init=1e-6, dt_min=1e-3)
        with pytest.raises(ValueError):
            StepConfig(safety=0.0)
        with pytest.raises(ValueError):
            StepConfig(record_every=0)

    @pytest.mark.parametrize("field,value", [
        ("t_end", math.inf), ("t_end", math.nan), ("dt_init", math.nan),
        ("dt_min", math.nan), ("safety", math.nan),
    ])
    def test_non_finite_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and"):
            StepConfig(**{field: value})

    def test_record_every_must_be_an_integer(self):
        # a stride of 2.5 would record where accepted % 2.5 == 0: every 5th step
        with pytest.raises(ValueError, match="record_every must be an integer >= 1, got 2.5"):
            StepConfig(record_every=2.5)
        assert StepConfig(record_every=np.int64(3)).record_every == 3


class TestStepImex:
    def test_equilibrium_is_fixed_point(self):
        p = ReactionParams(1, 1, 1, d1=1, d2=2, d3=3)
        s = homogeneous_state(32, 1, 1, 1)
        out = step_imex(p, s, 1e-3)
        assert out is not None
        assert out.t == pytest.approx(1e-3)
        np.testing.assert_allclose(out.u, 1.0, atol=1e-12)
        np.testing.assert_allclose(out.v, 1.0, atol=1e-12)
        np.testing.assert_allclose(out.w, 1.0, atol=1e-12)

    def test_single_step_mass_conservation(self):
        # dt small enough that the rough random field passes the change cap;
        # the cancellation property itself is dt-independent
        p = ReactionParams(2, 1, 3, d1=0.5, d2=1.5, d3=2.5)
        rng = np.random.default_rng(23)
        s = State(0.0, rng.uniform(0.1, 2, 100), rng.uniform(0.1, 2, 100), rng.uniform(0.1, 2, 100))
        m1 = p.gamma * integrate(s.u) + p.alpha * integrate(s.w)
        m2 = p.gamma * integrate(s.v) + p.beta * integrate(s.w)
        out = step_imex(p, s, 1e-8)
        assert out is not None
        m1_new = p.gamma * integrate(out.u) + p.alpha * integrate(out.w)
        m2_new = p.gamma * integrate(out.v) + p.beta * integrate(out.w)
        assert abs(m1_new - m1) <= 1e-13 * m1
        assert abs(m2_new - m2) <= 1e-13 * m2

    def test_rejection_on_overshoot(self):
        # dt large enough to drive u negative in one explicit update
        p = ReactionParams(1, 1, 1)
        s = homogeneous_state(16, 0.1, 5.0, 0.0)
        assert step_imex(p, s, 1.0) is None

    @pytest.mark.parametrize("species", ["u", "v", "w"])
    def test_nan_cell_is_rejected_not_stepped(self, species):
        # NaN compares false, so each positivity test must fail on it
        fields = {name: np.full(8, 1.0) for name in "uvw"}
        fields[species][3] = np.nan
        assert step_imex(ReactionParams(1, 1, 1), State(0.0, **fields), 1e-3) is None

    def test_rejects_nonpositive_dt(self):
        p = ReactionParams(1, 1, 1)
        with pytest.raises(ValueError):
            step_imex(p, homogeneous_state(8, 1, 1, 1), 0.0)


class TestDiffusionSolve:
    DIFFUSIVITIES = [(1.0, 0.01, 3.0), (0.1, 2.0, 1.0)]
    DTS = [1e-2, 1e-3, 5e-6, 1.0, 1e-12]

    @staticmethod
    def _workspace(n, d):
        p = ReactionParams(1, 1, 1, d1=d[0], d2=d[1], d3=d[2])
        return solver._Workspace(p, homogeneous_state(n, 1, 1, 1))

    @pytest.mark.parametrize("n", [2, 3, 200, 2000])
    def test_solve_matches_scipy_cho_solve_banded_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for d in self.DIFFUSIVITIES:
            workspace = self._workspace(n, d)
            for dt in self.DTS:
                factor = workspace._scaled(dt)[0]
                for b in (rng.uniform(-1, 1, 3 * n), 10.0 ** rng.uniform(-300, 6, 3 * n)):
                    expected = scipy.linalg.cho_solve_banded((factor, False), b)
                    assert solver.cho_solve_banded(factor, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 200, 2000])
    def test_block_factor_is_the_species_factors_side_by_side(self, n):
        # the identity that keeps the three-species solve, and the reference CSV, bit for bit
        dx2 = Grid1D(n).dx ** 2
        rng = np.random.default_rng(n)
        for d in self.DIFFUSIVITIES:
            workspace = self._workspace(n, d)
            for dt in self.DTS:
                species = []
                for dk in d:
                    lam = dt * dk / dx2
                    ab = np.empty((2, n))
                    ab[0] = -lam
                    ab[0, 0] = 0.0
                    ab[1] = 1.0 + 2.0 * lam
                    ab[1, [0, -1]] = 1.0 + lam
                    species.append(scipy.linalg.cholesky_banded(ab))
                factor = workspace._scaled(dt)[0]
                assert factor.tobytes() == np.concatenate(species, axis=1).tobytes()
                b = rng.uniform(-1, 1, (3, n))
                each = [solver.cho_solve_banded(f, row) for f, row in zip(species, b)]
                block = solver.cho_solve_banded(factor, b.ravel())
                assert block.tobytes() == np.concatenate(each).tobytes()
                for lo, hi in ((0, 1), (1, 2), (2, 3), (0, 2), (1, 3)):  # the fallback's spans
                    span = solver.cho_solve_banded(factor[:, lo * n:hi * n], b[lo:hi].ravel())
                    assert span.tobytes() == np.concatenate(each[lo:hi]).tobytes()
            assert list(workspace._factors) == self.DTS  # one factor per dt

    @staticmethod
    def _overflowing_state():
        # every other cell at 1e306: the Laplacian's fluxes overflow to inf
        u = np.where(np.arange(200) % 2 == 0, 1e306, 0.0)
        return State(0.0, u, np.zeros(200), np.zeros(200))

    def test_non_finite_right_hand_side_raises_in_a_step(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            with pytest.warns(RuntimeWarning, match="overflow"):
                step_imex(ReactionParams(1, 1, 1), self._overflowing_state(), 1e-3)

    def test_non_finite_right_hand_side_raises_in_a_run(self):
        cfg = StepConfig(dt_init=1e-3, t_end=1e-2)
        with pytest.raises(ValueError, match="infs or NaNs"):
            with pytest.warns(RuntimeWarning, match="overflow"):
                next(steps(ReactionParams(1, 1, 1), self._overflowing_state(), cfg))


class TestRun:
    # run() and steps() check the start when called; steps() before any next()
    def test_requires_normalised_rates(self):
        p = ReactionParams(1, 1, 1, ell=3.0)
        for start in (run, steps):
            with pytest.raises(ValueError, match="run expects normalised rates"):
                start(p, homogeneous_state(8, 1, 1, 1), StepConfig(t_end=0.01))

    def test_rejects_a_one_cell_start_naming_n_cells(self):
        for start in (run, steps):
            with pytest.raises(ValueError, match="n_cells must be an integer >= 2, got 1"):
                start(ReactionParams(1, 1, 1), homogeneous_state(1, 1, 1, 1), StepConfig(t_end=0.01))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_state(self, bad):
        s = homogeneous_state(8, 1, 1, 1)
        s.v[2] = bad
        for start in (run, steps):
            with pytest.raises(ValueError, match="initial state has non-finite cells"):
                start(ReactionParams(1, 1, 1), s, StepConfig(t_end=0.01))

    def test_rejects_negative_initial_state(self):
        s = homogeneous_state(8, 1, 1, 1)
        s.w[5] = -1e-3
        for start in (run, steps):
            with pytest.raises(ValueError, match="initial state has negative cells"):
                start(ReactionParams(1, 1, 1), s, StepConfig(t_end=0.01))

    def test_rejects_start_after_t_zero(self):
        s = State(0.5, *homogeneous_state(8, 1, 1, 1).y)
        for start in (run, steps):
            with pytest.raises(ValueError, match="runs start at t = 0"):
                start(ReactionParams(1, 1, 1), s, StepConfig(t_end=0.01))

    def test_rejects_a_stacked_start_naming_both_shapes(self):
        stack = State(0.0, *np.ones((3, 2, 8)))
        p = ReactionParams(1, 1, 1, ell=3.0)  # the shape is checked before the rates
        for start in (run, steps):
            with pytest.raises(ValueError, match=r"y of shape \(3, n\), got \(2, 3, 8\)"):
                start(p, stack, StepConfig(t_end=0.01))

    @staticmethod
    def _row_of_one_state(p, s, e, dt):
        mass1, mass2 = weighted_masses(p, s)
        return solver.DiagnosticsRow(
            t=s.t, dt=dt, mass1=mass1, mass2=mass2, **vars(dissipation(p, s, e)),
            **dict(zip(("l1_u", "l1_v", "l1_w"), l1_distances(s, e))),
            min_conc=s.min_concentration(),
        )

    @pytest.mark.parametrize("n", [2, 200, 2000])
    @pytest.mark.parametrize("record_every", [1, 3, 20])
    def test_rows_equal_rows_built_one_state_at_a_time(self, n, record_every):
        # k = 2^13 // 3n states per stacked call: 1365 at n = 2 (a run shorter than one
        # buffer), 13 at n = 200 (several full buffers, or one part-filled), 1 at n = 2000
        p = ReactionParams(2, 1, 3, ell=8.0, d1=1.0, d2=0.1, d3=0.01)
        x = Grid1D(n).cell_centers()
        # w > 0 beside the vacuum: the t = 0 row has an infinite reaction term
        s0 = State(0.0, np.where(x < 0.5, 2.0, 0.0), np.where(x >= 0.5, 2.0, 0.0), np.full(n, 0.1))
        cfg = StepConfig(dt_init=1e-3, t_end=0.043, record_every=record_every)
        accepted = list(steps(p, s0, cfg))
        recorded = [(s0, 0.0)] + accepted[record_every - 1::record_every]
        if len(accepted) % record_every:
            recorded.append(accepted[-1])  # the final row, off a multiple of record_every
        traj = run(p, s0, cfg)
        e = traj.equilibrium
        expected = [self._row_of_one_state(p, s, e, dt) for s, dt in recorded]
        assert math.isinf(expected[0].reaction_term)
        assert len(traj.rows) == len(expected)
        for got, want in zip(traj.rows, expected):
            assert all(type(x) is float for x in dataclasses.astuple(got))
            assert np.array(dataclasses.astuple(got)).tobytes() == \
                np.array(dataclasses.astuple(want)).tobytes()

    def test_final_is_the_last_accepted_state(self):
        p = ReactionParams(2, 1, 3, d1=1.0, d2=0.1, d3=0.01)
        x = Grid1D(40).cell_centers()
        s0 = State(0.0, np.where(x < 0.5, 2.0, 0.0), np.where(x >= 0.5, 2.0, 0.0), np.zeros(40))
        cfg = StepConfig(dt_init=1e-3, t_end=0.05, record_every=7)
        *_, (last, dt) = steps(p, s0, cfg)
        traj = run(p, s0, cfg)
        np.testing.assert_array_equal(traj.final.y, last.y)
        assert traj.final.t == last.t == traj.rows[-1].t
        assert traj.rows[-1].dt == dt
        assert not hasattr(traj, "states")

    def test_reaction_overshoot_is_rejected_so_the_entropy_never_rises(self):
        # with v at mean 30, an explicit update that passes the change cap can
        # still carry cells past R = 0, where the entropy along their reaction
        # line is smallest
        x = Grid1D(200).cell_centers()
        s0 = State(0.0, 1.0 - np.cos(2 * np.pi * x), np.full(200, 30.0), np.zeros(200))
        cfg = StepConfig(dt_init=1e-2, t_end=1.0, record_every=1)
        assert validate_rows(run(ReactionParams(2, 2, 3), s0, cfg).rows) == []

    def test_equilibrium_stays_flat(self):
        p = ReactionParams(1, 1, 1, d1=1, d2=2, d3=3)
        traj = run(p, homogeneous_state(16, 1, 1, 1), StepConfig(t_end=0.5, record_every=5))
        for row in traj.rows:
            assert row.D == pytest.approx(0.0, abs=1e-20)
            assert row.E == pytest.approx(-3.0, abs=1e-12)

    def test_relaxation_and_diagnostics(self):
        g = Grid1D(100)
        x = g.cell_centers()
        p = ReactionParams(1, 1, 1, d1=1, d2=1, d3=1)
        s0 = State(0.0, 2.0 * (1 - np.cos(2 * np.pi * x)), np.full_like(x, 2.0), np.zeros_like(x))
        traj = run(p, s0, StepConfig(dt_init=5e-3, t_end=8.0, record_every=10))
        t = traj.column("t")
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        # masses constant, entropy monotone, positivity
        m1 = traj.column("mass1")
        m2 = traj.column("mass2")
        assert np.max(np.abs(m1 - m1[0])) <= 1e-12 * m1[0]
        assert np.max(np.abs(m2 - m2[0])) <= 1e-12 * m2[0]
        E = traj.column("E")
        assert np.all(np.diff(E) <= 1e-10 * (1 + np.abs(E[:-1])))
        assert traj.column("min_conc").min() >= 0.0
        # converges toward (1,1,1)
        last = traj.rows[-1]
        assert last.l1_u + last.l1_v + last.l1_w < 1e-5

    def test_matches_independent_rk4_on_homogeneous_data(self):
        # short horizon version of the kinetics oracle
        p = ReactionParams(1, 1, 1, d1=1, d2=2, d3=3)
        cfg = StepConfig(dt_init=1e-5, dt_min=1e-8, safety=1.0, t_end=0.1, record_every=10**6)
        traj = run(p, homogeneous_state(4, 2, 2, 0), cfg)
        ref = rk4_homogeneous([2.0, 2.0, 0.0], 0.1, 1e-6)
        final = traj.final
        err = max(
            np.abs(final.u - ref[0]).max(),
            np.abs(final.v - ref[1]).max(),
            np.abs(final.w - ref[2]).max(),
        )
        assert err < 5e-5

    def test_dt_underflow_reports(self):
        # a safety cap this tight rejects every step until dt_min is hit
        p = ReactionParams(1, 1, 1)
        s0 = homogeneous_state(8, 2, 2, 0)
        cfg = StepConfig(dt_init=1e-2, dt_min=5e-3, safety=1e-6, t_end=1.0)
        with pytest.raises(StepUnderflowError):
            run(p, s0, cfg)

    def test_degenerate_stoichiometry_rate_factor_in_run(self):
        # alpha+beta == gamma keeps the rate ratio; masses use the same R in
        # all equations so the weighted sums remain conserved
        p = ReactionParams(1, 2, 3, ell=8.0, k=1.0, d1=1, d2=1, d3=1)
        g = Grid1D(32)
        s0 = homogeneous_state(32, 2.0, 2.0, 0.1)
        traj = run(p, s0, StepConfig(dt_init=1e-4, t_end=0.05, record_every=50))
        m1 = traj.column("mass1")
        assert np.max(np.abs(m1 - m1[0])) <= 1e-12 * m1[0]


class TestWorkspace:
    """The buffers reused across attempts change no result and leak into no state."""

    P = ReactionParams(2, 1, 3, d1=1.0, d2=0.1, d3=0.01)

    def test_accepted_states_share_no_buffer(self):
        kept, copies = [], []
        for s, _ in steps(self.P, vacuum_blocks(40), StepConfig(dt_init=1e-3, t_end=0.05)):
            if len(kept) < 20:
                kept.append(s)
                copies.append(s.y.copy())
        assert len(kept) == 20
        for s, y in zip(kept, copies):
            np.testing.assert_array_equal(s.y, y)

    def test_rejections_and_fallbacks_repeat_the_pinned_bits(self, monkeypatch):
        # rows and final state of this run as computed before the workspace existed
        # (numpy 2.4.6, scipy 1.17.1)
        pinned = "7020aee539bf693240a9e7c05c849d921fe66b5a78570275cb9381509faa1cbb"
        calls = dict.fromkeys(("reaction_rate", "State", "laplacian_neumann", "cho_solve_banded"), 0)

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        traj = run(self.P, vacuum_blocks(400), StepConfig(dt_init=1e-3, t_end=0.2, record_every=5))
        rows = np.array([dataclasses.astuple(r) for r in traj.rows])
        digest = hashlib.sha256(rows.tobytes() + traj.final.y.tobytes()).hexdigest()
        assert calls["reaction_rate"] > calls["State"]  # rejected attempts
        assert calls["cho_solve_banded"] > calls["laplacian_neumann"]  # direct-solve fallbacks
        assert digest == pinned

    # rows and final state of these runs as computed before the small-grid fsum, the
    # sign test's quiet bound and the change test's short cut (numpy 2.4.6, scipy 1.17.1)
    @pytest.mark.parametrize("n,p,cfg,pinned", [
        (4, ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0),
         StepConfig(dt_init=0.5, t_end=2.0, safety=1.0, record_every=3),
         "cd3ab5353e5e9d1c0594ff687a5a374d3eae30ceeea8baf3a5a540e99f10e8f5"),
        (32, ReactionParams(2, 1, 3, d1=1.0, d2=0.1, d3=0.01),
         StepConfig(dt_init=0.2, t_end=1.0, safety=0.5, record_every=4),
         "ce0d66ff35b71ce1e95eb2fe9976482ddf16893db6aee2d7b6bb2d8a13455c30"),
    ])
    def test_small_grids_with_overshoots_repeat_the_pinned_bits(self, monkeypatch, n, p, cfg,
                                                                 pinned):
        react, overshoots = solver._Workspace._react, []

        def counted(workspace, y, dt):
            ok = react(workspace, y, dt)
            # rejected with no negative cell: the rate changed sign (an overshoot)
            overshoots.append(not ok and workspace.y1.min() >= 0.0)
            return ok

        monkeypatch.setattr(solver._Workspace, "_react", counted)
        traj = run(p, mixed_start(n), cfg)
        rows = np.array([dataclasses.astuple(r) for r in traj.rows])
        assert any(overshoots)
        assert hashlib.sha256(rows.tobytes() + traj.final.y.tobytes()).hexdigest() == pinned


def random_start(n, seed, vacuum):
    """Cells uniform in [0, 3), each set to 0 with probability vacuum."""
    rng = np.random.default_rng(seed)
    return State(0.0, *(rng.uniform(0.0, 3.0, (3, n)) * (rng.random((3, n)) >= vacuum)))


def fast_and_plain(p, s0, cfg):
    """The (t, dt, y bytes) sequences of steps() and of the plain stepper, and where each
    raised its underflow error (None if it reached t_end)."""
    def collect(accepted, error):
        out = []
        try:
            for t, dt, y in accepted:
                out.append((t, dt, y.tobytes()))
        except error as e:
            return out, getattr(e, "t", out[-1][0] if out else 0.0)
        return out, None

    return (collect(((s.t, dt, s.y) for s, dt in steps(p, s0, cfg)), StepUnderflowError),
            collect(plain_steps(p, s0.y, cfg), PlainUnderflow))


class TestPlainSpecification:
    """steps() makes the plain stepper's run (tests/plain_imex.py) bit for bit, including the
    steps it answers from a fixed point without computing them."""

    @settings(max_examples=30, deadline=None)
    @given(
        exponents=st.tuples(*[st.integers(1, 3)] * 3),
        d=st.tuples(*[st.floats(0.05, 3.0)] * 3),
        n=st.sampled_from([2, 3, 4, 17, 64, 65, 96]),  # both sides of _FSUM_CELLS
        seed=st.integers(0, 2**32 - 1),
        vacuum=st.sampled_from([0.0, 0.3, 0.7]),
        dt_init=st.sampled_from([1e-2, 5e-2, 0.2]),
        safety=st.sampled_from([0.2, 1.0]),
        t_end=st.sampled_from([0.5, 10.0]),
        dt_min=st.sampled_from([1e-12, 1e-6, 1e-3]),  # the larger ones make runs underflow
    )
    # runs that reach a bitwise fixed point, at steps 204 and 127
    @example(exponents=(2, 3, 2), d=(3.0, 1.0, 0.5), n=2, seed=0, vacuum=0.3, dt_init=0.05,
             safety=1.0, t_end=10.0, dt_min=1e-12)
    @example(exponents=(1, 3, 3), d=(2.0, 1.0, 1.0), n=3, seed=5, vacuum=0.3, dt_init=0.2,
             safety=1.0, t_end=10.0, dt_min=1e-12)
    def test_steps_equal_the_plain_stepper_bit_for_bit(self, exponents, d, n, seed, vacuum,
                                                        dt_init, safety, t_end, dt_min):
        p = ReactionParams(*exponents, d1=d[0], d2=d[1], d3=d[2])
        cfg = StepConfig(dt_init=dt_init, dt_min=dt_min, safety=safety, t_end=t_end)
        fast, plain = fast_and_plain(p, random_start(n, seed, vacuum), cfg)
        assert fast == plain

    def test_reference_run_equals_the_plain_stepper_through_its_fixed_point(self, monkeypatch):
        p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
        x = Grid1D(200).cell_centers()
        s0 = State(0.0, 2.0 * (1.0 - np.cos(2.0 * np.pi * x)), np.full(200, 2.0), np.zeros(200))
        calls = []
        monkeypatch.setattr(solver, "reaction_rate",
                            lambda *args: calls.append(1) or reaction_rate(*args))
        (fast, fast_end), (plain, plain_end) = fast_and_plain(p, s0, StepConfig(dt_init=1e-2,
                                                                                t_end=20.0))
        assert fast == plain and fast_end is plain_end is None
        assert len(fast) == 2061
        # step 1200 returns its input, which stays put to t_end; 860 of the steps from there
        # on are answered from the remembered fixed point, never computed
        assert fast[1197][2] != fast[1198][2] == fast[-1][2]
        assert len(calls) == 2068 - 860

    def test_a_fixed_point_changed_in_place_is_stepped_from_its_new_data(self):
        p = ReactionParams(2, 3, 2, d1=3.0, d2=2.0, d3=2.0)
        s0 = random_start(4, 2, 0.3)
        cfg = StepConfig(dt_init=0.05, safety=1.0, t_end=10.0)
        fast, plain = steps(p, s0, cfg), plain_steps(p, s0.y, cfg)
        previous, changed = None, None
        for (s, dt), (t, plain_dt, y) in zip(fast, plain):
            assert (s.t, dt, s.y.tobytes()) == (t, plain_dt, y.tobytes())
            if changed is not None:
                assert s.y.tobytes() != changed  # stepped from the changed data
                break
            if s.y.tobytes() == previous:  # a fixed point, remembered by the run
                for z in (s.y, y):
                    z[0, 0] *= 0.5
                    z[2, 3] += 0.25
                changed = s.y.tobytes()
            previous = s.y.tobytes()
        assert changed is not None


class TestSubsteps:
    """Each substep of an attempt keeps its own invariants, tested without the other."""

    PROFILES = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=36, max_size=36)

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.tuples(*[st.integers(1, 3)] * 3), cells=PROFILES,
           dt=st.floats(1e-6, 0.5))
    def test_react_keeps_the_anchored_masses_and_no_negative_cell(self, exponents, cells, dt):
        p = ReactionParams(*exponents)
        s = State(0.0, *np.reshape(cells, (3, 12)))
        workspace = solver._Workspace(p, s)
        if workspace._react(s.y, dt):
            totals = [math.fsum(f) for f in workspace.y1]
            for m, anchor in zip(masses_of(p, totals), workspace.anchors):
                assert abs(m - anchor) <= 1e-11 * abs(anchor)
            assert workspace.y1.min() >= 0.0

    @staticmethod
    def _react_recorded(p, s, dt, loud=False):
        """_react's outcome, y1 and warnings; loud: the sign test always in np.errstate,
        as it used to be."""
        workspace = solver._Workspace(p, s)
        quiet = np.errstate(over="ignore", invalid="ignore") if loud else solver._QUIET
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(solver, "_QUIET", quiet):
            warnings.simplefilter("always")
            ok = workspace._react(s.y, dt)
        return ok, workspace.y1.tobytes(), [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("overshoot", [False, True])
    @pytest.mark.parametrize("side", [-1.0, 0.0, 1.0])  # high just below, at, just above quiet
    def test_sign_test_skips_errstate_only_up_to_the_quiet_bound(self, monkeypatch, side,
                                                                 overshoot):
        dt, p = 1e-12, ReactionParams(1, 1, 1)
        quiet = solver._Workspace(p, homogeneous_state(4, 1, 1, 1))._scaled(dt)[3]
        high = quiet if side == 0.0 else np.nextafter(quiet, side * math.inf)
        # cell 0 holds high with a zero rate; at w = 4e24, u1 = v1 = 4e12 reverse the rate
        y = np.array([[high, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 0.0],
                      [0.0, 0.5, 1.0, 4e24 if overshoot else 1.0]])
        s = State(0.0, *y)
        entries, errstate = [], np.errstate

        def counted(**kwargs):
            entries.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok = solver._Workspace(p, s)._react(s.y, dt)
        assert len(entries) == (side > 0.0)
        assert ok is not overshoot
        assert self._react_recorded(p, s, dt) == self._react_recorded(p, s, dt, loud=True)

    @settings(max_examples=200, deadline=None)
    @given(exponents=st.tuples(*[st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 5.0])] * 3),
           ell=st.floats(1e-300, 1e300),
           cells=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)), min_size=12,
                          max_size=12),
           dt=st.floats(1e-300, 10.0))
    # r1 * r overflows while y1 stays in [0, high]: above the bound, and above it only
    # through the rate factor (1e150 here)
    @example(exponents=(1.0, 1.0, 2.0), ell=1.0, cells=[1e154] * 8 + [0.99e154] * 4, dt=1e-200)
    @example(exponents=(1.0, 1.0, 2.0), ell=1e300, cells=[1e16] * 8 + [0.99e16] * 4, dt=1e-250)
    def test_sign_test_warns_as_the_errstate_form_does(self, exponents, ell, cells, dt):
        # ell enters only as the rate factor of alpha + beta == gamma
        p = ReactionParams(*exponents, ell=ell)
        s = State(0.0, *np.reshape(cells, (3, 4)))
        assert self._react_recorded(p, s, dt) == self._react_recorded(p, s, dt, loud=True)

    @settings(max_examples=300, deadline=None)
    @given(exponent=st.integers(-1080, 1000),
           cells=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=6, max_size=6),
           moves=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
           safety=st.floats(0.0, 1.0, exclude_min=True))
    @example(exponent=-1074, cells=[1.0, 0.0, 0.5, 0.0, 0.0, 0.0], moves=[0.5] * 6, safety=1.0)
    @example(exponent=0, cells=[1.0, 0.0, 0.5, 0.0, 0.0, 0.0], moves=[0.4999999] * 6,
             safety=5e-324)
    def test_change_short_cut_accepts_only_what_the_divide_test_accepts(self, exponent, cells,
                                                                        moves, safety):
        y = np.reshape(cells, (3, 2)) * 2.0**exponent  # scales down to subnormal
        c = solver._REL_CHANGE_FLOOR * y.max()
        y2 = np.abs(y + np.reshape(moves, (3, 2)) * (safety * c))  # near the short cut's edge
        workspace = solver._Workspace(ReactionParams(), State(0.0, *y))
        workspace.y2[:] = y2
        with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 divides 0 by 0, as before
            settled = workspace._settled(y, 0.01, safety)
            full = not y.max() > 0.0 or (np.abs(y2 - y) / (y + c)).max() <= safety
        assert settled == full

    def test_change_short_cut_leaves_y1_alone(self):
        s = homogeneous_state(8, 1, 2, 3)
        workspace = solver._Workspace(ReactionParams(), s)
        workspace.y1[:], workspace.y2[:] = -1.0, s.y
        assert workspace._settled(s.y, 0.01, 0.2)
        assert (workspace.y1 == -1.0).all()  # no floor was written: the short cut decided
        assert workspace.still == (0.01, 0.2, s.y.tobytes())  # y2 is y: a fixed point

    def test_react_rejects_an_overshoot(self):
        # R = 1 at (1, 1, 0); dt = 0.9 lands on (0.1, 0.1, 0.9), where R < 0
        s = homogeneous_state(8, 1, 1, 0)
        workspace = solver._Workspace(ReactionParams(1, 1, 1), s)
        assert workspace._react(s.y, 1e-2)
        assert not workspace._react(s.y, 0.9)
        assert workspace.y1.min() >= 0.0  # rejected for the overshoot, not for a negative cell

    @staticmethod
    def _diffused(p, y1, dt):
        workspace = solver._Workspace(p, State(0.0, *y1))
        workspace.y1[:] = y1
        ok = workspace._diffuse(dt)
        for before, after in zip(y1, workspace.y2):
            # a few roundings of the cells and of their changes, each relative or, below
            # the normal range, up to ulp(0.0) (the standard model's underflow term); the
            # direct solve alone is further off, so this also checks that a fallback row
            # is re-anchored
            rounding = (4 * np.finfo(float).eps * math.fsum(before + np.abs(after - before))
                        + 4 * len(before) * math.ulp(0.0))
            assert abs(math.fsum(after) - math.fsum(before)) <= rounding
        if ok:
            assert workspace.y2.min() >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(d=st.tuples(*[st.floats(1e-2, 10.0)] * 3), cells=PROFILES, dt=st.floats(1e-8, 1.0))
    # one subnormal cell in w: its row sum moves by 4 * ulp(0.0), where 4 * eps * sum is 0
    @example(d=(1.0, 1.0, 1.0), cells=[0.0] * 24 + [2.225073858507e-311] + [0.0] * 11, dt=1.0)
    def test_diffuse_keeps_each_row_sum(self, d, cells, dt):
        self._diffused(ReactionParams(d1=d[0], d2=d[1], d3=d[2]), np.reshape(cells, (3, 12)), dt)

    def test_diffuse_fallback_leaves_no_negative_cell(self, monkeypatch):
        solves, cho_solve_banded = [], solver.cho_solve_banded

        def counted(*args):
            solves.append(args)
            return cho_solve_banded(*args)

        monkeypatch.setattr(solver, "cho_solve_banded", counted)
        fell_back = 0
        for n in (40, 100, 400):
            for d in ((1.0, 0.1, 0.01), (1.0, 1.0, 1.0), (0.01, 0.01, 0.01)):
                p = ReactionParams(2, 1, 3, d1=d[0], d2=d[1], d3=d[2])
                for dt in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                    solves.clear()
                    self._diffused(p, vacuum_blocks(n).y, dt)
                    fell_back += len(solves) == 2
        assert fell_back >= 10  # the direct solve ran, and its cells were checked


class TestRowSums:
    """_row_sums returns math.fsum's bits for every row, whichever branch proves them."""

    @staticmethod
    def _row_sums(y):
        return solver._row_sums(y, y.min(), float(y.max()), np.empty((2,) + y.shape))

    @staticmethod
    def _bits(values):
        return [float(x).hex() for x in values]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 3000),
        seed=st.integers(0, 2**32 - 1),
        exponents=st.tuples(st.integers(-1074, 999), st.integers(0, 2000)),
        digits=st.sampled_from([53, 3]),  # 3 significant bits put sums on and near ties
        zeros=st.sampled_from([0.0, 0.5]),
        special=st.sampled_from(["none", "zero row", "tiny row", "subnormals"]),
    )
    def test_equals_fsum_bit_for_bit(self, n, seed, exponents, digits, zeros, special):
        rng = np.random.default_rng(seed)
        lowest, span = exponents
        k = rng.integers(lowest, min(lowest + span, 1000), (3, n), endpoint=True)
        y = np.ldexp(rng.integers(1, 2**digits, (3, n), endpoint=True) / 2.0**digits, k)
        y[rng.random((3, n)) < zeros] = 0.0
        row = rng.integers(3)
        if special == "zero row":
            y[row] = 0.0
        elif special == "tiny row":
            y[row] *= 1e-12
        elif special == "subnormals":
            cells = rng.random((3, n)) < 0.2
            y[cells] = rng.integers(0, 2**20, cells.sum()) * 2.0**-1074
        assert self._bits(self._row_sums(y)) == self._bits(math.fsum(f) for f in y)

    @pytest.fixture
    def branches(self, monkeypatch):
        """Rows summed by the bracket (two fsum calls on tuples) and by fsum on memoryviews."""
        counts = {"bracket": 0, "fsum": 0}

        class CountedMath:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def fsum(xs):
                counts["bracket" if isinstance(xs, tuple) else "fsum"] += 1
                return math.fsum(xs)

        monkeypatch.setattr(solver, "math", CountedMath())
        return counts

    ROWS = [
        # row, the branch that sums it, and its fsum
        ([1.0, 1.0 + 2**-52], "exact", 2.0),  # a tie, settled half-even by T + R
        ([1.0, 2**-53], "fsum", 1.0),  # a tie the bracket straddles
        ([1.0, 2**-53, 2**-200, 0.0], "fsum", 1.0 + 2**-52),  # 2**-200 off a tie
        # 1.5 e/2 off a tie, e = n^2 s 2^-105 = 2^-97 with s = 16: a bracket half as wide,
        # as from an s one power of two smaller, would settle it
        ([1.0, 2**-53 + 3 * 2**-99, 0.0, 0.0], "fsum", 1.0 + 2**-52),
        ([1.0, 2**-53 + 2**-96, 0.0, 0.0], "bracket", 1.0 + 2**-52),  # 2 e off a tie
        # n s 2^-105 = 2^-99 = 4 ulp(low): an exact case four times as loose would add the
        # r exactly to 2^-101 and lose that bit, 2^-101 off a tie
        ([1.0, 2**-49 + 2**-54, 2**-49 + 2**-54, 2**-49 + 2**-101], "fsum", 1.0 + 25 * 2**-52),
        ([math.inf, 1.0], "unsplit", math.inf),
        ([math.nan, 1.0], "unsplit", math.nan),
        ([0.0, 0.0], "unsplit", 0.0),
        ([2.0**1000, 1.0], "unsplit", 2.0**1000 + 1.0),
        ([2.0**-1074, 0.0, 2.0**-1074], "unsplit", 2.0**-1073),  # below 2^-900
        ([2.0**996, 2.0**995], "exact", 3 * 2.0**995),  # s = 2^999, at the top of the range
    ]

    @pytest.mark.parametrize("row, branch, total", ROWS)
    def test_hand_built_rows_take_their_branch(self, branches, row, branch, total):
        y = np.array([row] * 3)
        assert self._bits(self._row_sums(y)) == self._bits([math.fsum(row)] * 3)
        assert self._bits([math.fsum(row)]) == self._bits([total])
        expected = {"exact": (0, 0), "bracket": (6, 0), "fsum": (6, 3), "unsplit": (0, 3)}
        assert (branches["bracket"], branches["fsum"]) == expected[branch]

    def test_a_zero_row_leaves_the_others_to_the_bracket(self, branches):
        y = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25], [3.0, 0.0, 1.0]])
        assert self._bits(self._row_sums(y)) == self._bits(math.fsum(f) for f in y)
        assert branches == {"bracket": 6, "fsum": 1}

    def test_overflowing_row_raises_as_fsum_does(self):
        y = np.full((3, 2), 2.0**1023)
        with pytest.raises(OverflowError):
            math.fsum(y[0])
        with pytest.raises(OverflowError):
            self._row_sums(y)


class TestInvariantsProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        exponents=st.tuples(*[st.integers(1, 3)] * 3),
        d=st.tuples(*[st.floats(1e-2, 10.0)] * 3),
        cells=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=36, max_size=36),
    )
    def test_every_accepted_state_conserves_masses_stays_nonnegative_and_dissipates(
        self, exponents, d, cells
    ):
        p = ReactionParams(*exponents, d1=d[0], d2=d[1], d3=d[2])
        s0 = State(0.0, *np.reshape(cells, (3, 12)))
        masses, prev_E = weighted_masses(p, s0), entropy(s0)
        s = s0
        for s, _ in steps(p, s0, StepConfig(dt_init=1e-3, t_end=0.02)):
            for m, m0 in zip(weighted_masses(p, s), masses):
                assert abs(m - m0) <= 1e-11 * abs(m0)
            assert s.min_concentration() >= 0.0
            E = entropy(s)
            assert E <= prev_E + 1e-10 * (1.0 + abs(prev_E))  # validate_rows' tolerance
            prev_E = E
        assert s.t == pytest.approx(0.02)


class TestEntropyDissipationConsistency:
    @staticmethod
    def _finite_difference_defect(n, dt):
        # smooth strictly positive data, fixed dt (safety=1 disables the cap)
        g = Grid1D(n)
        x = g.cell_centers()
        p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
        s0 = State(
            0.0,
            2.0 + 0.5 * np.cos(2 * np.pi * x),
            2.0 - 0.3 * np.cos(2 * np.pi * x),
            1.0 + 0.2 * np.cos(4 * np.pi * x),
        )
        cfg = StepConfig(dt_init=dt, dt_min=dt / 8, safety=1.0, t_end=0.2, record_every=1)
        traj = run(p, s0, cfg)
        t = traj.column("t")
        E = traj.column("E")
        D = traj.column("D")
        rates = -(E[1:] - E[:-1]) / np.diff(t)
        return np.max(np.abs(rates - D[:-1]))

    def test_discrete_entropy_balance_refines(self):
        # -dE/dt matches the reported D to O(dt + dx^2): halving both
        # shrinks the defect
        coarse = self._finite_difference_defect(50, 2e-3)
        fine = self._finite_difference_defect(100, 1e-3)
        assert fine < coarse
        assert fine < 0.75 * coarse


class TestZLinf:
    def test_all_ones(self):
        assert z_linf(ReactionParams(1, 1, 1), homogeneous_state(8, 1, 1, 1)) == 4.0

    def test_single_species(self):
        assert z_linf(ReactionParams(1, 1, 1), homogeneous_state(8, 2, 0, 0)) == 2.0

    def test_reduces_each_state_of_a_stack(self):
        p = ReactionParams(1, 1, 1)
        u = np.array([[1.0, 3.0], [5.0, 2.0]])
        stacked = State(0.0, u, np.zeros_like(u), np.zeros_like(u))
        assert z_linf(p, stacked).tolist() == [3.0, 5.0]
        for k, sup in enumerate((3.0, 5.0)):
            one = z_linf(p, State(0.0, u[k], np.zeros(2), np.zeros(2)))
            assert type(one) is float and one == sup

    def test_matches_brute_force_scan(self):
        p = ReactionParams(2, 3, 1)
        rng = np.random.default_rng(31)
        s = State(0.0, rng.uniform(0, 3, 50), rng.uniform(0, 3, 50), rng.uniform(0, 3, 50))
        brute = max(
            p.beta * p.gamma * s.u[i] + p.alpha * p.gamma * s.v[i] + 2 * p.alpha * p.beta * s.w[i]
            for i in range(50)
        )
        assert z_linf(p, s) == pytest.approx(brute, rel=1e-15)

    def test_equal_diffusion_maximum_principle(self):
        g = Grid1D(64)
        x = g.cell_centers()
        p = ReactionParams(1, 1, 1, d1=1, d2=1, d3=1)
        s0 = State(0.0, 2.0 * (1 - np.cos(2 * np.pi * x)), np.full_like(x, 2.0), np.zeros_like(x))
        cfg = StepConfig(dt_init=2e-3, t_end=2.0, record_every=5)
        z0 = z_linf(p, s0)
        assert max(z_linf(p, s) for s, _ in steps(p, s0, cfg)) <= z0 * (1 + 1e-10)
