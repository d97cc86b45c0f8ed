import math

import numpy as np
import pytest

import revreact
from revreact.entropy import (
    _species_gap,
    ck_gap,
    dissipation,
    entropy,
    l1_distances,
    relative_entropy,
)
from revreact.grid import Grid1D, fisher_information, integrate
from revreact.ineqlab import sample_admissible
from revreact.model import (
    Equilibrium,
    MassPair,
    ReactionParams,
    compute_equilibrium,
    weighted_masses,
)
from revreact.solver import State

E_NUM = math.e


def homogeneous(g, u, v, w):
    n = g.n_cells
    return State(0.0, np.full(n, float(u)), np.full(n, float(v)), np.full(n, float(w)))


@pytest.fixture
def g():
    return Grid1D(64)


@pytest.fixture
def p():
    return ReactionParams(1, 1, 1)


@pytest.fixture
def eq(p):
    return compute_equilibrium(p, MassPair(2, 2))


class TestEntropy:
    def test_all_ones(self, g):
        assert entropy(homogeneous(g, 1, 1, 1)) == pytest.approx(-3.0, rel=1e-14)

    def test_exponential_value(self, g):
        # e(ln e - 1) = 0 for u, then -1 for each of v, w
        assert entropy(homogeneous(g, E_NUM, 1, 1)) == pytest.approx(-2.0, abs=1e-13)

    def test_vacuum_extension(self, g):
        assert entropy(homogeneous(g, 0, 0, 0)) == 0.0

    def test_half_domain_union_additivity(self):
        # the same profile tiled twice on a doubled grid integrates identically
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 3.0, 32)
        s1 = State(0.0, u, 2 * u, u + 1)
        s2 = State(0.0, np.tile(u, 2), np.tile(2 * u, 2), np.tile(u + 1, 2))
        assert entropy(s2) == pytest.approx(entropy(s1), rel=1e-14)


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self, g, eq):
        assert relative_entropy(homogeneous(g, 1, 1, 1), eq) == 0.0

    def test_hand_value(self, g, eq):
        # u = 2e against a_inf = 1: 2e ln(2e) - (2e - 1) = 2e ln 2 + 1
        val = relative_entropy(homogeneous(g, 2 * E_NUM, 1, 1), eq)
        assert val == pytest.approx(4.7683387707274402, rel=1e-13)

    def test_rejects_degenerate_equilibrium(self, g):
        with pytest.raises(ValueError):
            relative_entropy(homogeneous(g, 1, 1, 1), Equilibrium(1, 0, 1, 0))

    def test_nonnegative_on_random_states(self, g, eq):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = State(0.0, rng.uniform(0, 2, 64), rng.uniform(0, 2, 64), rng.uniform(0, 2, 64))
            assert relative_entropy(s, eq) >= 0.0

    def test_stable_near_equilibrium(self, g, eq):
        # the naive integrand cancels catastrophically here
        h = 1e-10
        val = relative_entropy(homogeneous(g, 1 + h, 1, 1), eq)
        assert val == pytest.approx(h * h / 2, rel=1e-4)

    def test_gap_density_finite_where_ratio_rounds_to_zero(self):
        # f/ref - 1 rounds to exactly -1 below ~1e-16*ref; the density there
        # is ref - f + f ln(f/ref), which tends to ref
        f = np.array([1e-306, 1e-17, 0.0])
        want = [1.0, 1.0 - 1e-17 + 1e-17 * math.log(1e-17), 1.0]
        np.testing.assert_allclose(_species_gap(f, 1.0), want, rtol=1e-15)
        np.testing.assert_allclose(_species_gap(f * 4.0, 4.0), np.multiply(want, 4.0), rtol=1e-15)

    def test_finite_on_sample_with_tiny_cells(self):
        g = Grid1D(64)
        p = ReactionParams(1, 1, 1)
        m = MassPair(1e-300, 1)
        s = sample_admissible(p, m, g, [0, 1])
        assert math.isfinite(relative_entropy(s, compute_equilibrium(p, m)))

    def test_split_into_average_parts(self, g, p, eq):
        # relative entropy = sum of per-species entropy vs the spatial
        # average plus the relative entropy of the averages vs equilibrium
        rng = np.random.default_rng(9)
        s = State(0.0, rng.uniform(0.1, 2, 64), rng.uniform(0.1, 2, 64), rng.uniform(0.1, 2, 64))
        total = relative_entropy(s, eq)
        means = [integrate(f) for f in s.y]
        split = (
            relative_entropy(s, Equilibrium(*means, 0.0))
            + relative_entropy(homogeneous(g, *means), eq)
        )
        assert split == pytest.approx(total, rel=1e-12)


class TestDissipation:
    def test_zero_at_balanced_state(self, g, p, eq):
        rep = dissipation(p, homogeneous(g, 1, 1, 1), eq)
        assert rep.D == 0.0
        assert rep.reaction_term == 0.0

    def test_reaction_term_hand_value(self, g, p, eq):
        # (1 - e) ln(1/e) = e - 1
        rep = dissipation(p, homogeneous(g, 1, 1, E_NUM), eq)
        assert rep.fisher_u == rep.fisher_v == rep.fisher_w == 0.0
        assert rep.reaction_term == pytest.approx(E_NUM - 1, rel=1e-13)
        assert rep.D == pytest.approx(rep.reaction_term)

    def test_fisher_dominated_state(self, g):
        # u^a v^b = w^g pointwise forces v = w = 0 here, so only the u
        # Fisher term survives; pass an explicit equilibrium since the
        # state's own v/w masses vanish
        p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
        x = g.cell_centers()
        s = State(0.0, (1 + x) ** 2, np.zeros_like(x), np.zeros_like(x))
        rep = dissipation(p, s, Equilibrium(1, 1, 1, 0))
        assert rep.reaction_term == 0.0
        assert rep.fisher_v == rep.fisher_w == 0.0
        assert rep.D == pytest.approx(fisher_information(s.u, 1.0), rel=1e-14)
        assert rep.D == pytest.approx(4.0, abs=4 * g.dx + 1e-12)

    def test_infinite_reaction_term_is_reported(self, g, p, eq):
        s = homogeneous(g, 2, 2, 0)  # u^a v^b > 0 with w = 0
        rep = dissipation(p, s, eq)
        assert math.isinf(rep.reaction_term)
        assert math.isinf(rep.D)
        assert rep.fisher_u == 0.0

    def test_parts_sum_and_nonnegativity(self, g, eq):
        p = ReactionParams(2, 1, 2, d1=0.5, d2=1.0, d3=2.0)
        rng = np.random.default_rng(17)
        s = State(0.0, rng.uniform(0.1, 2, 64), rng.uniform(0.1, 2, 64), rng.uniform(0.1, 2, 64))
        rep = dissipation(p, s, eq)
        for part in (rep.fisher_u, rep.fisher_v, rep.fisher_w, rep.reaction_term):
            assert part >= 0.0
        assert rep.D == pytest.approx(
            rep.fisher_u + rep.fisher_v + rep.fisher_w + rep.reaction_term
        )

    def test_equilibrium_computed_from_state_masses(self, g, p):
        s = homogeneous(g, 1.5, 1.5, 0.5)
        rep = dissipation(p, s, compute_equilibrium(p, MassPair(*weighted_masses(p, s))))
        assert rep.E_rel == pytest.approx(0.36982173404452049, rel=1e-12)
        assert rep.D == pytest.approx(2.6321354443584796, rel=1e-12)
        assert rep.D / rep.E_rel == pytest.approx(7.1173086978214578, rel=1e-11)


class TestStackedStates:
    """A State of (S, n) fields gives the same values as S one-state calls."""

    @staticmethod
    def _stack(g, rng, s_count):
        fields = rng.uniform(0.05, 2.0, (3, s_count, g.n_cells))
        return State(0.0, *fields), [State(0.0, *fields[:, k]) for k in range(s_count)]

    def test_dissipation_matches_one_state_calls(self, g, eq):
        p = ReactionParams(2, 1, 2, d1=0.5, d2=1.0, d3=2.0)
        stacked, singles = self._stack(g, np.random.default_rng(23), 5)
        rep = dissipation(p, stacked, eq)
        for k, s in enumerate(singles):
            one = dissipation(p, s, eq)
            assert isinstance(one.D, float)
            for name in ("E", "E_rel", "D", "fisher_u", "fisher_v", "fisher_w", "reaction_term"):
                assert getattr(rep, name)[k] == getattr(one, name), name

    def test_a_mixed_stack_of_recordable_states_matches_one_state_calls(self, g):
        # states a run records, side by side: positive and smooth; vacuum blocks beside
        # w > 0, whose reaction term is inf; cells below 1e-16 of the equilibrium's
        p = ReactionParams(2, 1, 3, ell=8.0, d1=0.5, d2=1.0, d3=2.0)
        eq = compute_equilibrium(p, MassPair(2, 2))
        x, n = g.cell_centers(), g.n_cells
        smooth = (1.5 + np.cos(2 * np.pi * x), np.full(n, 0.8), 1.2 - 0.5 * np.sin(2 * np.pi * x))
        vacuum = (np.where(x < 0.5, 2.0, 0.0), np.where(x >= 0.5, 2.0, 0.0), np.full(n, 0.1))
        tiny = (np.where(x < 0.25, 1e-300, 1.0), np.full(n, 1.0), np.full(n, 1.0))
        fields = np.array([smooth, vacuum, tiny, smooth]).swapaxes(0, 1)
        stacked = State(0.0, *fields)
        singles = [State(0.0, *fields[:, k]) for k in range(fields.shape[1])]
        # _species_gap's h == -1 branch: taken by the vacuum and tiny states, not the smooth
        takes_branch = [bool((s.y / eq.y[:, None] - 1.0 == -1.0).any()) for s in singles]
        assert takes_branch == [False, True, True, False]
        assert math.isinf(dissipation(p, singles[1], eq).reaction_term)

        def columns(s):
            return [*vars(dissipation(p, s, eq)).values(), *l1_distances(s, eq),
                    *weighted_masses(p, s), s.min_concentration()]

        stack = columns(stacked)
        for k, s in enumerate(singles):
            one = columns(s)
            assert all(type(v) is float for v in one)
            assert [float(c[k]).hex() for c in stack] == [v.hex() for v in one]

    def test_ck_gap_matches_one_state_calls(self, g, p, eq):
        # homogeneous shifts (1+h, 1+h, 1-h) keep the masses of eq
        h = np.array([0.1, -0.3, 0.0, 0.2])[:, None] * np.ones(g.n_cells)
        stacked = State(0.0, 1 + h, 1 + h, 1 - h)
        lhs, rhs = ck_gap(p, stacked, eq)
        for k in range(len(h)):
            assert (lhs[k], rhs[k]) == ck_gap(p, State(0.0, 1 + h[k], 1 + h[k], 1 - h[k]), eq)

    def test_ck_gap_names_the_states_off_the_manifold(self, g, p, eq):
        u = np.ones((3, g.n_cells))
        u[1] = 1.1
        with pytest.raises(ValueError, match=r"1 of 3 state\(s\) do not carry"):
            ck_gap(p, State(0.0, u, np.ones_like(u), np.ones_like(u)), eq)


class TestCkGap:
    def test_zero_at_equilibrium(self, g, p, eq):
        lhs, rhs = ck_gap(p, homogeneous(g, 1, 1, 1), eq)
        assert lhs == 0.0 and rhs == 0.0

    def test_conservation_precondition(self, g, p, eq):
        with pytest.raises(ValueError):
            ck_gap(p, homogeneous(g, 1.1, 1, 1), eq)

    def test_homogeneous_perturbation_hand_value(self, g, p, eq):
        # (1+h, 1+h, 1-h) stays on the manifold; ratio -> 1/2 as h -> 0
        lhs, rhs = ck_gap(p, homogeneous(g, 1.1, 1.1, 0.9), eq)
        assert rhs == pytest.approx(0.03, rel=1e-12)
        assert lhs / rhs == pytest.approx(0.49526438258236737, rel=1e-12)


def test_package_attribute_is_the_entropy_module():
    assert revreact.entropy.dissipation is revreact.dissipation
