import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revreact.model import (
    MassPair,
    ReactionParams,
    compute_equilibrium,
    masses_of,
    rescale_params,
    stoich_pow,
    uv_totals,
)

SQRT3 = 1.7320508075688773  # from a 40-digit bisection of a^2 = 3


def test_params_validation():
    with pytest.raises(ValueError):
        ReactionParams(0.5, 1, 1)
    with pytest.raises(TypeError, match="ell"):
        ReactionParams(1, 1, 1, ell=2.0)  # runs take normalised rates: rescale_params(p, ell, k)
    with pytest.raises(ValueError):
        ReactionParams(1, 1, 1, d2=-1.0)
    with pytest.raises(ValueError):
        MassPair(0.0, 1.0)


@pytest.mark.parametrize("make,message", [
    (lambda: ReactionParams(0.5, 1, 1), "alpha must be >= 1, got 0.5"),
    (lambda: ReactionParams(1, math.nan, 1), "beta must be finite and >= 1, got nan"),
    (lambda: ReactionParams(1, 1, math.inf), "gamma must be finite and >= 1, got inf"),
    (lambda: rescale_params(ReactionParams(), math.nan, 1.0), "ell must be finite and > 0"),
    (lambda: ReactionParams(d1=math.inf), "d1 must be finite and > 0"),
    (lambda: MassPair(math.nan, 1.0), "m1 must be finite and > 0"),
    (lambda: MassPair(1.0, math.inf), "m2 must be finite and > 0"),
])
def test_validation_names_field_and_rejects_non_finite(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_stoichiometric_vector_is_orthogonal_to_both_mass_weights():
    p = ReactionParams(2, 1, 3)
    np.testing.assert_array_equal(p.nu, (-2, -1, 3))
    np.testing.assert_array_equal(masses_of(p, p.nu), (0, 0))


def test_uv_totals_inverts_masses_of():
    p = ReactionParams(2, 1, 3)
    totals = np.array([[1.5, 0.25, 2.0], [3.0, 1.0, 0.5]])
    np.testing.assert_array_equal(masses_of(p, totals), [[8.5, 2.75], [10.0, 3.5]])
    np.testing.assert_array_equal(
        uv_totals(p, masses_of(p, totals), totals[:, 2:]), totals[:, :2]
    )


def test_stoich_pow_matches_general_pow():
    x = np.linspace(0.0, 3.0, 7)
    for e in (1, 2, 3, 4, 2.5, 7):
        np.testing.assert_allclose(stoich_pow(x, e), x**e, rtol=1e-15)


class TestRescale:
    def test_identity_rates(self):
        rep = rescale_params(ReactionParams(1, 1, 1), 1.0, 1.0)
        assert rep.concentration_factor == 1.0
        assert rep.time_factor == 1.0
        assert rep.rescaled == ReactionParams(1, 1, 1)

    def test_general_case_by_hand(self):
        # (k/ell)^(1/1) = 0.5 and (k/ell)^0 / k = 0.5
        rep = rescale_params(ReactionParams(1, 1, 1), 4.0, 2.0)
        assert rep.concentration_factor == pytest.approx(0.5, rel=1e-15)
        assert rep.time_factor == pytest.approx(0.5, rel=1e-15)

    def test_degenerate_stoichiometry_rescales_time_alone(self):
        # alpha + beta == gamma: ell u^a v^b - k w^g is k*R when ell = k, R on the time scale 1/k
        for gamma in (2, 1):  # (1, 1, 1) takes the alpha + beta != gamma formulas
            rep = rescale_params(ReactionParams(1, 1, gamma, d1=3.0), 3.0, 3.0)
            assert rep.concentration_factor == 1.0
            assert rep.time_factor == pytest.approx(1 / 3, rel=1e-15)
            assert rep.rescaled.d1 == pytest.approx(1.0, rel=1e-15)
        # no rescaling changes ell/k there, so unequal rates have no normalised system
        with pytest.raises(ValueError, match="ell and k must be equal.*ell=8.0, k=1.0"):
            rescale_params(ReactionParams(1, 2, 3), 8.0, 1.0)

    @given(
        ell=st.floats(0.1, 10.0),
        k=st.floats(0.1, 10.0),
        alpha=st.integers(1, 3),
        beta=st.integers(1, 3),
        gamma=st.integers(1, 3),
        d=st.floats(0.1, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    @example(ell=3.0, k=0.5, alpha=1, beta=2, gamma=3, d=1.0)
    def test_rescaled_system_has_unit_rates(self, ell, k, alpha, beta, gamma, d):
        # u = C*u', t = T*t' turn ell u^a v^b - k w^g into (ell T C^(a+b-1)) u'^a v'^b
        # - (k T C^(g-1)) w'^g, so both coefficients are 1, and d_i becomes d_i * T
        if alpha + beta == gamma:
            k = ell  # the one pair of rates with a normalised system there
        p = ReactionParams(alpha, beta, gamma, d, 2 * d, 3 * d)
        rep = rescale_params(p, ell, k)
        T, C = rep.time_factor, rep.concentration_factor
        assert T * ell * C ** (alpha + beta - 1) == pytest.approx(1.0, rel=1e-13)
        assert T * k * C ** (gamma - 1) == pytest.approx(1.0, rel=1e-13)
        assert (rep.rescaled.d1, rep.rescaled.d2, rep.rescaled.d3) == (d * T, 2 * d * T, 3 * d * T)


class TestEquilibrium:
    def test_symmetric_case_exact(self):
        eq = compute_equilibrium(ReactionParams(1, 1, 1), MassPair(2, 2))
        assert abs(eq.a_inf - 1) <= 1e-14
        assert abs(eq.b_inf - 1) <= 1e-14
        assert abs(eq.c_inf - 1) <= 1e-14

    def test_quadratic_case(self):
        # M1=3, M2=2 reduces to a^2 = 3 by eliminating b = a - 1, c = 3 - a
        eq = compute_equilibrium(ReactionParams(1, 1, 1), MassPair(3, 2))
        assert eq.a_inf == pytest.approx(SQRT3, abs=2e-14)
        assert eq.b_inf == pytest.approx(SQRT3 - 1, abs=2e-14)
        assert eq.c_inf == pytest.approx(3 - SQRT3, abs=2e-14)
        assert abs(eq.a_inf * eq.b_inf - eq.c_inf) < 1e-13

    def test_mixed_exponent_case(self):
        # root of (2-2c)^2 (1-c) = c on [0,1]; independent 200-step bisection
        # at 40-digit precision gives exactly c = 0.5 (check: 1 * 0.5 = 0.5)
        eq = compute_equilibrium(ReactionParams(2, 1, 1), MassPair(2, 1))
        assert eq.c_inf == pytest.approx(0.5, abs=1e-14)
        assert eq.a_inf == pytest.approx(1.0, abs=1e-14)
        assert eq.b_inf == pytest.approx(0.5, abs=1e-14)

    @given(
        alpha=st.integers(1, 3),
        beta=st.integers(1, 3),
        gamma=st.integers(1, 3),
        m1=st.floats(0.5, 10.0),
        m2=st.floats(0.5, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_residual_and_conservation(self, alpha, beta, gamma, m1, m2):
        p = ReactionParams(alpha, beta, gamma)
        m = MassPair(m1, m2)
        eq = compute_equilibrium(p, m)
        assert eq.a_inf > 0 and eq.b_inf > 0 and eq.c_inf > 0
        assert eq.residual <= 1e-12 * max(1, m1, m2) ** max(alpha + beta, gamma)
        held = masses_of(p, eq.y)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(held, (m1, m2)))

    EXPONENTS = [(1, 1, 1), (2, 1, 1), (1, 2, 3), (2, 2, 3), (3, 3, 2), (1, 1, 2), (3, 1, 2)]

    @pytest.mark.parametrize("exponents", EXPONENTS)
    def test_converges_at_every_mass_scale(self, exponents):
        # past c_inf = 64 adjacent doubles lie over 1e-14 apart, so the bracket
        # must also stop once no double lies strictly inside it
        p = ReactionParams(*exponents)
        for m1 in np.geomspace(1e-3, 1e12, 61):
            for m2 in (m1, 0.37 * m1):
                eq = compute_equilibrium(p, MassPair(m1, m2))
                budget = 1e-12 * max(1, m1, m2) ** max(p.alpha + p.beta, p.gamma)
                assert eq.residual <= budget, (m1, m2)
                held = masses_of(p, eq.y)
                assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(held, (m1, m2)))

    @pytest.mark.parametrize("exponents", EXPONENTS)
    def test_balances_to_relative_precision_at_small_masses(self, exponents):
        # an absolute stopping width would leave a small c_inf wrong in its leading digits
        p = ReactionParams(*exponents)
        for m1 in np.geomspace(1e-6, 1.0, 25):
            for m2 in (0.5 * m1, m1, 2.0 * m1):
                eq = compute_equilibrium(p, MassPair(m1, m2))
                c = stoich_pow(eq.c_inf, p.gamma)
                defect = stoich_pow(eq.a_inf, p.alpha) * stoich_pow(eq.b_inf, p.beta) - c
                assert abs(defect) <= 1e-12 * c, (m1, m2)

    def test_tiny_masses_balance_to_relative_precision(self):
        # c_inf ~ 1e-200 lies 2^332 below the first bracket: over 200 halvings away
        eq = compute_equilibrium(ReactionParams(1, 1, 1), MassPair(1e-100, 1e-100))
        assert abs(eq.a_inf * eq.b_inf - eq.c_inf) <= 1e-12 * eq.c_inf

    def test_underflowing_equilibrium_names_masses_and_exponents(self):
        # c = a^3 b^3 ~ 1e-600 has no positive double: c_inf would be 0.0
        with pytest.raises(ValueError, match=re.escape(
            "m1=1e-100, m2=1e-100 with alpha=3, beta=3, gamma=1 give an equilibrium"
        )):
            compute_equilibrium(ReactionParams(3, 3, 1), MassPair(1e-100, 1e-100))

    @pytest.mark.parametrize("exponents,mass", [
        ((2, 1, 3), 1e150),  # a^2 b ~ 3.6e448 overflows; the bisection stops where c^3 does
        ((1, 1, 1), 1e308),  # the bisection midpoint overflows: c = inf, a = b = -inf
    ])
    def test_overflowing_balance_law_names_masses_and_exponents(self, exponents, mass):
        alpha, beta, gamma = exponents
        with pytest.raises(ValueError, match=re.escape(
            f"m1={mass!r}, m2={mass!r} with alpha={alpha}, beta={beta}, gamma={gamma} give a "
            f"balance law a^alpha b^beta = c^gamma that overflows"
        )):
            compute_equilibrium(ReactionParams(*exponents), MassPair(mass, mass))

    def test_masses_near_the_float_limit_give_a_finite_residual(self):
        for exponents in ((1, 1, 1), (2, 1, 1)):
            eq = compute_equilibrium(ReactionParams(*exponents), MassPair(1e300, 1e300))
            assert math.isfinite(eq.residual)

    def test_monotone_in_m1(self):
        p = ReactionParams(2, 1, 3)
        c_values = [
            compute_equilibrium(p, MassPair(m1, 4.0)).c_inf
            for m1 in np.linspace(0.5, 12.0, 24)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(c_values, c_values[1:]))


def test_residual_reevaluation_matches_solver():
    p = ReactionParams(3, 2, 2)
    m = MassPair(7.0, 5.0)
    eq = compute_equilibrium(p, m)
    defect = (stoich_pow(eq.a_inf, p.alpha) * stoich_pow(eq.b_inf, p.beta)
              - stoich_pow(eq.c_inf, p.gamma))
    assert abs(defect) == pytest.approx(eq.residual, abs=1e-16)
