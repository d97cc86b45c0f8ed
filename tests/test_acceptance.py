"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The reference run is the cosine-bump relaxation (exponents all 1,
diffusivities (1,2,3), 200 cells, t_end 20).  Seeded sampling values are
regression-pinned from the first computation; they guard determinism, not
closed-form truth.
"""

import math

import numpy as np
import pytest

import revreact as rr
from revreact.entropy import _species_gap
from revreact.grid import Grid1D, fisher_information, integrate, laplacian_neumann
from revreact.ineqlab import elementary_inequality_gap, homogeneous_ratio, mu_c_max
from revreact.model import MassPair, ReactionParams, compute_equilibrium
from revreact.solver import State, StepConfig, run


def report(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:02d} ({name}): {detail}"
    print(line)
    assert ok, line


def cosine_bump_state(n):
    g = Grid1D(n)
    x = g.cell_centers()
    return State(0.0, 2.0 * (1.0 - np.cos(2.0 * np.pi * x)), np.full_like(x, 2.0), np.zeros_like(x))


@pytest.fixture(scope="module")
def reference_run():
    p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
    cfg = StepConfig(dt_init=1e-2, dt_min=1e-12, safety=0.2, t_end=20.0, record_every=20)
    return run(p, cosine_bump_state(200), cfg)


def test_criterion_01_conservation(reference_run):
    m1 = reference_run.column("mass1")
    m2 = reference_run.column("mass2")
    dev = max(np.max(np.abs(m1 - m1[0])) / m1[0], np.max(np.abs(m2 - m2[0])) / m2[0])
    report(1, "conservation", dev < 1e-11, f"max relative mass deviation {dev:.3e}")


def test_criterion_02_entropy_monotonicity(reference_run):
    E = reference_run.column("E")
    slack = np.diff(E) - 1e-10 * (1.0 + np.abs(E[:-1]))
    report(2, "entropy monotonicity", bool(np.all(slack <= 0)),
           f"worst per-step increase margin {np.max(slack):.3e}")


def test_criterion_03_positivity(reference_run):
    worst = reference_run.column("min_conc").min()
    report(3, "positivity", worst >= 0.0, f"min recorded concentration {worst:.3e}")


def test_criterion_04_equilibrium_solver():
    rng = np.random.default_rng(777)
    ok = True
    worst = 0.0
    for _ in range(50):
        p = ReactionParams(*rng.integers(1, 4, size=3).astype(float))
        m = MassPair(*rng.uniform(0.5, 10.0, size=2))
        eq = compute_equilibrium(p, m)
        budget = 1e-12 * max(1.0, m.m1, m.m2) ** max(p.alpha + p.beta, p.gamma)
        worst = max(worst, eq.residual / budget)
        ok &= eq.residual <= budget
        ok &= math.isclose(p.gamma * eq.a_inf + p.alpha * eq.c_inf, m.m1, rel_tol=1e-12)
        ok &= math.isclose(p.gamma * eq.b_inf + p.beta * eq.c_inf, m.m2, rel_tol=1e-12)
    eq = compute_equilibrium(ReactionParams(1, 1, 1), MassPair(2, 2))
    sym = max(abs(eq.a_inf - 1), abs(eq.b_inf - 1), abs(eq.c_inf - 1))
    ok &= sym <= 1e-14
    report(4, "equilibrium solver", ok,
           f"worst residual at {worst:.3f} of budget; symmetric case off by {sym:.1e}")


def test_criterion_05_exponential_convergence(reference_run):
    rows = reference_run.rows
    k_e, _, r2_e = rr.fit_rate([(r.t, r.E_rel) for r in rows])
    l1_fits = [
        rr.fit_rate([(r.t, getattr(r, col)) for r in rows])
        for col in ("l1_u", "l1_v", "l1_w")
    ]
    terminal = rows[-1].l1_u + rows[-1].l1_v + rows[-1].l1_w
    ok = (
        r2_e >= 0.999
        and k_e > 0
        and all(r2 >= 0.99 for _, _, r2 in l1_fits)
        and terminal < 1e-6
    )
    report(5, "exponential convergence", ok,
           f"E_rel: K={k_e:.4f} r2={r2_e:.6f}; "
           f"L1 r2={min(r2 for _, _, r2 in l1_fits):.6f}; terminal L1={terminal:.2e}")


def test_criterion_06_gronwall_consistency(reference_run):
    k_e, _, _ = rr.fit_rate([(r.t, r.E_rel) for r in reference_run.rows])
    rep = rr.trajectory_eed_constant(reference_run)
    ok = k_e >= 0.9 * rep.min_ratio
    report(6, "Gronwall consistency", ok,
           f"K_fit={k_e:.4f} vs 0.9*min(D/E_rel)={0.9 * rep.min_ratio:.4f}")


SCAN_CONFIGS = [
    (ReactionParams(1, 1, 1), MassPair(2, 2)),
    (ReactionParams(1, 1, 1), MassPair(3, 2)),
    (ReactionParams(2, 1, 1), MassPair(2, 1)),
    (ReactionParams(1, 2, 3), MassPair(4, 3)),
    (ReactionParams(2, 2, 3), MassPair(5, 4)),
]


def test_criterion_07_homogeneous_ratio_scan():
    ok = True
    for p, m in SCAN_CONFIGS:
        rep = rr.scan_homogeneous_ratio(p, m, 4001)
        ok &= math.isfinite(rep.constant_estimate) and rep.constant_estimate > 0
    p, m = SCAN_CONFIGS[0]
    eq = compute_equilibrium(p, m)
    lo, hi = homogeneous_ratio(p, eq, np.array([-1.0, mu_c_max(p, eq)]))
    rep = rr.scan_homogeneous_ratio(p, m, 4001)
    ok &= abs(lo - 0.3358) <= 1e-3
    ok &= abs(hi - 1.0858) <= 1e-3
    ok &= abs(rep.zero_limit - 1.0 / 3.0) <= 1e-3
    report(7, "homogeneous ratio scan", ok,
           f"endpoints {lo:.5f}/{hi:.5f}, zero limit {rep.zero_limit:.6f}, sup finite on 5 configs")


# regression pins for the seeded sampling criteria (seed 2024, 64 cells,
# 1000 samples), recorded from the first computation
EED_PINS = [
    (ReactionParams(1, 1, 1), MassPair(2, 2), 1927.5712061189856),
    (ReactionParams(2, 1, 1), MassPair(2, 1), 1842.1805760548427),
    (ReactionParams(1, 2, 3), MassPair(4, 3), 2338.3682906992217),
]
CK_PIN = 0.5499516443391989


def test_criterion_08_eed_positivity():
    g = Grid1D(64)
    ok = True
    mins = []
    for p, m, pinned in EED_PINS:
        rep = rr.estimate_eed_constant(p, m, g, 1000, seed=2024)
        mins.append(rep.min_ratio)
        ok &= rep.min_ratio > 0
        ok &= rep.min_ratio == pytest.approx(pinned, rel=1e-9)
    report(8, "EED positivity", ok,
           "min D/E_rel per config: " + ", ".join(f"{v:.4f}" for v in mins))


def test_criterion_09_csiszar_kullback():
    p = ReactionParams(1, 1, 1)
    m = MassPair(2, 2)
    g = Grid1D(64)
    rep = rr.verify_csiszar_kullback(p, m, g, 1000, seed=2024)
    ok = rep.min_ratio > 0 and rep.min_ratio == pytest.approx(CK_PIN, rel=1e-9)
    # classical pointwise bound per species on every sample
    worst_margin = math.inf
    for i in range(1000):
        y = rr.sample_admissible(p, m, g, [2024, i]).y
        ybar = integrate(y)[:, None]
        lhs = integrate(_species_gap(y, ybar))  # each species' entropy vs its mean
        rhs = integrate(np.abs(y - ybar)) ** 2 / (2.0 * ybar[:, 0])
        worst_margin = min(worst_margin, (lhs - rhs).min())
        ok &= bool(np.all(lhs >= rhs))
    report(9, "Csiszar-Kullback", ok,
           f"min E_rel/sum(L1^2)={rep.min_ratio:.6f}; worst pointwise CKP margin {worst_margin:.3e}")


def test_criterion_10_maximum_principle():
    # equal diffusivities; every accepted state is checked, not only recorded ones
    p = ReactionParams(1, 1, 1, d1=1.0, d2=1.0, d3=1.0)
    cfg = StepConfig(dt_init=5e-3, dt_min=1e-12, safety=0.2, t_end=5.0, record_every=10)
    s0 = cosine_bump_state(200)
    z0 = rr.z_linf(p, s0)
    z_max = max(z0, *(rr.z_linf(p, s) for s, _ in rr.steps(p, s0, cfg)))
    ok = z_max <= z0 * (1.0 + 1e-10)
    report(10, "maximum principle", ok, f"z_linf grew from {z0:.12f} to at most {z_max:.12f}")


def test_criterion_11_ode_oracle():
    # well-mixed initial data stays homogeneous; the IMEX run must agree with
    # an independent RK4 integration of u' = -(uv - w) at t = 1
    def rk4(y0, t_end, dt):
        def f(y):
            r = y[0] * y[1] - y[2]
            return np.array([-r, -r, r])

        y = np.array(y0, dtype=float)
        for _ in range(int(round(t_end / dt))):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return y

    ref = rk4([2.0, 2.0, 0.0], 1.0, 1e-5)
    p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
    s0 = State(0.0, np.full(4, 2.0), np.full(4, 2.0), np.zeros(4))
    cfg = StepConfig(dt_init=4e-6, dt_min=1e-9, safety=1.0, t_end=1.0, record_every=10**9)
    final = run(p, s0, cfg).final
    err = max(
        np.abs(final.u - ref[0]).max(),
        np.abs(final.v - ref[1]).max(),
        np.abs(final.w - ref[2]).max(),
    )
    report(11, "ODE oracle", err <= 1e-6, f"max-norm deviation from RK4 reference {err:.3e}")


def test_criterion_12_elementary_inequality():
    rng = np.random.default_rng(1234)
    a = rng.uniform(1e-8, 1e3, 100_000)
    b = rng.uniform(1e-8, 1e3, 100_000)
    gaps = elementary_inequality_gap(a, b)
    violations = int(np.sum(gaps < 0))
    report(12, "elementary inequality", violations == 0,
           f"{violations} violations over 100000 pairs, min gap {gaps.min():.3e}")


def test_criterion_13_grid_convergence():
    lap_err = {}
    fisher_err = {}
    fisher_exact = np.pi**2 * (2.0 - np.sqrt(3.0))
    for n in (200, 400):
        g = Grid1D(n)
        x = g.cell_centers()
        f = np.cos(np.pi * x)
        lap_err[n] = np.max(np.abs(laplacian_neumann(f) + np.pi**2 * f))
        fisher_err[n] = abs(fisher_information(2.0 + np.cos(np.pi * x)) - fisher_exact)
    lap_ratio = lap_err[200] / lap_err[400]
    fisher_ratio = fisher_err[200] / fisher_err[400]
    ok = lap_ratio >= 3.5 and fisher_ratio >= 3.5
    report(13, "grid convergence", ok,
           f"error reduction n=200->400: laplacian {lap_ratio:.2f}x, fisher {fisher_ratio:.2f}x")
