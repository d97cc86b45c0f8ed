"""Validation of the discrete operators and the IMEX integrator.

Checks the numerics against independent references: analytic integrals for
the quadrature and Fisher information, the eigenfunction of the no-flux
Laplacian, a classical RK4 integration of the well-mixed kinetics, and the
equal-diffusion maximum principle.

Run:  python demos/04_scheme_validation.py
"""

import numpy as np

from revreact import Grid1D, ReactionParams, State, StepConfig, run, steps, z_linf
from revreact.grid import fisher_information, integrate, laplacian_neumann

print("=== quadrature and Fisher information ===")
exact = np.pi**2 * (2.0 - np.sqrt(3.0))
print(f"{'n':>5} {'int sin(pi x)':>15} {'laplacian err':>14} {'fisher err':>12}")
for n in (100, 200, 400, 800):
    g = Grid1D(n)
    x = g.cell_centers()
    lap_err = np.max(np.abs(laplacian_neumann(np.cos(np.pi * x)) + np.pi**2 * np.cos(np.pi * x)))
    fish_err = abs(fisher_information(2.0 + np.cos(np.pi * x)) - exact)
    print(f"{n:5d} {integrate(np.sin(np.pi * x)):15.10f} {lap_err:14.3e} {fish_err:12.3e}")
print("(both operator errors fall by 4x per grid doubling; the integral of")
print(" sin tends to 2/pi = 0.6366197724)")

print("\n=== well-mixed kinetics vs classical RK4 ===")


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


ref = rk4([2.0, 2.0, 0.0], 0.5, 1e-6)
p = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0)
print(f"{'dt':>8} {'max deviation at t=0.5':>24}")
for dt in (1e-3, 1e-4, 1e-5):
    s0 = State(0.0, np.full(4, 2.0), np.full(4, 2.0), np.zeros(4))
    cfg = StepConfig(dt_init=dt, dt_min=1e-10, safety=1.0, t_end=0.5, record_every=10**9)
    final = run(p, s0, cfg).final
    err = max(
        np.abs(final.u - ref[0]).max(),
        np.abs(final.v - ref[1]).max(),
        np.abs(final.w - ref[2]).max(),
    )
    print(f"{dt:8.0e} {err:24.3e}")
print("(first-order in dt, as expected for the explicit reaction update)")

print("\n=== equal-diffusion maximum principle ===")
n = 100
g = Grid1D(n)
x = g.cell_centers()
p_eq = ReactionParams(1, 1, 1, d1=1.0, d2=1.0, d3=1.0)
s0 = State(0.0, 2.0 * (1.0 - np.cos(2.0 * np.pi * x)), np.full(n, 2.0), np.zeros(n))
cfg = StepConfig(dt_init=5e-3, t_end=3.0, record_every=10)
traj = run(p_eq, s0, cfg)
z0 = z_linf(p_eq, s0)
z_max = max(z0, *(z_linf(p_eq, s) for s, _ in steps(p_eq, s0, cfg)))  # every accepted state
m1 = traj.column("mass1")
print(f"sup of bg*u + ag*v + 2ab*w: initially {z0:.9f}, never above {z_max:.9f}")
print(f"mass drift over the run:    {np.max(np.abs(m1 - m1[0])) / m1[0]:.2e}")
print(f"min concentration seen:     {traj.column('min_conc').min():.3e} (>= 0, no clipping used)")
