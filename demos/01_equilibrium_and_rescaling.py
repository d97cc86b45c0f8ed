"""Detailed-balance equilibria and rate normalisation.

The reversible reaction a*U + b*V <-> c*W conserves two weighted masses,
and for each mass pair there is exactly one positive constant state that
balances the reaction.  This script walks through:

1. normalising general rate constants (ell, k) to 1 by rescaling,
2. solving the balance equation by bisection for a few stoichiometries,
3. the monotone response of the equilibrium to added mass.

Run:  python demos/01_equilibrium_and_rescaling.py
"""

import numpy as np

from revreact import MassPair, ReactionParams, compute_equilibrium, rescale_params

print("=== 1. rate normalisation ===")
# ReactionParams is the system with ell = k = 1; rates (ell, k) enter rescale_params alone
p, ell, k = ReactionParams(1, 1, 1, d1=1.0, d2=2.0, d3=3.0), 4.0, 2.0
rep = rescale_params(p, ell, k)
T, C = rep.time_factor, rep.concentration_factor
print(f"original rates: ell={ell}, k={k}")
print(f"factors: time={T}, concentration={C}")
print(f"rescaled diffusivities: ({rep.rescaled.d1}, {rep.rescaled.d2}, {rep.rescaled.d3})")
print(f"rescaled rates: ell*T*C^(alpha+beta-1)={ell * T * C ** (p.alpha + p.beta - 1):.15g}, "
      f"k*T*C^(gamma-1)={k * T * C ** (p.gamma - 1):.15g}")

rep_deg = rescale_params(ReactionParams(1, 2, 3), 4.0, 4.0)
print(f"\nwhen alpha+beta == gamma only time rescales: ell = k = 4 gives "
      f"time={rep_deg.time_factor}, concentration={rep_deg.concentration_factor}")
try:
    rescale_params(ReactionParams(1, 2, 3), 8.0, 1.0)
except ValueError as exc:
    print(f"and ell != k has no normalised system: {exc}")

print("\n=== 2. equilibria across stoichiometries ===")
cases = [
    (ReactionParams(1, 1, 1), MassPair(2, 2)),
    (ReactionParams(1, 1, 1), MassPair(3, 2)),
    (ReactionParams(2, 1, 1), MassPair(2, 1)),
    (ReactionParams(1, 2, 3), MassPair(4, 3)),
    (ReactionParams(3, 2, 2), MassPair(7, 5)),
]
print(f"{'(a,b,g)':>9} {'M1':>5} {'M2':>5} {'a_inf':>12} {'b_inf':>12} {'c_inf':>12} {'residual':>10}")
for p, m in cases:
    eq = compute_equilibrium(p, m)
    print(f"({p.alpha:g},{p.beta:g},{p.gamma:g})".rjust(9)
          + f" {m.m1:5g} {m.m2:5g} {eq.a_inf:12.8f} {eq.b_inf:12.8f} {eq.c_inf:12.8f} {eq.residual:10.1e}")

print("\n=== 3. monotone comparative statics ===")
print("raising M1 (M2 fixed at 4) never lowers the product concentration:")
p = ReactionParams(2, 1, 3)
for m1 in np.linspace(1.0, 11.0, 6):
    eq = compute_equilibrium(p, MassPair(m1, 4.0))
    bar = "#" * int(round(40 * eq.c_inf))
    print(f"  M1={m1:5.2f}: c_inf={eq.c_inf:.6f} {bar}")
