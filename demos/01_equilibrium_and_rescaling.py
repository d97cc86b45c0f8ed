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
from revreact.model import undo_rescale

print("=== 1. rate normalisation ===")
p = ReactionParams(1, 1, 1, ell=4.0, k=2.0, d1=1.0, d2=2.0, d3=3.0)
rep = rescale_params(p)
print(f"original rates: ell={p.ell}, k={p.k}")
print(f"factors: time={rep.time_factor}, concentration={rep.concentration_factor}")
print(f"rescaled diffusivities: ({rep.rescaled.d1}, {rep.rescaled.d2}, {rep.rescaled.d3})")
q = undo_rescale(rep)
print(f"round trip recovers ell={q.ell:.15g}, k={q.k:.15g}")

p_deg = ReactionParams(1, 2, 3, ell=4.0, k=4.0)
rep_deg = rescale_params(p_deg)
print(f"\nwhen alpha+beta == gamma only time rescales: ell = k = 4 gives "
      f"time={rep_deg.time_factor}, concentration={rep_deg.concentration_factor}")
try:
    rescale_params(ReactionParams(1, 2, 3, ell=8.0, k=1.0))
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
