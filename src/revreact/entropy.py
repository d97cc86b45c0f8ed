"""Entropy, relative entropy, entropy dissipation and the Csiszar-Kullback gap.

All integrands are extended continuously to the vacuum: x(ln x - 1) -> 0,
x ln(x/y) - (x - y) -> y as x -> 0, and (a-b)ln(a/b) -> 0 when a = b.  No
epsilon floors are used anywhere; a state with exactly one of u^a v^b, w^g
zero in some cell has infinite reaction dissipation, and that infinity is
reported as a value, not raised as an error.

Every reduction here acts on the last axis and adds species over axis -2
of State.y: a (3, n) state gives Python floats, an (S, 3, n) stack arrays
of S values, one per state, equal to S one-state calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import xlogy

from .grid import fisher_information, integrate, unstack
from .model import Equilibrium, ReactionParams, masses_of, stoich_pow, weighted_masses
from .model import compute_equilibrium  # noqa: F401 -- unused here; perfbench/hooks.py wraps it

if TYPE_CHECKING:  # pragma: no cover
    from .solver import State


@dataclass(frozen=True)
class EntropyReport:
    """Entropy diagnostics of one state, or of each state of a stack.

    D = fisher_u + fisher_v + fisher_w + reaction_term, each nonnegative;
    reaction_term (and hence D) may be math.inf.  Fields are floats for one
    state and arrays of one value per state for a stacked State.
    """

    E: float
    E_rel: float
    D: float
    fisher_u: float
    fisher_v: float
    fisher_w: float
    reaction_term: float


def _entropy_density(f: np.ndarray) -> np.ndarray:
    # x(ln x - 1), with value 0 at x = 0
    return xlogy(f, f) - f


def entropy(s: "State") -> float:
    """Boltzmann entropy integral(sum_x x(ln x - 1)) of a state."""
    return integrate(_entropy_density(s.y).sum(axis=-2))


def _species_gap(f: np.ndarray, ref) -> np.ndarray:
    """x ln(x/ref) - (x - ref) elementwise, continuous at x = 0.

    Evaluated as ref * ((1+h) log1p(h) - h) with h = x/ref - 1: the naive
    form cancels catastrophically near x = ref, where the true value is
    ~ (x-ref)^2 / (2 ref).  Where x < ~1e-16 * ref, h rounds to exactly -1
    and 0 * log1p(-1) is NaN; there the naive form ref - x + x ln(x/ref)
    has no cancellation and tends to ref as x -> 0.  The density is
    provably >= 0, so residual rounding (~1e-32) is clamped away; where it
    overflows it is inf, a value like the infinite reaction dissipation.
    """
    h = f / ref - 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = ref * ((1.0 + h) * np.log1p(h) - h)
        tiny = h == -1.0
        if tiny.any():
            gap = np.where(tiny, ref - f + xlogy(f, f) - f * np.log(ref), gap)
    return np.maximum(gap, 0.0)


def relative_entropy(s: "State", e: Equilibrium) -> float:
    """Entropy gap of a state relative to the equilibrium; always >= 0."""
    if not np.all(e.y > 0):
        raise ValueError("equilibrium with a zero component")
    return integrate(_species_gap(s.y, e.y[:, None]).sum(axis=-2))


def reaction_dissipation_density(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b) ln(a/b) elementwise, 0 where a == b, +inf where exactly one is 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = (a - b) * (np.log(a) - np.log(b))
    return np.where(a == b, 0.0, raw)


def dissipation(p: ReactionParams, s: "State", e: Equilibrium) -> EntropyReport:
    """Entropy dissipation of a state, split into its four contributions; E_rel is against e."""
    p.require_normalised("dissipation")
    fu, fv, fw = unstack(fisher_information(s.y, p.diffusivities))
    a = stoich_pow(s.u, p.alpha) * stoich_pow(s.v, p.beta)
    b = stoich_pow(s.w, p.gamma)
    r = reaction_dissipation_density(a, b)
    reaction = integrate(r)
    return EntropyReport(
        E=entropy(s),
        E_rel=relative_entropy(s, e),
        D=fu + fv + fw + reaction,
        fisher_u=fu,
        fisher_v=fv,
        fisher_w=fw,
        reaction_term=reaction,
    )


def l1_distances(s: "State", e: Equilibrium) -> tuple[float, float, float]:
    """L1 distances of (u, v, w) to the equilibrium constants."""
    return unstack(integrate(np.abs(s.y - e.y[:, None])))


def ck_gap(p: ReactionParams, s: "State", e: Equilibrium) -> tuple[float, float]:
    """Relative entropy vs. the sum of squared L1 distances to equilibrium.

    The Csiszar-Kullback bound asserts lhs >= C * rhs over the conservation
    manifold, so the state (every state of a stack) must carry the same
    masses as the equilibrium, to 1e-10 relative to the equilibrium's.
    """
    m1_s, m2_s = weighted_masses(p, s)
    m1_e, m2_e = masses_of(p, e.y).tolist()
    close = np.isclose(m1_s, m1_e, 1e-10, 0.0) & np.isclose(m2_s, m2_e, 1e-10, 0.0)
    if not np.all(close):
        i = np.argmin(close)  # first state off the manifold
        raise ValueError(
            f"{np.size(close) - np.count_nonzero(close)} of {np.size(close)} state(s) do not "
            f"carry the equilibrium's masses ({m1_e}, {m2_e}); the first has "
            f"({np.ravel(m1_s)[i]}, {np.ravel(m2_s)[i]})"
        )
    return relative_entropy(s, e), sum(d * d for d in l1_distances(s, e))
