"""Problem definition: reaction parameters, rescaling, masses, equilibrium.

The model is the reversible mass-action reaction  a*U + b*V <-> c*W  with
stoichiometric exponents (alpha, beta, gamma), normalised rates and one
diffusivity per species, posed on the normalised interval [0,1] with
no-flux boundaries: dc/dt - D*Laplace(c) = nu*R(c) for c = (u, v, w),
nu = (-alpha, -beta, gamma) and R = u^alpha v^beta - w^gamma.
ReactionParams holds that system only.  rescale_params(p, ell, k) maps
general forward/backward rates (ell, k) to it by rescaling time and
concentration, which needs ell = k when alpha + beta == gamma.  The two
weights orthogonal to nu give the conserved masses

    M1 = integral(gamma*u + alpha*w),    M2 = integral(gamma*v + beta*w).

For given positive masses there is a unique positive constant state
(a_inf, b_inf, c_inf) that balances the reaction, a_inf^alpha * b_inf^beta
= c_inf^gamma, and carries those masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import integrate, unstack

if TYPE_CHECKING:  # pragma: no cover
    from .solver import State


def require(name: str, value, ok: bool, rule: str) -> None:
    """Raise a ValueError naming `name` unless `ok` holds and `value` is finite.

    Callers state `ok` in NaN-safe form (`x >= 1`, never `not x < 1`), so a
    NaN fails the rule itself.  The finiteness test is written as a chained
    comparison so that integers of any size pass it without conversion.
    """
    finite = -math.inf < value < math.inf
    if not (ok and finite):
        qualifier = "" if finite else "finite and "
        raise ValueError(f"{name} must be {qualifier}{rule}, got {value!r}")


def stoich_pow(x, e: float):
    """x**e, using repeated multiplication when e is a small integer.

    Keeps integer-exponent powers exact-ish and fast; falls back to the
    general pow for non-integer exponents.  Works on scalars and arrays.
    """
    n = int(e)
    if n == e and 1 <= n <= 4:
        out = x
        for _ in range(n - 1):
            out = out * x
        return out
    return x**e


@dataclass(frozen=True)
class ReactionParams:
    """Stoichiometry and diffusivities of the system with normalised rates ell = k = 1."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    d1: float = 1.0
    d2: float = 1.0
    d3: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            require(name, value, value >= 1, ">= 1")
        for name in ("d1", "d2", "d3"):
            value = getattr(self, name)
            require(name, value, value > 0, "> 0")

    @property
    def nu(self) -> np.ndarray:
        """The stoichiometric vector (-alpha, -beta, gamma) over (u, v, w)."""
        return np.array([-self.alpha, -self.beta, self.gamma], dtype=float)

    @property
    def diffusivities(self) -> np.ndarray:
        """(d1, d2, d3), one diffusivity per species."""
        return np.array([self.d1, self.d2, self.d3], dtype=float)


@dataclass(frozen=True)
class MassPair:
    """The two conserved weighted masses (domain measure 1)."""

    m1: float
    m2: float

    def __post_init__(self):
        require("m1", self.m1, self.m1 > 0, "> 0")
        require("m2", self.m2, self.m2 > 0, "> 0")


def masses_of(p: ReactionParams, totals) -> np.ndarray:
    """(M1, M2) = gamma*(U, V) + (alpha, beta)*W on the last axis of totals (U, V, W)."""
    totals = np.asarray(totals, dtype=float)
    return p.gamma * totals[..., :2] - p.nu[:2] * totals[..., 2:]


def uv_totals(p: ReactionParams, masses, w_total) -> np.ndarray:
    """The (U, V) = (M - (alpha, beta)*W) / gamma beside a w total W; inverts masses_of."""
    return (masses + p.nu[:2] * w_total) / p.gamma


def weighted_masses(p: ReactionParams, s: "State"):
    """The conserved integrals (M1, M2) of a state, or arrays of them for a stack."""
    return unstack(masses_of(p, integrate(s.y)))


@dataclass(frozen=True)
class Equilibrium:
    """Detailed-balance constant state and the defect of its balance law."""

    a_inf: float
    b_inf: float
    c_inf: float
    residual: float

    @property
    def y(self) -> np.ndarray:
        """(a_inf, b_inf, c_inf) over the species axis, like State.y."""
        return np.array([self.a_inf, self.b_inf, self.c_inf])


@dataclass(frozen=True)
class RescaleReport:
    """Scale factors that normalise the rates (ell, k) to ell = k = 1.

    The transformation maps a solution (u, v, w)(t, x) of the system with
    rates (ell, k) to (u, v, w)(t*time_factor, x)/concentration_factor, a
    solution of the normalised system `rescaled`; diffusivities pick up
    time_factor (the domain is [0, 1], so space needs no scaling).
    """

    time_factor: float
    concentration_factor: float
    rescaled: ReactionParams


def rescale_params(p: ReactionParams, ell: float, k: float) -> RescaleReport:
    """Normalise forward/backward rates (ell, k) to 1 by rescaling time and concentration.

    p gives the exponents and the diffusivities of the system with rates
    (ell, k).  For alpha + beta != gamma the factors are

        concentration_factor = (k/ell)^(1/(alpha+beta-gamma))
        time_factor          = (k/ell)^((1-gamma)/(alpha+beta-gamma)) / k

    and the rescaled diffusivities are d_i * time_factor.  For alpha + beta
    == gamma a concentration scale leaves ell/k unchanged, so only ell == k
    can be normalised, by time_factor = 1/k alone; other rates raise
    ValueError naming ell and k.
    """
    require("ell", ell, ell > 0, "> 0")
    require("k", k, k > 0, "> 0")
    conc, time = 1.0, 1.0 / k
    if p.alpha + p.beta == p.gamma:
        if ell != k:
            raise ValueError(f"ell and k must be equal when alpha + beta == gamma, as no "
                             f"rescaling changes ell/k there, got ell={ell!r}, k={k!r}")
    else:
        expo = p.alpha + p.beta - p.gamma
        conc = (k / ell) ** (1.0 / expo)
        time = (k / ell) ** ((1.0 - p.gamma) / expo) / k
    return RescaleReport(
        time_factor=time,
        concentration_factor=conc,
        rescaled=ReactionParams(p.alpha, p.beta, p.gamma, p.d1 * time, p.d2 * time, p.d3 * time),
    )


def _balance_defect(p: ReactionParams, m: MassPair, c: float) -> float:
    """(M1/g - c*a/g)^a (M2/g - c*b/g)^b - c^g; decreasing in c."""
    a = (m.m1 - p.alpha * c) / p.gamma
    b = (m.m2 - p.beta * c) / p.gamma
    try:
        return stoich_pow(a, p.alpha) * stoich_pow(b, p.beta) - stoich_pow(c, p.gamma)
    except OverflowError:  # float ** raises where numpy would give inf
        raise OverflowError(f"a^alpha b^beta = c^gamma overflows for alpha={p.alpha!r}, "
                            f"beta={p.beta!r}, gamma={p.gamma!r}") from None


def compute_equilibrium(p: ReactionParams, m: MassPair) -> Equilibrium:
    """Solve for the unique detailed-balance state with the given masses.

    c_inf is the root of (M1/g - c*a/g)^a (M2/g - c*b/g)^b = c^g on
    [0, min(M1/alpha, M2/beta)].  The left side is strictly decreasing and
    the right side strictly increasing, so plain bisection cannot fail; it
    stops when the bracket is 1e-14 wide, relative to its upper end below 1,
    or has no double inside: within 2200 halvings, as 2^1024 / 2^-1074 is 2^2098.
    A c_inf that underflows to 0, or a balance law that overflows (a residual
    that is not finite), raises ValueError naming the masses and exponents.
    """
    lo = 0.0
    hi = min(m.m1 / p.alpha, m.m2 / p.beta)
    # defect(0) > 0 and defect(hi) < 0 for positive masses
    for _ in range(2200):
        mid = 0.5 * (lo + hi)
        d = _balance_defect(p, m, mid)
        if d == 0.0:
            lo = hi = mid
            break
        if d > 0.0:
            lo = mid
        else:
            hi = mid
        # relative below 1, so a small c_inf keeps its digits; past 64 doubles are > 1e-14 apart
        if hi - lo <= 1e-14 * min(hi, 1.0) or not lo < 0.5 * (lo + hi) < hi:
            break
    else:
        raise RuntimeError(
            "equilibrium bisection did not converge; this contradicts the "
            "monotone structure of the balance equation"
        )
    c = 0.5 * (lo + hi)
    a = (m.m1 - p.alpha * c) / p.gamma
    b = (m.m2 - p.beta * c) / p.gamma
    residual = abs(_balance_defect(p, m, c))
    if not (c > 0.0 and math.isfinite(residual)):
        if not c > 0.0:  # a or b may round to 0 beside masses far above 1; c only underflows
            problem = f"an equilibrium with a zero component: c_inf underflows to {c!r}"
        else:
            problem = f"a balance law a^alpha b^beta = c^gamma that overflows ({residual!r})"
        raise ValueError(f"m1={m.m1!r}, m2={m.m2!r} with alpha={p.alpha!r}, beta={p.beta!r}, "
                         f"gamma={p.gamma!r} give {problem}")
    return Equilibrium(a_inf=a, b_inf=b, c_inf=c, residual=residual)

