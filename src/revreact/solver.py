"""IMEX time integration: explicit reaction, implicit (backward-Euler) diffusion.

A state holds the species (u, v, w) as the rows of one array y.  Each step
applies the pointwise reaction update

    y* = y + dt * nu * R,   nu = (-alpha, -beta, gamma),

with R the (normalised) mass-action rate, then solves one block-diagonal
backward-Euler system, a tridiagonal block per species, for the diffusion.
Both mass weights are orthogonal to nu, so gamma*int(u)+alpha*int(w) and
gamma*int(v)+beta*int(w) are conserved to rounding, and the no-flux
implicit diffusion conserves every cell sum exactly.

Positivity is enforced by step rejection followed by dt halving, never by
clipping: a step that produces a negative cell, or changes any cell by
more than the configured safety fraction, is discarded, and so is a
reaction update that changes the sign of any cell's rate: it has carried
the cell past its reaction equilibrium, so the entropy would rise.  A run
makes all its attempts in one private _Workspace.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
from scipy.linalg import cholesky_banded, lapack

from .entropy import dissipation, l1_distances
from .grid import laplacian_neumann
from .model import (
    Equilibrium,
    MassPair,
    ReactionParams,
    compute_equilibrium,
    masses_of,
    require,
    stoich_pow,
    weighted_masses,
)

# floor, as a fraction of the state's sup, added to the denominator of the
# pointwise relative-change test so that cells at vacuum do not force
# rejections forever
_REL_CHANGE_FLOOR = 0.01


class StepUnderflowError(RuntimeError):
    """Adaptive dt fell below dt_min; the state resists the explicit reaction."""


@dataclass(frozen=True, init=False)
class State:
    """Concentrations at one instant, or S instants stacked.

    y holds u, v and w as its rows: shape (3, n) for fields of shape (n,),
    (S, 3, n) for (S, n) fields.  u, v and w are views of those rows.
    """

    t: float
    y: np.ndarray

    def __init__(self, t: float, u, v, w):
        if not (u.shape == v.shape == w.shape):
            raise ValueError("u, v, w must share one grid")
        object.__setattr__(self, "t", t)
        # what np.stack(axis=-2) does, at half its call overhead (once per step)
        rows = [f[..., None, :] for f in (u, v, w)]
        object.__setattr__(self, "y", np.concatenate(rows, axis=-2))

    u = property(lambda self: self.y[..., 0, :])
    v = property(lambda self: self.y[..., 1, :])
    w = property(lambda self: self.y[..., 2, :])

    def min_concentration(self) -> float:
        return float(self.y.min())


@dataclass(frozen=True)
class StepConfig:
    """Adaptive stepping controls."""

    dt_init: float = 1e-3
    dt_min: float = 1e-12
    safety: float = 0.2
    t_end: float = 10.0
    record_every: int = 20

    def __post_init__(self):
        require("dt_init", self.dt_init, self.dt_init > 0, "> 0")
        require("dt_min", self.dt_min, 0 < self.dt_min <= self.dt_init, "> 0 and <= dt_init")
        require("safety", self.safety, 0 < self.safety <= 1, "> 0 and <= 1")
        require("t_end", self.t_end, self.t_end > 0, "> 0")
        ok = isinstance(self.record_every, numbers.Integral) and self.record_every >= 1
        require("record_every", self.record_every, ok, "an integer >= 1")


@dataclass(frozen=True)
class DiagnosticsRow:
    """One recorded line of run diagnostics (also the CSV schema)."""

    t: float
    dt: float
    mass1: float
    mass2: float
    E: float
    E_rel: float
    D: float
    fisher_u: float
    fisher_v: float
    fisher_w: float
    reaction_term: float
    l1_u: float
    l1_v: float
    l1_w: float
    min_conc: float


CSV_COLUMNS = tuple(f.name for f in dataclass_fields(DiagnosticsRow))


@dataclass
class Trajectory:
    """Recorded diagnostics and the final state of one run."""

    masses: MassPair
    equilibrium: Equilibrium
    rows: list[DiagnosticsRow]
    final: State

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def reaction_rate(p: ReactionParams, u, v, w):
    """Normalised net forward rate R = u^alpha v^beta - w^gamma.

    R > 0 drives the forward reaction (u, v consumed, w produced).  When
    alpha + beta == gamma the leftover rate ratio multiplies R (see
    ReactionParams.rate_factor); otherwise the parameters are expected to
    be pre-normalised to ell = k = 1.
    """
    r = stoich_pow(u, p.alpha) * stoich_pow(v, p.beta) - stoich_pow(w, p.gamma)
    factor = p.rate_factor
    return r * factor if factor != 1.0 else r


_rate = reaction_rate  # the overshoot test's alias: hooks count calls to reaction_rate


def _anchor(f: np.ndarray, target: float, total: float) -> float:
    """Move f's largest cell by target minus total, f's exact sum; return it."""
    i = f.argmax()
    f[i] += target - total
    return f[i]


def _row_sums(y: np.ndarray, low: float, parts: np.ndarray) -> list[float]:
    """math.fsum of each row of y, (3, n) with no NaN and no cell below low >= 0, bit for bit.

    Split (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008) at s = 2^k > 2n*max(y):
    q = (y + s) - s sums exactly to T, in any order, and r = y - q is exact, with
    |r| <= s*2^-53, all multiples of ulp(low).  If n*s*2^-53 <= 2^52*ulp(low),
    R = sum(r) is exact too and T + R rounds once, as fsum does; else R is within
    e = n^2*s*2^-105 of the r's exact sum, and rounding is monotone, so equal
    fsum((T, R, -e)) and fsum((T, R, e)) prove the sum.  Other rows, and all rows
    when 2n*max(y) is outside [2^-900, 2^1000), go to fsum.  parts holds q and r.
    """
    n = y.shape[-1]
    reach = 2 * n * float(y.max())  # a Python float: no numpy overflow warning
    if not 2.0**-900 <= reach < 2.0**1000:  # never split an infinite row: inf - inf warns
        return [math.fsum(memoryview(f)) for f in y]
    s = math.ldexp(1.0, math.frexp(reach)[1])
    np.subtract(np.add(y, s, out=parts[0]), s, out=parts[0])
    np.subtract(y, parts[0], out=parts[1])
    highs, lows = np.add.reduce(parts, axis=-1).tolist()
    width = s * 2.0**-105 * n  # n*s*2^-105, exact: a power of two times n
    if width <= math.ulp(low):
        return [t + r for t, r in zip(highs, lows)]
    e = n * width
    below = [math.fsum((t, r, -e)) for t, r in zip(highs, lows)]
    return [x if x == math.fsum((t, r, e)) else math.fsum(memoryview(f))
            for f, x, t, r in zip(y, below, highs, lows)]


class _Workspace:
    """What one run's IMEX attempts reuse: parameters, factors and buffers.

    Built once per run, it holds the start state's exact weighted sums (the
    re-anchoring targets), nu and the diffusivities d as (3, 1) columns, the
    exponents as floats, per dt the banded Cholesky factor, dt*nu and dt*d,
    and the buffers of the reaction update y1, the diffusion result y2 (which
    holds the right-hand side until the solve returns), the change test and
    _row_sums.  An attempt is two substeps, either of which may reject it:
    _react writes y + dt*nu*R into y1, _diffuse solves y1 into y2.  Only an
    accepted step is copied out, into a State.  Every re-anchoring is _anchor.

    The reaction conserves both weighted sums algebraically, but its cells
    round independently, so _react re-anchors u and v to the start's sums,
    lest rounding random-walk over a long run.  The anchors use fsum's row
    sums, which _row_sums gives in a few numpy passes, each proved equal to
    fsum's bit for bit or taken from fsum.  _diffuse solves the species as
    one system of 3n rows with uncoupled blocks (bit for bit as three), in
    increment form, (I - dt*d*L) delta = dt*d*L y1, y2 = y1 + delta: the
    right-hand side vanishes as the field homogenises, so solver rounding
    noise (eps * cond per cell for the direct form) decays with the solution
    instead of putting a ~1e-13 floor under the distance to equilibrium.
    The increment is projected to zero sum, as the exact solve's is, so each
    cell sum is kept to one rounding.  A cell at vacuum can be pushed
    slightly negative by rounding; such a species takes the direct solve
    instead (an M-matrix Cholesky factor never makes negative cells from
    nonnegative data), re-anchored to its sum in y1; one solve covers the
    span that fell back.

    An attempt calls reaction_rate once, laplacian_neumann once and
    cho_solve_banded (LAPACK dpbtrs, which checks nothing) once, twice on a
    fallback, each looked up at call time.  Inf or NaN data raise ValueError.
    """

    def __init__(self, p: ReactionParams, s0: State):
        self.p = p
        self.nu = p.nu[:, None]
        self.d = p.diffusivities[:, None]
        self.alpha, self.beta, self.gamma = float(p.alpha), float(p.beta), float(p.gamma)
        self.anchors = masses_of(p, [math.fsum(f) for f in s0.y.tolist()]).tolist()
        self._factors: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.y1, self.y2, self.change = np.empty((3,) + s0.y.shape)
        self.parts = np.empty((2,) + s0.y.shape)

    def _scaled(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(factor, dt*nu, dt*d), built once per dt."""
        cached = self._factors.get(dt)
        if cached is None:
            dx = 1.0 / self.y1.shape[-1]
            lam = dt * self.d / dx**2
            ab = np.zeros((2,) + self.y1.shape)  # ab[0, :, 0] stays 0: the blocks do not couple
            ab[0, :, 1:] = -lam
            ab[1] = 1.0 + 2.0 * lam
            ab[1][:, [0, -1]] = 1.0 + lam
            cached = cholesky_banded(ab.reshape(2, -1)), dt * self.nu, dt * self.d
            self._factors[dt] = cached
        return cached

    def _react(self, y: np.ndarray, dt: float) -> bool:
        """Write the reaction update of y into y1; False if it overshoots or goes negative."""
        p, y1 = self.p, self.y1
        r = reaction_rate(p, *y)
        np.add(y, np.multiply(self._scaled(dt)[1], r, out=y1), out=y1)
        # A cell whose rate changes sign was carried past its reaction equilibrium.
        # Tested before re-anchoring, whose rounding-sized gaps flip the sign at
        # equilibrium; NaN and overflow are left to the test below.
        with np.errstate(over="ignore", invalid="ignore"):
            if (r * _rate(p, *y1)).min() < 0.0:
                return False
        low = y1.min()
        if not low >= 0.0:  # written to fail on NaN, which compares false
            return False
        u_total, v_total, w_total = _row_sums(y1, low, self.parts)
        m1, m2 = self.anchors
        # the test above passed every cell, and anchoring moves only each row's largest
        u = _anchor(y1[0], (m1 - self.alpha * w_total) / self.gamma, u_total)
        v = _anchor(y1[1], (m2 - self.beta * w_total) / self.gamma, v_total)
        return bool(u >= 0.0 and v >= 0.0)

    def _diffuse(self, dt: float) -> bool:
        """Write the diffusion of y1 over dt into y2; False if a cell ends negative."""
        y1, y2, (factor, _, dt_d) = self.y1, self.y2, self._scaled(dt)
        rhs = laplacian_neumann(y1, out=y2)
        np.multiply(rhs, dt_d, out=rhs)
        delta = cho_solve_banded(factor, rhs.reshape(-1)).reshape(rhs.shape)
        n = y1.shape[-1]
        mean = delta.sum(axis=1) / n  # delta.mean(axis=1), without its wrapper
        # a non-finite mean makes the sum non-finite; a false alarm costs one rhs scan
        if not math.isfinite(sum(mean.tolist())) and not np.isfinite(rhs).all():
            raise ValueError("diffusion right-hand side must not contain infs or NaNs")
        delta -= mean[:, None]
        np.add(y1, delta, out=y2)
        if y2.min() >= 0.0:
            return True
        fell_back = np.flatnonzero(~(y2.min(axis=1) >= 0.0))
        lo, hi = fell_back[0], fell_back[-1] + 1
        # those blocks' columns of the factor are their factor; y1 is finite, as L y1 was
        direct = cho_solve_banded(factor[:, lo * n:hi * n], y1[lo:hi].reshape(-1))
        for f, out, x in zip(y1[lo:hi], y2[lo:hi], direct.reshape(hi - lo, n)):
            if not (out.min() >= 0.0):
                out[:] = x
                # fsum reads a memoryview fastest
                _anchor(out, math.fsum(memoryview(f)), math.fsum(memoryview(out)))
        return bool(y2.min() >= 0.0)

    def attempt(self, s: State, dt: float, safety: float) -> State | None:
        """The state after one IMEX step of size dt from s, or None if rejected."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        y = s.y
        if not (self._react(y, dt) and self._diffuse(dt)):
            return None
        scale = y.max()
        if scale > 0.0:
            change = np.abs(np.subtract(self.y2, y, out=self.change), out=self.change)
            floor = np.add(y, _REL_CHANGE_FLOOR * scale, out=self.y1)  # y1 is spent
            if not (np.divide(change, floor, out=change).max() <= safety):
                return None
        return State(s.t + dt, *self.y2)


def cho_solve_banded(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve_banded((factor, False), b) without its checks: LAPACK dpbtrs."""
    return lapack.dpbtrs(factor, b)[0]


def _diagnostics(p: ReactionParams, s: State, e: Equilibrium, dt: float) -> DiagnosticsRow:
    mass1, mass2 = weighted_masses(p, s)
    return DiagnosticsRow(
        t=s.t, dt=dt, mass1=mass1, mass2=mass2,
        **vars(dissipation(p, s, e)),  # every EntropyReport field is a column
        **dict(zip(("l1_u", "l1_v", "l1_w"), l1_distances(s, e))),
        min_conc=s.min_concentration(),
    )


def steps(p: ReactionParams, s0: State, cfg: StepConfig) -> Iterator[tuple[State, float]]:
    """Each accepted (state, dt) of the adaptive run from s0 to cfg.t_end.

    dt halves on every rejection and doubles (never above dt_init) after
    ten consecutive accepted steps.  The start is checked here, before the
    first step; StepUnderflowError is raised when halving reaches dt_min.
    """
    p.require_normalised("run")
    n = s0.y.shape[-1]
    require("n_cells", n, n >= 2, "an integer >= 2")  # Grid1D's rule, on the start's last axis
    if not np.isfinite(s0.y).all():
        raise ValueError("initial state has non-finite cells")
    if s0.min_concentration() < 0:
        raise ValueError("initial state has negative cells")
    if s0.t != 0.0:
        raise ValueError("runs start at t = 0")
    return _accepted_steps(p, s0, cfg)


def _accepted_steps(p: ReactionParams, s: State, cfg: StepConfig):
    workspace = _Workspace(p, s)
    dt = cfg.dt_init
    accepted_since_double = 0
    while s.t < cfg.t_end - 1e-14 * cfg.t_end:
        dt_try = min(dt, cfg.t_end - s.t)
        nxt = workspace.attempt(s, dt_try, cfg.safety)
        if nxt is None:
            dt = 0.5 * dt_try
            accepted_since_double = 0
            if dt < cfg.dt_min:
                raise StepUnderflowError(
                    f"dt underflow at t={s.t:.6g}: dt={dt:.3e} < dt_min, "
                    f"min conc={s.min_concentration():.3e}, "
                    f"max conc={s.y.max():.3e}"
                )
            continue
        s = nxt
        accepted_since_double += 1
        if accepted_since_double >= 10:
            dt = min(2.0 * dt, cfg.dt_init)
            accepted_since_double = 0
        yield s, dt_try


def run(p: ReactionParams, s0: State, cfg: StepConfig) -> Trajectory:
    """Integrate to cfg.t_end by steps(), recording diagnostics.

    Diagnostics are recorded at t = 0, every record_every-th accepted step,
    and at the final time; the final state is kept, no other.
    """
    accepted_steps = steps(p, s0, cfg)  # checks the start before anything else
    m = MassPair(*weighted_masses(p, s0))
    eq = compute_equilibrium(p, m)
    rows = [_diagnostics(p, s0, eq, 0.0)]
    s, dt, recorded_last = s0, 0.0, True
    for accepted, (s, dt) in enumerate(accepted_steps, start=1):
        recorded_last = accepted % cfg.record_every == 0
        if recorded_last:
            rows.append(_diagnostics(p, s, eq, dt))
    if not recorded_last:
        rows.append(_diagnostics(p, s, eq, dt))
    return Trajectory(masses=m, equilibrium=eq, rows=rows, final=s)


def z_linf(p: ReactionParams, s: State) -> float:
    """Sup of the cross-diffusion invariant beta*gamma*u + alpha*gamma*v + 2*alpha*beta*w.

    With equal diffusivities this combination obeys a pure heat equation,
    so its sup never grows (parabolic maximum principle).
    """
    weights = np.array([p.beta * p.gamma, p.alpha * p.gamma, 2.0 * p.alpha * p.beta])
    return float((weights[:, None] * s.y).sum(axis=-2).max())
