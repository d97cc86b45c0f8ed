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

import contextlib
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np
from scipy.linalg import cholesky_banded, lapack

from .entropy import dissipation, l1_distances
from .grid import _reduced, laplacian_neumann
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

_FSUM_CELLS = 64  # up to this many cells, math.fsum's loop costs no more than _row_sums

_QUIET = contextlib.nullcontext()  # the sign test's context when no overflow is possible

_FLOAT64 = np.dtype(np.float64)


def _real_field(name: str, f) -> np.ndarray:
    """f as a float64 array; ValueError naming it unless it holds ints or floats."""
    try:
        a = np.asarray(f)
    except ValueError as e:  # a ragged list
        raise ValueError(f"{name} must be an array of real numbers: {e}") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a.astype(_FLOAT64, copy=False)


class StepUnderflowError(RuntimeError):
    """Adaptive dt fell below dt_min; the state resists the explicit reaction."""


@dataclass(frozen=True, init=False)
class State:
    """Concentrations at one instant, or S instants stacked.

    y holds u, v and w as its rows: shape (3, n) for fields of shape (n,),
    (S, 3, n) for (S, n) fields; scalar fields, which have no cell axis,
    raise ValueError.  u, v and w are views of those rows.  Fields
    of ints or floats, lists too, are converted to float64; any other field
    raises ValueError naming it.
    """

    t: float
    y: np.ndarray

    def __init__(self, t: float, u, v, w):
        fields = u, v, w
        try:  # float64 arrays, the fields of every state a run makes, cost three reads here
            real = u.dtype is v.dtype is w.dtype is _FLOAT64
        except AttributeError:
            real = False
        if not real:
            fields = u, v, w = [_real_field(name, f) for name, f in zip("uvw", fields)]
        if not (u.shape == v.shape == w.shape):
            raise ValueError("u, v, w must share one grid")
        if not u.ndim:
            raise ValueError("u, v and w need a cell axis, got scalars")
        attrs = self.__dict__  # frozen, yet writable here, and faster than object.__setattr__
        attrs["t"] = t
        # one copy; np.array of one state's rows costs half np.stack's call (once per step)
        attrs["y"] = np.array(fields) if u.ndim == 1 else np.stack(fields, -2)

    u = property(lambda self: self.y[..., 0, :])
    v = property(lambda self: self.y[..., 1, :])
    w = property(lambda self: self.y[..., 2, :])

    def min_concentration(self):
        """The smallest cell: a float for one state, an array of one per state for a stack."""
        return _reduced(self.y.min(axis=(-2, -1)))


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
        every = self.record_every
        ok = isinstance(every, numbers.Integral) and not isinstance(every, bool) and every >= 1
        require("record_every", every, ok, "an integer >= 1")


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
    """Net forward rate R = u^alpha v^beta - w^gamma of the system p, whose rates are 1.

    Other rates (ell, k) reach this form through rescale_params(p, ell, k).

    R > 0 drives the forward reaction (u, v consumed, w produced).
    """
    return stoich_pow(u, p.alpha) * stoich_pow(v, p.beta) - stoich_pow(w, p.gamma)


_rate = reaction_rate  # the overshoot test's alias: hooks count calls to reaction_rate
_State = State  # the diagnostics stack's alias: hooks count calls to State


def _least(a: np.ndarray) -> float:
    """a.min() as a Python float, NaN if a holds one; argmin skips the ufunc reduction's set-up."""
    return a.item(a.argmin())


def _most(a: np.ndarray) -> float:
    """a.max() as a Python float, NaN if a holds one; argmax skips the ufunc reduction's set-up."""
    return a.item(a.argmax())


def _anchor(f: np.ndarray, i: int, target: float, total: float) -> float:
    """Move f's largest cell, f[i], by target minus total, f's exact sum; return it."""
    f[i] += target - total
    return f[i]


def _row_sums(y: np.ndarray, low: float, high: float, parts: np.ndarray) -> list[float]:
    """math.fsum of each row of y, (3, n) with no NaN, cells in [low >= 0, high], bit for bit.

    Split (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008) at s = 2^k > 2n*max(y):
    q = (y + s) - s sums exactly to T, in any order, and r = y - q is exact, with
    |r| <= s*2^-53, all multiples of ulp(low).  If n*s*2^-53 <= 2^52*ulp(low),
    R = sum(r) is exact too and T + R rounds once, as fsum does; else R is within
    e = n^2*s*2^-105 of the r's exact sum, and rounding is monotone, so equal
    fsum((T, R, -e)) and fsum((T, R, e)) prove the sum.  Other rows, and all rows
    when 2n*max(y) is outside [2^-900, 2^1000), go to fsum.  parts holds q and r.
    """
    n = y.shape[-1]
    reach = 2 * n * high  # a Python float: no numpy overflow warning
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
    exponents as floats, per dt the banded Cholesky factor, dt*nu, dt*d and
    the sign test's quiet bound, and the buffers of the reaction update y1,
    the diffusion result y2 (which holds the right-hand side until the solve
    returns), the change test and _row_sums, with the row views, memoryviews
    and flat view of y1 and y2 that an attempt reads, made once.  An attempt
    is two substeps and a change test, each of which may reject it: _react
    writes y + dt*nu*R into y1, _diffuse solves y1 into y2, and _settled
    compares y2 with y.  Only an accepted step is copied out, into a State.
    Every re-anchoring is _anchor.

    The reaction conserves both weighted sums algebraically, but its cells
    round independently, so _react re-anchors u and v to the start's sums,
    lest rounding random-walk over a long run.  The anchors use fsum's row
    sums: fsum itself on rows of at most _FSUM_CELLS cells, else _row_sums,
    which gives them in a few numpy passes, each proved equal to fsum's bit
    for bit or taken from fsum; one argmax per row bounds them and picks the
    cells to move.  The sign test enters np.errstate only when a bound on
    the largest cell does not rule out overflow, and every minimum or
    maximum of a buffer is one argmin or argmax (_least, _most).  _diffuse
    solves the species as one system of 3n rows with uncoupled blocks (bit
    for bit as three), in increment form, (I - dt*d*L) delta = dt*d*L y1,
    y2 = y1 + delta: the right-hand side vanishes as the field homogenises,
    so solver rounding noise (eps * cond per cell for the direct form)
    decays with the solution instead of putting a ~1e-13 floor under the
    distance to equilibrium.
    The increment is projected to zero sum, as the exact solve's is, so each
    cell sum is kept to one rounding.  A cell at vacuum can be pushed
    slightly negative by rounding; such a species takes the direct solve
    instead (an M-matrix Cholesky factor never makes negative cells from
    nonnegative data), re-anchored to its sum in y1; one solve covers the
    span that fell back.  _settled accepts at once when no cell moved by
    half the smallest allowed change, and divides cell by cell otherwise.

    A run can reach a bitwise fixed point: a step whose y2 has y's bytes.
    _settled then keeps (dt, safety, those bytes) in still, and a repeat of
    them returns y2 untouched.  That is exact, as an attempt depends only on
    y's bits, dt, safety and the workspace's constants (anchors; per dt the
    factor, dt*nu, dt*d, quiet), and a computing attempt forgets still before
    it writes y2.  Bytes, not objects: a caller may change a state in place.

    An attempt that computes calls reaction_rate once, laplacian_neumann once
    and cho_solve_banded (LAPACK dpbtrs, which checks nothing) once, twice on
    a fallback, each looked up at call time; every accepted one, a repeat too,
    calls State once.  Inf or NaN data raise ValueError.
    """

    def __init__(self, p: ReactionParams, s0: State):
        self.p = p
        self.nu = p.nu[:, None]
        self.d = p.diffusivities[:, None]
        self.alpha, self.beta, self.gamma = float(p.alpha), float(p.beta), float(p.gamma)
        self.anchors = masses_of(p, [math.fsum(f) for f in s0.y.tolist()]).tolist()
        self._factors: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}
        self.y1, self.y2, self.change = np.empty((3,) + s0.y.shape)
        self.rows1, self.rows2 = tuple(self.y1), tuple(self.y2)  # views, made once
        self.cells1 = [memoryview(f) for f in self.rows1]  # what fsum reads fastest
        self.flat2 = self.y2.reshape(-1)
        self.parts = np.empty((2,) + s0.y.shape)
        self.still: tuple[float, float, bytes] | None = None  # see the class docstring

    def _scaled(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(factor, dt*nu, dt*d, quiet), built once per dt; _react proves quiet."""
        cached = self._factors.get(dt)
        if cached is None:
            dx = 1.0 / self.y1.shape[-1]
            lam = dt * self.d / dx**2
            ab = np.zeros((2,) + self.y1.shape)  # ab[0, :, 0] stays 0: the blocks do not couple
            ab[0, :, 1:] = -lam
            ab[1] = 1.0 + 2.0 * lam
            ab[1][:, [0, -1]] = 1.0 + lam
            # the largest cell up to which _react's sign test cannot overflow (proof there)
            room = min(dt, 1.0) * 2.0**1000
            k = max(self.alpha + self.beta, self.gamma)
            quiet = -1.0 if room < 1.0 else math.ldexp(1.0, math.floor(math.log2(room) / (k + 1)))
            cached = cholesky_banded(ab.reshape(2, -1)), dt * self.nu, dt * self.d, quiet
            self._factors[dt] = cached
        return cached

    def _react(self, y: np.ndarray, dt: float) -> bool:
        """Write the reaction update of y >= 0 into y1; False if it overshoots or goes negative."""
        p, y1 = self.p, self.y1
        _, dt_nu, _, quiet = self._scaled(dt)
        r = reaction_rate(p, *y)
        np.add(y, np.multiply(dt_nu, r, out=y1), out=y1)
        low = _least(y1)
        if not low >= 0.0:  # written to fail on NaN, which compares false
            return False
        i, j, k = y1.argmax(axis=1).tolist()  # each row's first largest cell
        high = max(y1.item(0, i), y1.item(1, j), y1.item(2, k))
        # A cell whose rate changes sign was carried past its reaction equilibrium.
        # Tested before re-anchoring, whose rounding-sized gaps flip the sign at
        # equilibrium.  Every test here only rejects, so their order is free.
        # The test cannot overflow or make a NaN when high <= quiet = 2^m >= 1, where
        # m*(k+1) <= log2(min(dt, 1) * 2^1000) up to log2's rounding, with
        # k = max(alpha+beta, gamma) and H = max(high, 1):
        # - each power of a cell of y1, in [0, high], is at most H^k <= 2^1000, so
        #   every factor of r1 is finite and |r1| <= H^k;
        # - r is finite and |r| <= 4*H/dt: the species that grows (w for r > 0, u for
        #   r < 0) starts >= 0 and gains fl(fl(dt*|nu_i|)*|r|) >= dt*|r|*(1 - eps)
        #   - 2^-1075, as |nu_i| >= 1, yet ends <= high;
        # - so |r1*r| <= 4*H^(k+1)/dt < 2^1003.
        # Above quiet, overflow and NaN are ignored, as they always were.
        with _QUIET if high <= quiet else np.errstate(over="ignore", invalid="ignore"):
            r1 = _rate(p, *self.rows1)  # a fresh array
            if _least(np.multiply(r1, r, out=r1)) < 0.0:
                return False
        if y1.shape[-1] <= _FSUM_CELLS:  # the sums _row_sums proves its bits against
            u_total, v_total, w_total = map(math.fsum, self.cells1)
        else:
            u_total, v_total, w_total = _row_sums(y1, low, high, self.parts)
        m1, m2 = self.anchors
        # the test above passed every cell, and anchoring moves only each row's largest
        u = _anchor(y1[0], i, (m1 - self.alpha * w_total) / self.gamma, u_total)
        v = _anchor(y1[1], j, (m2 - self.beta * w_total) / self.gamma, v_total)
        return bool(u >= 0.0 and v >= 0.0)

    def _diffuse(self, dt: float) -> bool:
        """Write the diffusion of y1 over dt into y2; False if a cell ends negative."""
        y1, y2, (factor, _, dt_d, _) = self.y1, self.y2, self._scaled(dt)
        rhs = laplacian_neumann(y1, out=y2)
        np.multiply(rhs, dt_d, out=rhs)
        delta = cho_solve_banded(factor, self.flat2).reshape(y2.shape)  # flat2 is rhs
        n = y1.shape[-1]
        mean = np.add.reduce(delta, axis=1) / n  # delta.mean(axis=1), without its wrappers
        # a non-finite mean makes the sum non-finite; a false alarm costs one rhs scan
        if not math.isfinite(sum(mean.tolist())) and not np.isfinite(rhs).all():
            raise ValueError("diffusion right-hand side must not contain infs or NaNs")
        delta -= mean[:, None]
        np.add(y1, delta, out=y2)
        if _least(y2) >= 0.0:
            return True
        fell_back = np.flatnonzero(~(y2.min(axis=1) >= 0.0))
        lo, hi = fell_back[0], fell_back[-1] + 1
        # those blocks' columns of the factor are their factor; y1 is finite, as L y1 was
        direct = cho_solve_banded(factor[:, lo * n:hi * n], y1[lo:hi].reshape(-1))
        for f, out, x in zip(y1[lo:hi], y2[lo:hi], direct.reshape(hi - lo, n)):
            if not (_least(out) >= 0.0):
                out[:] = x
                # fsum reads a memoryview fastest
                _anchor(out, out.argmax(), math.fsum(memoryview(f)), math.fsum(memoryview(out)))
        return _least(y2) >= 0.0

    def attempt(self, s: State, dt: float, safety: float) -> State | None:
        """The state after one IMEX step of size dt from s, or None if rejected."""
        if dt <= 0:
            raise ValueError("dt must be > 0")
        y = s.y
        if self.still is None or self.still != (dt, safety, y.tobytes()):
            self.still = None
            if not (self._react(y, dt) and self._diffuse(dt) and self._settled(y, dt, safety)):
                return None
        return State(s.t + dt, *self.rows2)  # on a repeat, y2 still holds y's bytes

    def _settled(self, y: np.ndarray, dt: float, safety: float) -> bool:
        """Whether no cell of y2 moved from y >= 0 by over safety*(y + _REL_CHANGE_FLOOR*max(y))."""
        scale = _most(y)
        if not scale > 0.0:
            return True
        change = np.abs(np.subtract(self.y2, y, out=self.change), out=self.change)
        c = _REL_CHANGE_FLOOR * scale
        # every floor cell fl(y + c) is >= c, so a change below fl(fl(safety*c)/2) gives
        # a quotient below safety, also where the halving rounds; a c of 0 never passes
        moved = _most(change)
        if moved < safety * c * 0.5:
            if moved == 0.0 and (bits := y.tobytes()) == self.y2.tobytes():
                self.still = dt, safety, bits  # a fixed point: attempt answers its repeats
            return True
        floor = np.add(y, c, out=self.y1)  # y1 is spent
        return _most(np.divide(change, floor, out=change)) <= safety


def cho_solve_banded(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve_banded((factor, False), b) without its checks: LAPACK dpbtrs."""
    return lapack.dpbtrs(factor, b)[0]


def _diagnostics(p: ReactionParams, s: State, e: Equilibrium,
                 times: list[tuple[float, float]]) -> list[DiagnosticsRow]:
    """The rows of the stacked states s, recorded at times [(t, dt), ...]; one call of each."""
    columns = [*weighted_masses(p, s), *vars(dissipation(p, s, e)).values(),  # the rows' order
               *l1_distances(s, e), s.min_concentration()]
    values = zip(*(c.tolist() for c in columns))  # Python floats, a tuple per state
    return [DiagnosticsRow(*time, *row) for time, row in zip(times, values)]


def steps(p: ReactionParams, s0: State, cfg: StepConfig) -> Iterator[tuple[State, float]]:
    """Each accepted (state, dt) of the adaptive run from s0 to cfg.t_end.

    dt halves on every rejection and doubles (never above dt_init) after
    ten consecutive accepted steps.  The start is checked here, before the
    first step; StepUnderflowError is raised when halving reaches dt_min.
    """
    if s0.y.ndim != 2:
        raise ValueError(f"a run starts from one state, y of shape (3, n), got {s0.y.shape}")
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


# cells of recorded states that run() reduces in one stacked call of each diagnostic
_DIAG_CELLS = 2**13


def run(p: ReactionParams, s0: State, cfg: StepConfig) -> Trajectory:
    """Integrate to cfg.t_end by steps(), recording diagnostics.

    Diagnostics are recorded at t = 0, every record_every-th accepted step
    and at the final time, a buffer of _DIAG_CELLS cells (at least one
    state) at a time: one stacked call of each diagnostic gives the same
    rows as one call per state.  The final state is kept, no other.
    """
    accepted_steps = steps(p, s0, cfg)  # checks the start before anything else
    m = MassPair(*weighted_masses(p, s0))
    eq = compute_equilibrium(p, m)
    # the buffer of recorded states is this stack's y
    stack = _State(0.0, *np.empty((3, max(_DIAG_CELLS // s0.y.size, 1), s0.y.shape[-1])))
    rows, times = [], []

    def record(s: State, dt: float) -> None:
        if len(times) == len(stack.y):
            rows.extend(_diagnostics(p, stack, eq, times))
            times.clear()
        stack.y[len(times)] = s.y
        times.append((s.t, dt))

    record(s0, 0.0)
    s, dt, accepted = s0, 0.0, 0
    for accepted, (s, dt) in enumerate(accepted_steps, start=1):
        if accepted % cfg.record_every == 0:
            record(s, dt)
    if accepted % cfg.record_every:
        record(s, dt)
    rows += _diagnostics(p, _State(0.0, *stack.y[:len(times)].swapaxes(0, 1)), eq, times)
    return Trajectory(masses=m, equilibrium=eq, rows=rows, final=s)


def z_linf(p: ReactionParams, s: State):
    """Sup of the cross-diffusion invariant beta*gamma*u + alpha*gamma*v + 2*alpha*beta*w.

    With equal diffusivities this combination obeys a pure heat equation,
    so its sup never grows (parabolic maximum principle).  A float for one
    state, an array of one sup per state for a stack.
    """
    weights = np.array([p.beta * p.gamma, p.alpha * p.gamma, 2.0 * p.alpha * p.beta])
    return _reduced((weights[:, None] * s.y).sum(axis=-2).max(axis=-1))
