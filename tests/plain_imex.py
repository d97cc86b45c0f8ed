"""A plain IMEX stepper: the executable specification of ``revreact.solver.steps``.

Written for reading, not speed, it makes every attempt in full, in the
order the solver's documentation gives:

- the reaction update y1 = y + (dt*nu)*R, rejected if a cell is negative
  or NaN, or if a cell's rate changes sign (an overshoot);
- each of u and v re-anchored, at its first largest cell, to the exact
  (fsum) weighted sums of the start, rejected if that cell goes negative;
- backward-Euler diffusion in increment form, (I - dt*d*L) delta =
  dt*d*L y1, on one block-diagonal banded Cholesky factor, the increment
  projected to zero sum; a species with a negative cell takes the direct
  solve instead, re-anchored to its sum in y1;
- the relative change test |y2 - y| <= safety*(y + 0.01*max(y));
- dt halved on a rejection and doubled (never above dt_init) after ten
  accepted steps in a row.

It shares no code with ``revreact.solver`` or ``revreact.grid``: it takes
only ``stoich_pow`` and ``masses_of`` from the model layer, and scipy.
The factor is built from dt*d/dx**2 with dx = 1/n, as the solver builds
it; dt*d*n**2 rounds differently.
"""

import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from revreact.model import masses_of, stoich_pow


class PlainUnderflow(RuntimeError):
    """dt fell below dt_min at time t."""

    def __init__(self, t):
        super().__init__(f"dt underflow at t={t!r}")
        self.t = t


def rate(p, y):
    """The normalised mass-action rate R of each cell of y = (u, v, w), for ell = k = 1."""
    return stoich_pow(y[0], p.alpha) * stoich_pow(y[1], p.beta) - stoich_pow(y[2], p.gamma)


def laplacian(f):
    """The three-point Neumann Laplacian of each row of f."""
    dx = 1.0 / f.shape[-1]
    flux = np.diff(f, axis=-1) / dx
    out = np.zeros_like(f)
    out[:, :-1] += flux
    out[:, 1:] -= flux
    return out / dx


def factor(p, dt, n):
    """The upper banded Cholesky factor of I - dt*d*L, one uncoupled block per species."""
    dx = 1.0 / n
    lam = dt * p.diffusivities[:, None] / dx**2
    ab = np.zeros((2, 3, n))
    ab[0, :, 1:] = -lam
    ab[1] = 1.0 + 2.0 * lam
    ab[1][:, [0, -1]] = 1.0 + lam
    return cholesky_banded(ab.reshape(2, -1))


def solve(c, b):
    return cho_solve_banded((c, False), b, check_finite=False)


def attempt(p, anchors, y, dt, safety):
    """The state after one step of size dt from y, or None if the step is rejected."""
    n = y.shape[-1]
    r = rate(p, y)
    y1 = y + (dt * p.nu)[:, None] * r
    if not y1.min() >= 0.0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        if (rate(p, y1) * r).min() < 0.0:
            return None
    u_total, v_total, w_total = (math.fsum(f) for f in y1.tolist())
    m1, m2 = anchors
    alpha, beta, gamma = float(p.alpha), float(p.beta), float(p.gamma)
    for f, target, total in ((y1[0], (m1 - alpha * w_total) / gamma, u_total),
                             (y1[1], (m2 - beta * w_total) / gamma, v_total)):
        f[f.argmax()] += target - total
    if not y1.min() >= 0.0:
        return None

    c = factor(p, dt, n)
    rhs = laplacian(y1) * (dt * p.diffusivities)[:, None]
    if not np.isfinite(rhs).all():
        raise ValueError("diffusion right-hand side must not contain infs or NaNs")
    delta = solve(c, rhs.reshape(-1)).reshape(3, n)
    y2 = y1 + (delta - delta.mean(axis=1, keepdims=True))
    bad = [i for i in range(3) if not y2[i].min() >= 0.0]
    if bad:
        lo, hi = bad[0], bad[-1] + 1
        direct = solve(c[:, lo * n:hi * n], y1[lo:hi].reshape(-1)).reshape(hi - lo, n)
        for i in bad:
            y2[i] = direct[i - lo]
            y2[i, y2[i].argmax()] += math.fsum(y1[i]) - math.fsum(y2[i])
        if not y2.min() >= 0.0:
            return None

    scale = y.max()
    if scale > 0.0 and not (np.abs(y2 - y) / (y + 0.01 * scale)).max() <= safety:
        return None
    return y2


def plain_steps(p, y0, cfg):
    """Each accepted (t, dt, y) from y0, shape (3, n), at t = 0 to cfg.t_end.

    y is the array the next step starts from, so changing it in place
    changes the rest of the run.  PlainUnderflow is raised where
    StepUnderflowError would be.
    """
    anchors = masses_of(p, [math.fsum(f) for f in y0.tolist()]).tolist()
    t, y, dt, accepted = 0.0, np.array(y0, dtype=float), cfg.dt_init, 0
    while t < cfg.t_end - 1e-14 * cfg.t_end:
        dt_try = min(dt, cfg.t_end - t)
        y2 = attempt(p, anchors, y, dt_try, cfg.safety)
        if y2 is None:
            dt, accepted = 0.5 * dt_try, 0
            if dt < cfg.dt_min:
                raise PlainUnderflow(t)
            continue
        t, y, accepted = t + dt_try, y2, accepted + 1
        if accepted >= 10:
            dt, accepted = min(2.0 * dt, cfg.dt_init), 0
        yield t, dt_try, y
