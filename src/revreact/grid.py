"""Uniform 1-D finite-volume grid on [0,1] with no-flux discrete operators.

Fields are plain numpy arrays of cell averages.  Initial data given in
closed form is sampled at cell midpoints, which keeps the discrete masses
exact for the profiles used here.  Code that makes a field takes a Grid1D;
code that is handed one reads n_cells from its last axis, dx = 1/n_cells.
The operators act on the last axis, so a stack of fields of shape
(S, n_cells) is handled in one call; reductions return a Python float for
one field and an array of S values for a stack.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """n_cells equal cells covering [0,1]; dx = 1/n_cells."""

    n_cells: int = 200

    def __post_init__(self):
        if not (isinstance(self.n_cells, numbers.Integral) and self.n_cells >= 2):
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


def _reduced(x):
    """A Python float for the reduction of one field, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def unstack(x) -> tuple:
    """The last axis as a tuple: Python floats for one field, arrays for a stack."""
    return tuple(_reduced(c) for c in np.moveaxis(x, -1, 0))


def integrate(f: np.ndarray):
    """Midpoint quadrature: dx * sum(f) over the last axis."""
    f = np.asarray(f, dtype=float)
    dx = 1.0 / f.shape[-1]
    return _reduced(dx * f.sum(axis=-1))


def laplacian_neumann(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Conservative three-point Laplacian with zero-flux boundary closure.

    Interior face flux (f[i+1]-f[i])/dx, zero flux through both boundary
    faces; cell update is the flux difference divided by dx.  The output
    integrates to zero (discrete divergence theorem).  It is written into
    `out` when given, an array of f's shape that must not overlap f.
    """
    f = np.asarray(f, dtype=float)
    dx = 1.0 / f.shape[-1]
    flux = (f[..., 1:] - f[..., :-1]) / dx  # np.diff(f), without its Python wrapper
    if out is None:
        out = np.empty_like(f)
    out.fill(0.0)
    out[..., :-1] += flux  # adding to zeros, not copying: 0 + (-0.0) is +0.0
    out[..., 1:] -= flux
    return np.divide(out, dx, out=out)


def fisher_information(f: np.ndarray, d: float = 1.0):
    """Discrete 4*d*integral(|grad sqrt(f)|^2), the Fisher information.

    Uses square-root differences across interior faces, so the value stays
    finite where f touches zero (unlike |grad f|^2 / f).
    """
    f = np.asarray(f, dtype=float)
    dx = 1.0 / f.shape[-1]
    if np.any(f < 0):
        raise ValueError("fisher_information requires a nonnegative field")
    root = np.sqrt(f)
    jumps = np.diff(root)
    return _reduced(4.0 * d * np.sum(jumps * jumps, axis=-1) / dx)
