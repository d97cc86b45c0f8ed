"""Numerical laboratory for the reversible reaction aU + bV <-> cW with diffusion.

Simulates the mass-action reaction-diffusion system on [0,1] with a
positivity-preserving IMEX finite-volume scheme, computes the detailed-balance
equilibrium, and estimates the constants in the entropy / entropy-dissipation
and Csiszar-Kullback inequalities that drive exponential relaxation.
"""

from .model import (
    ReactionParams,
    MassPair,
    Equilibrium,
    RescaleReport,
    rescale_params,
    compute_equilibrium,
)
from .grid import Grid1D, integrate, laplacian_neumann, fisher_information
from .solver import (
    State,
    StepConfig,
    Trajectory,
    StepUnderflowError,
    reaction_rate,
    steps,
    run,
    z_linf,
)
from .entropy import EntropyReport, relative_entropy, dissipation, ck_gap
from .ineqlab import (
    RatioReport,
    homogeneous_ratio,
    scan_homogeneous_ratio,
    sample_admissible,
    estimate_k2_split,
    estimate_eed_constant,
    trajectory_eed_constant,
    verify_csiszar_kullback,
    duality_margin,
)
from .cli import fit_rate

__all__ = [
    "ReactionParams",
    "MassPair",
    "Equilibrium",
    "RescaleReport",
    "rescale_params",
    "compute_equilibrium",
    "Grid1D",
    "integrate",
    "laplacian_neumann",
    "fisher_information",
    "State",
    "StepConfig",
    "Trajectory",
    "StepUnderflowError",
    "reaction_rate",
    "steps",
    "run",
    "z_linf",
    "EntropyReport",
    "relative_entropy",
    "dissipation",
    "ck_gap",
    "RatioReport",
    "homogeneous_ratio",
    "scan_homogeneous_ratio",
    "sample_admissible",
    "estimate_k2_split",
    "estimate_eed_constant",
    "trajectory_eed_constant",
    "verify_csiszar_kullback",
    "duality_margin",
    "fit_rate",
]

__version__ = "0.1.0"
