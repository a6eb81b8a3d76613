"""Verification toolkit for face-averaged viscous coefficients in
cell-centered finite-volume schemes.

Grid-convergence studies for a 1D nonlinear diffusion problem and the 3D
compressible Navier-Stokes equations with a manufactured solution, comparing
strategies for evaluating viscous coefficients at cell faces.
"""

from .mesh import (Grid1D, Mesh3D, generate_grid_1d, generate_tet_mesh,
                   build_mesh)
from .recon import Strategy, STRATEGY_TAGS
from .solver import SolverConfig, NonConvergenceError
from .verify import (ConvergenceRecord, l1_error, observed_order,
                     finest_pair_order, run_study_1d, run_study_3d)

__version__ = "0.1.0"

__all__ = [
    "Grid1D", "Mesh3D", "generate_grid_1d", "generate_tet_mesh",
    "build_mesh", "Strategy", "STRATEGY_TAGS",
    "SolverConfig", "NonConvergenceError", "ConvergenceRecord", "l1_error",
    "observed_order", "finest_pair_order", "run_study_1d", "run_study_3d",
    "__version__",
]
