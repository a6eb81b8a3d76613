"""1D nonlinear diffusion problem -d/dx(nu du/dx) = f with nu = u^2.

Exact solution u_e = exp(2x) on [0, 1]; the forcing is the analytic
f(x) = -12 exp(6x).  The finite-volume flux uses the alpha-damped face
derivative (alpha = recon.ALPHA), and the face viscosity nu_{j+1/2} is
evaluated from squared cell or reconstructed values under a selectable
strategy.  The first and last cells are pinned to the exact solution with
zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid1D
from .recon import Strategy, face_derivative_1d, face_scalar, gradient_1d


def exact_solution(x):
    return np.exp(2.0 * np.asarray(x, dtype=float))


def forcing(x):
    """f = -d/dx(u_e^2 du_e/dx) = -12 exp(6x)."""
    return -12.0 * np.exp(6.0 * np.asarray(x, dtype=float))


@dataclass
class Diffusion1DProblem:
    grid: Grid1D
    strategy: Strategy
    pinned: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.grid.n_cells
        self.pinned = np.zeros(n, dtype=bool)
        self.pinned[[0, -1]] = True
        x = self.grid.cell_centers
        self.exact = exact_solution(x)
        self.forcing = forcing(x)
        self.source = self.forcing * self.grid.cell_volumes
        # exact values of the pinned first and last cells
        self.boundary_values = self.exact[::x.size - 1]
        # face-to-centroid distances of the left and right cells, and the
        # cell-center spacing across each face
        xf = self.grid.face_coords
        self.f_dist = (xf - x[:-1], x[1:] - xf)
        self.f_spacing = x[1:] - x[:-1]

    def initial_state(self) -> np.ndarray:
        """Linear interpolant between the pinned boundary-cell values.

        The problem is nonlinear (nu = u^2) and admits spurious discrete
        roots far from the physical solution; a boundary-respecting initial
        guess keeps the pseudo-time iteration in the physical basin, which
        a constant start does not.
        """
        x = self.grid.cell_centers
        ua, ub = self.boundary_values
        u = ua + (ub - ua) * (x - x[0]) / (x[-1] - x[0])
        return apply_boundary_closure(self, u)


def apply_boundary_closure(problem: Diffusion1DProblem,
                           u: np.ndarray) -> np.ndarray:
    """Pin the first and last cells to the exact solution."""
    u = np.array(u, dtype=float)
    u[0], u[-1] = problem.boundary_values
    return u


def face_fluxes(problem: Diffusion1DProblem, u: np.ndarray) -> np.ndarray:
    """Numerical flux nu_{j+1/2} (u_x)_{j+1/2} at the n-1 interior faces.

    The cells are the last axis of u; leading axes stack states, and each
    stacked row is bit-identical to a single-state call.
    """
    d_j, d_k = problem.f_dist
    gx = gradient_1d(problem.grid, u)
    sq = u ** 2

    uj, uk = u[..., :-1], u[..., 1:]
    gj, gk = gx[..., :-1], gx[..., 1:]
    u_l = uj + gj * d_j
    u_r = uk - gk * d_k
    dudx_f = face_derivative_1d(gj, gk, u_l, u_r, problem.f_spacing)
    lr = problem.strategy.tag == "lr-average"  # the one reader of nu(u_l, u_r)
    nu = face_scalar(problem.strategy, sq[..., :-1], sq[..., 1:],
                     u_l ** 2 if lr else None, u_r ** 2 if lr else None,
                     d_j, d_k)
    return nu * dudx_f


def residual_1d(problem: Diffusion1DProblem, u: np.ndarray,
                with_closure: bool = True) -> np.ndarray:
    """Cell residual of the conservation law; pinned cells get zero.

    The physical flux of -d/dx(nu du/dx) = f is -phi with phi = nu u_x, so
    Res_j = phi_{j-1/2} - phi_{j+1/2} - f(x_j) h_j, which vanishes for the
    exact discrete solution.  The end cells have one face each:
    Res_0 = (0 - phi_{1/2}) - f h and Res_{n-1} = phi_{n-3/2} - f h.  Like
    ``face_fluxes``, u may carry leading axes of stacked states; the solver
    evaluates each state it tries stacked with its perturbed states in one
    such call.
    """
    phi = face_fluxes(problem, u)
    res = np.empty(np.shape(u))
    np.subtract(phi[..., :-1], phi[..., 1:], out=res[..., 1:-1])
    np.subtract(0.0, phi[..., 0], out=res[..., 0])
    res[..., -1] = phi[..., -1]
    res -= problem.source
    if with_closure:
        res[..., problem.pinned] = 0.0
    return res
