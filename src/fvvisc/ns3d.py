"""3D compressible Navier-Stokes manufactured-solution problem.

The exact solution is a constant state plus 0.1 exp(0.5 (x + y + z)) added to
every primitive variable on the cube [0, 0.5]^3, at the fixed flow condition
of the ``physics`` constants.  A forcing vector (the analytic divergence of
the exact total flux, derived symbolically once per process and cached)
makes it a steady solution of the discretized system.  Cells adjacent to a
boundary face are pinned to the exact solution and carry zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import physics, recon
from .mesh import Mesh3D
from .recon import Strategy

MMS_CONSTANTS = np.array([1.0, 0.3, 0.2, 0.1, 1.0])


def mms_state(points: np.ndarray) -> np.ndarray:
    """Exact primitive state at the given points; shape (..., 3) -> (..., 5)."""
    points = np.asarray(points, dtype=float)
    psi = 0.1 * np.exp(0.5 * points.sum(axis=-1))
    return MMS_CONSTANTS + psi[..., None]


def mms_gradients(points: np.ndarray) -> np.ndarray:
    """Exact gradients of all primitive variables, shape (..., 5, 3).

    Every variable shares the same gradient 0.05 exp(0.5 (x+y+z)) (1, 1, 1).
    """
    points = np.asarray(points, dtype=float)
    dpsi = 0.05 * np.exp(0.5 * points.sum(axis=-1))
    return np.broadcast_to(dpsi[..., None, None],
                           points.shape[:-1] + (5, 3)).copy()


def mms_total_flux(points: np.ndarray) -> np.ndarray:
    """Exact total (inviscid + viscous) flux tensor at points, shape (..., 3, 5).

    Composed numerically from the physics-module flux routines and the
    analytic state/gradients; independent of the symbolic forcing derivation,
    which is cross-checked against a finite-difference divergence of this
    function.
    """
    points = np.asarray(points, dtype=float)
    w = mms_state(points)
    grads = mms_gradients(points)           # (..., 5, 3)
    grad_v = grads[..., 1:4, :]
    grad_t = grads[..., 4, :]
    mu = physics.sutherland_viscosity(w[..., 4])
    vel = w[..., 1:4]
    out = np.empty(points.shape[:-1] + (3, 5))
    eye = np.eye(3)
    for d in range(3):
        nhat = np.broadcast_to(eye[d], points.shape)
        out[..., d, :] = physics.inviscid_normal_flux(w, nhat) + \
            physics.viscous_normal_flux(grad_v, grad_t, vel, mu, nhat)
    return out


@lru_cache(maxsize=1)
def _forcing_function():
    """Symbolic divergence of the exact total flux, lambdified for numpy."""
    import sympy as sp

    gamma, prandtl = physics.GAMMA, physics.PRANDTL

    x, y, z = sp.symbols("x y z")
    coords = (x, y, z)
    psi = sp.Rational(1, 10) * sp.exp((x + y + z) / 2)
    rho = 1 + psi
    vel = [sp.Rational(3, 10) + psi, sp.Rational(1, 5) + psi,
           sp.Rational(1, 10) + psi]
    temp = 1 + psi
    p = rho * temp / gamma
    q2 = sum(v * v for v in vel)
    h_tot = temp / (gamma - 1) + q2 / 2

    cr = sp.Float(physics.SUTHERLAND_C) / sp.Float(physics.T_REF)
    mu = (sp.Float(physics.MACH / physics.REYNOLDS) * (1 + cr) / (temp + cr)
          * temp ** sp.Rational(3, 2))
    gv = [[sp.diff(vel[i], coords[j]) for j in range(3)] for i in range(3)]
    div_v = gv[0][0] + gv[1][1] + gv[2][2]
    tau = [[mu * (gv[i][j] + gv[j][i]
                  - (sp.Rational(2, 3) * div_v if i == j else 0))
            for j in range(3)] for i in range(3)]
    heat = [-mu / (prandtl * (gamma - 1)) * sp.diff(temp, c) for c in coords]

    forcing = [sp.S.Zero] * 5
    for d in range(3):
        vn = vel[d]
        flux = [rho * vn,
                rho * vn * vel[0] + p * (1 if d == 0 else 0) - tau[0][d],
                rho * vn * vel[1] + p * (1 if d == 1 else 0) - tau[1][d],
                rho * vn * vel[2] + p * (1 if d == 2 else 0) - tau[2][d],
                rho * vn * h_tot
                - (tau[0][d] * vel[0] + tau[1][d] * vel[1] + tau[2][d] * vel[2])
                + heat[d]]
        for i in range(5):
            forcing[i] += sp.diff(flux[i], coords[d])
    # Not simplified: sp.simplify costs seconds per process and changes the
    # values only at rounding level; common subexpressions are shared in the
    # lambdified code instead.
    return sp.lambdify((x, y, z), forcing, "numpy", cse=True)


def mms_forcing(points: np.ndarray) -> np.ndarray:
    """Analytic forcing vector at the given points, shape (..., 3) -> (..., 5)."""
    points = np.asarray(points, dtype=float)
    comps = _forcing_function()(points[..., 0], points[..., 1], points[..., 2])
    return np.stack([np.broadcast_to(c, points.shape[:-1]) for c in comps],
                    axis=-1)


@dataclass
class NS3DProblem:
    """Mesh, reconstruction strategy, and precomputed MMS data."""

    mesh: Mesh3D
    strategy: Strategy

    def __post_init__(self):
        xc = self.mesh.cell_centroid
        self.exact = mms_state(xc)                       # (C, 5)
        self.forcing = mms_forcing(xc)                   # (C, 5)
        self.pinned = self.mesh.boundary_cell.copy()
        # face-local geometry for assembly
        fi = self.mesh.interior_faces
        self.f_owner = self.mesh.face_owner[fi]
        self.f_neighbor = self.mesh.face_neighbor[fi]
        self.f_area = self.mesh.face_area[fi]
        self.f_nhat = self.mesh.face_normal[fi] / self.f_area[:, None]
        self.f_centroid = self.mesh.face_centroid[fi]

    def initial_state(self) -> np.ndarray:
        """Free-stream constants everywhere, exact solution in pinned cells."""
        w = np.tile(MMS_CONSTANTS, (self.mesh.n_cells, 1))
        w[self.pinned] = self.exact[self.pinned]
        return w


def residual_ns3d(problem: NS3DProblem, states: np.ndarray,
                  with_closure: bool = True,
                  include_forcing: bool = True) -> np.ndarray:
    """Per-cell residual: sum of face fluxes times areas minus forcing * volume.

    Interior faces only (boundary faces border pinned cells, whose residuals
    are zeroed by the closure).  With ``with_closure=False`` the raw assembled
    residual is returned, which telescopes: its sum over all cells equals
    minus the total forcing.  ``include_forcing=False`` drops the source term
    (used by the free-stream preservation check).
    """
    mesh = problem.mesh
    w = np.asarray(states, dtype=float)
    grads = recon.lsq_gradient_3d(mesh, w)               # (C, 5, 3)

    o, k = problem.f_owner, problem.f_neighbor
    xc = mesh.cell_centroid
    w_l, w_r = recon.reconstruct_lr(w[o], grads[o], xc[o], w[k], grads[k],
                                    xc[k], problem.f_centroid)

    flux = physics.roe_flux(w_l, w_r, problem.f_nhat)

    grad_f = recon.alpha_damped_face_gradient(grads[o], grads[k], w_l, w_r,
                                              xc[o], xc[k], problem.f_nhat)
    t_f = recon.face_scalar(problem.strategy, w[o][:, 4], w[k][:, 4],
                            w_l[:, 4], w_r[:, 4], xc[o], xc[k],
                            problem.f_centroid)
    if np.any(t_f <= 0.0):
        raise physics.NonpositiveTemperatureError(
            f"strategy {problem.strategy.name!r} produced a non-positive "
            "face temperature")
    v_f = np.stack([recon.face_scalar(problem.strategy, w[o][:, 1 + d],
                                      w[k][:, 1 + d], w_l[:, 1 + d],
                                      w_r[:, 1 + d], xc[o], xc[k],
                                      problem.f_centroid)
                    for d in range(3)], axis=-1)
    mu_f = physics.sutherland_viscosity(t_f)
    flux = flux + physics.viscous_normal_flux(grad_f[:, 1:4, :],
                                              grad_f[:, 4, :], v_f, mu_f,
                                              problem.f_nhat)

    res = np.zeros((mesh.n_cells, 5))
    contrib = flux * problem.f_area[:, None]
    np.add.at(res, o, contrib)
    np.add.at(res, k, -contrib)
    if include_forcing:
        res -= problem.forcing * mesh.cell_volume[:, None]
    if with_closure:
        res[problem.pinned] = 0.0
    return res
