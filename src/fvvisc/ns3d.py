"""3D compressible Navier-Stokes manufactured-solution problem.

The exact solution is a constant state plus psi = 0.1 exp(s / 2), with
s = x + y + z, added to every primitive variable on the cube [0, 0.5]^3, at
the fixed flow condition of the ``physics`` constants.  A forcing vector (the
divergence of the exact total flux, in closed form) makes it a steady
solution of the discretized system.  The closed form assumes that every
variable is a constant plus the same psi(s): a change of psi needs a new
forcing, or the finite-difference oracle check in ``fvvisc.invariants``
fails.  Cells adjacent to a boundary face are pinned to the exact solution
and carry zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    analytic state/gradients; independent of the closed-form forcing, which
    is cross-checked against a finite-difference divergence of this
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


def mms_forcing(points: np.ndarray) -> np.ndarray:
    """Divergence of the exact total flux at points, (..., 3) -> (..., 5).

    Each directional flux depends on position through s = x + y + z only,
    so the divergence is the s-derivative of F_x + F_y + F_z.  With
    psi' = psi/2 every velocity-gradient entry is psi', so
    tau_ij = 2 mu psi' (1 - delta_ij), each row of tau sums to 4 mu psi',
    and the three heat fluxes sum to -3 mu psi' / (Pr (gamma - 1)).
    """
    points = np.asarray(points, dtype=float)
    gamma, gm1 = physics.GAMMA, physics.GAMMA - 1.0
    psi = 0.1 * np.exp(0.5 * points.sum(axis=-1))
    d1, d2 = psi / 2, psi / 4                       # psi', psi''
    w = MMS_CONSTANTS + psi[..., None]
    rho, vel, temp = w[..., 0], w[..., 1:4], w[..., 4]
    sum_v = vel.sum(axis=-1)
    h_tot = temp / gm1 + 0.5 * (vel * vel).sum(axis=-1)
    mu = physics.sutherland_viscosity(temp)
    cr = physics.SUTHERLAND_C / physics.T_REF
    # d(mu psi')/ds, with dmu/dT from the Sutherland law
    d_mu1 = mu * (1.5 / temp - 1.0 / (temp + cr)) * d1 * d1 + mu * d2
    mass = d1 * (sum_v + 3.0 * rho)
    out = np.empty(points.shape[:-1] + (5,))
    out[..., 0] = mass
    out[..., 1:4] = mass[..., None] * vel + (
        d1 * (rho * sum_v + (rho + temp) / gamma) - 4.0 * d_mu1)[..., None]
    out[..., 4] = (mass * h_tot + rho * sum_v * d1 * (1.0 / gm1 + sum_v)
                   - 4.0 * (d_mu1 * sum_v + 3.0 * mu * d1 * d1)
                   - 3.0 * d_mu1 / (physics.PRANDTL * gm1))
    return out


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
        # static face geometry, read by the residual and the Jacobian
        fi = self.mesh.interior_faces
        self.f_owner = self.mesh.face_owner[fi]
        self.f_neighbor = self.mesh.face_neighbor[fi]
        self.f_area = self.mesh.face_area[fi]
        self.f_nhat = self.mesh.face_normal[fi] / self.f_area[:, None]
        # face centroid minus owner / neighbor centroid, their lengths as
        # (F, 1) columns, and the projected centroid distance (x_k - x_o).n
        x_f = self.mesh.face_centroid[fi]
        x_o, x_k = xc[self.f_owner], xc[self.f_neighbor]
        self.f_offset = (x_f - x_o, x_f - x_k)
        self.f_dist = tuple(np.linalg.norm(d, axis=-1)[:, None]
                            for d in self.f_offset)
        self.f_dn = np.einsum("fd,fd->f", x_k - x_o, self.f_nhat)

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
    w_o, w_k = w[o], w[k]
    w_l, w_r = recon.reconstruct_lr(w_o, grads[o], w_k, grads[k],
                                    *problem.f_offset)

    flux = physics.roe_flux(w_l, w_r, problem.f_nhat)

    grad_f = recon.alpha_damped_face_gradient(grads[o], grads[k], w_l, w_r,
                                              problem.f_dn, problem.f_nhat)
    # face velocity and temperature, state columns (u, v, w, T): one call
    tv_f = recon.face_scalar(problem.strategy, w_o[:, 1:], w_k[:, 1:],
                             w_l[:, 1:], w_r[:, 1:], *problem.f_dist)
    t_f = tv_f[:, 3]
    if np.any(t_f <= 0.0):
        raise physics.NonpositiveTemperatureError(
            f"strategy {problem.strategy.name!r} produced a non-positive "
            "face temperature")
    mu_f = physics.sutherland_viscosity(t_f)
    flux = flux + physics.viscous_normal_flux(
        grad_f[:, 1:4, :], grad_f[:, 4, :],
        np.ascontiguousarray(tv_f[:, :3]), mu_f, problem.f_nhat)

    res = np.zeros((mesh.n_cells, 5))
    contrib = flux * problem.f_area[:, None]
    np.add.at(res, o, contrib)
    np.add.at(res, k, -contrib)
    if include_forcing:
        res -= problem.forcing * mesh.cell_volume[:, None]
    if with_closure:
        res[problem.pinned] = 0.0
    return res
