"""3D compressible Navier-Stokes manufactured-solution problem.

The exact solution is a constant state plus psi = 0.1 exp(s / 2), with
s = x + y + z, added to every primitive variable on the cube [0, 0.5]^3, at
the fixed flow condition of the ``physics`` constants.  A forcing vector (the
divergence of the exact total flux, in closed form) makes it a steady
solution of the discretized system.  The closed form assumes that every
variable is a constant plus the same psi(s): a change of psi needs a new
forcing, or the finite-difference oracle check in ``fvvisc.invariants``
fails.  Cells adjacent to a boundary face are pinned
(``NS3DProblem.pinned``): ``NS3DProblem.pin`` holds them at the exact
solution, and their residual is zero.

Layout.  Cell arrays keep the variables last, (C, 5), as the solver reads
them; face arrays are per-variable rows, (5, F), (3, F) or (5, 3, F), the
layout of the ``recon`` and ``physics`` face kernels.  ``residual_ns3d`` is
where the two meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    function.  The flux routines take per-variable rows, so the state and
    gradients are handed over as (5, ...) and (5, 3, ...) views.
    """
    points = np.asarray(points, dtype=float)
    w = np.moveaxis(mms_state(points), -1, 0)
    grads = np.moveaxis(mms_gradients(points), (-2, -1), (0, 1))
    mu = physics.sutherland_viscosity(w[4])
    out = np.empty(points.shape[:-1] + (3, 5))
    for d, axis in enumerate(np.eye(3)):
        nhat = np.moveaxis(np.broadcast_to(axis, points.shape), -1, 0)
        flux = physics.inviscid_normal_flux(w, nhat) + \
            physics.viscous_normal_flux(grads[1:4], grads[4], w[1:4], mu, nhat)
        out[..., d, :] = np.moveaxis(flux, 0, -1)
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
        self.source = self.forcing * self.mesh.cell_volume[:, None]
        self.pinned = self.mesh.boundary_cell.copy()
        # static face geometry, read by the residual and the Jacobian
        fi = self.mesh.interior_faces
        self.f_owner = self.mesh.face_owner[fi]
        self.f_neighbor = self.mesh.face_neighbor[fi]
        self.f_area = self.mesh.face_area[fi]
        # face geometry as per-variable rows: the unit normals and the face
        # centroid minus the owner / neighbor centroid as (3, F), their
        # lengths as (F,), and the projected centroid distance (x_k - x_o).n
        nhat = self.mesh.face_normal[fi] / self.f_area[:, None]
        x_f = self.mesh.face_centroid[fi]
        x_o, x_k = xc[self.f_owner], xc[self.f_neighbor]
        offsets = (x_f - x_o, x_f - x_k)
        self.f_nhat = np.ascontiguousarray(nhat.T)
        self.f_offset = tuple(np.ascontiguousarray(d.T) for d in offsets)
        self.f_dist = tuple(np.linalg.norm(d, axis=-1) for d in offsets)
        self.f_dn = np.einsum("fd,fd->f", x_k - x_o, nhat)
        # signed cell-by-face incidence times the face area, C x F CSR:
        # +area in the owner row, -area in the neighbor row
        faces = np.arange(len(fi))
        self.f_incidence = sp.csr_matrix(
            (np.concatenate((self.f_area, -self.f_area)),
             (np.concatenate((self.f_owner, self.f_neighbor)),
              np.concatenate((faces, faces)))),
            shape=(self.mesh.n_cells, len(fi)))

    def pin(self, w: np.ndarray) -> np.ndarray:
        """Write the exact solution into the pinned cells of w, in place;
        returns w."""
        w[self.pinned] = self.exact[self.pinned]
        return w

    def initial_state(self) -> np.ndarray:
        """Free-stream constants everywhere, exact solution in pinned cells."""
        return self.pin(np.tile(MMS_CONSTANTS, (self.mesh.n_cells, 1)))


def residual_ns3d(problem: NS3DProblem, states: np.ndarray) -> np.ndarray:
    """Per-cell residual: sum of face fluxes times areas minus forcing * volume.

    Interior faces only: boundary faces border pinned cells, whose residuals
    are zero.

    The cell layout, (C, 5), meets the face layout here: the states and
    gradients are gathered by face as per-variable rows, (5, F) and
    (5, 3, F), every face kernel works on those rows, and the face fluxes
    reach the cells through one product with ``problem.f_incidence``.
    """
    w = np.asarray(states, dtype=float)
    grads = recon.lsq_gradient_3d(problem.mesh, w)       # (5, 3, C)
    rows = np.ascontiguousarray(w.T)
    faces = (problem.f_owner, problem.f_neighbor)
    w_o, w_k = (rows.take(f, axis=-1) for f in faces)
    g_o, g_k = (grads.take(f, axis=-1) for f in faces)
    w_l, w_r = recon.reconstruct_lr(w_o, g_o, w_k, g_k, *problem.f_offset)

    flux = physics.roe_flux(w_l, w_r, problem.f_nhat)

    # face gradient and face values of the state rows (u, v, w, T)
    grad_f = recon.alpha_damped_face_gradient(
        g_o[1:], g_k[1:], w_l[1:], w_r[1:], problem.f_dn, problem.f_nhat)
    tv_f = recon.face_scalar(problem.strategy, w_o[1:], w_k[1:],
                             w_l[1:], w_r[1:], *problem.f_dist)
    mu_f = physics.sutherland_viscosity(tv_f[3])
    flux += physics.viscous_normal_flux(grad_f[:3], grad_f[3], tv_f[:3],
                                        mu_f, problem.f_nhat)

    res = problem.f_incidence @ flux.T
    res -= problem.source
    res[problem.pinned] = 0.0
    return res
