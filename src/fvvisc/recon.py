"""Gradients and face-value reconstruction.

Cell gradients come from an unweighted linear least-squares fit over
face-adjacent neighbors (1D: central differences over cell centers).  Face
values for viscous coefficients are produced by one of several interchangeable
strategies; face gradients use the alpha-damped average of cell gradients
with the fixed damping coefficient ALPHA = 4/3.  All operations are pure and
broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import Grid1D, Mesh3D

ALPHA = 4.0 / 3.0  # face-gradient damping coefficient

# An LSQ normal matrix is rank deficient when its smallest singular value
# is below this fraction of its largest.
_RANK_TOL = 1e-8

STRATEGY_TAGS = ("lr-average", "arithmetic", "inverse-distance",
                 "one-sided-left", "one-sided-right", "weighted")


class SingularStencilError(Exception):
    """A least-squares gradient stencil is rank deficient."""


class DegenerateGeometryError(Exception):
    """Face geometry makes the requested reconstruction undefined."""


@dataclass(frozen=True)
class Strategy:
    """Tagged choice of face-value evaluation.

    ``omega`` is only meaningful for the "weighted" tag: the face value is
    omega * (left cell value) + (1 - omega) * (right cell value), which
    reduces to the arithmetic average at omega = 1/2.
    """

    tag: str
    omega: float = 0.5

    def __post_init__(self):
        if self.tag not in STRATEGY_TAGS:
            raise ValueError(
                f"unknown strategy {self.tag!r}; valid: {', '.join(STRATEGY_TAGS)}")
        if self.tag == "weighted" and not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")

    @classmethod
    def from_name(cls, name: str) -> "Strategy":
        """Parse "arithmetic", "weighted:0.75", etc."""
        name = name.strip()
        if name.startswith("weighted:"):
            return cls("weighted", float(name.split(":", 1)[1]))
        if name == "weighted":
            return cls("weighted")
        return cls(name)

    @property
    def name(self) -> str:
        if self.tag == "weighted":
            return f"weighted:{self.omega:g}"
        return self.tag


def gradient_1d(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Cell gradients (u_x)_j = (u_{j+1} - u_{j-1}) / (x_{j+1} - x_{j-1}).

    Boundary cells use one-sided two-point differences, which are also exact
    for linear fields.  The cells are the last axis of u.
    """
    if grid.n_cells < 3:
        raise ValueError("need at least 3 cells")
    x = grid.cell_centers
    g = np.empty(np.shape(u))
    g[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (x[2:] - x[:-2])
    g[..., 0] = (u[..., 1] - u[..., 0]) / (x[1] - x[0])
    g[..., -1] = (u[..., -1] - u[..., -2]) / (x[-1] - x[-2])
    return g


def _lsq_operator(mesh: Mesh3D):
    """Sparse gradient operators (Gx, Gy, Gz) such that grad_d = G_d @ field.

    Stencil per cell: face-adjacent neighbors, augmented with
    neighbors-of-neighbors when the normal matrix is rank deficient (possible
    only near boundaries on tet grids).  Cached on the mesh.
    """
    cached = mesh._lsq_cache.get("ops")
    if cached is not None:
        return cached

    nc = mesh.n_cells
    nbrs: list[list[int]] = [[] for _ in range(nc)]
    interior = mesh.interior_faces
    for o, k in zip(mesh.face_owner[interior], mesh.face_neighbor[interior]):
        nbrs[o].append(int(k))
        nbrs[k].append(int(o))

    xc = mesh.cell_centroid
    rows, cols, wx, wy, wz = [], [], [], [], []
    for c in range(nc):
        stencil = nbrs[c]
        for _ in range(2):
            dx = xc[stencil] - xc[c]
            g = dx.T @ dx
            sv = np.linalg.svd(g, compute_uv=False)
            if sv[-1] > _RANK_TOL * sv[0]:
                break
            extra = sorted({m for k in stencil for m in nbrs[k]}
                           - {c} - set(stencil))
            if not extra:
                break
            stencil = stencil + extra
        dx = xc[stencil] - xc[c]
        g = dx.T @ dx
        sv = np.linalg.svd(g, compute_uv=False)
        if len(stencil) < 3 or sv[-1] <= _RANK_TOL * sv[0]:
            raise SingularStencilError(
                f"cell {c}: least-squares stencil of size {len(stencil)} "
                "is rank deficient")
        w = np.linalg.solve(g, dx.T)  # (3, k)
        rows.extend([c] * (len(stencil) + 1))
        cols.extend(stencil)
        cols.append(c)
        for arr, comp in ((wx, 0), (wy, 1), (wz, 2)):
            arr.extend(w[comp])
            arr.append(-w[comp].sum())

    shape = (nc, nc)
    ops = tuple(sp.csr_matrix((data, (rows, cols)), shape=shape)
                for data in (wx, wy, wz))
    mesh._lsq_cache["ops"] = ops
    return ops


def lsq_gradient_3d(mesh: Mesh3D, field: np.ndarray) -> np.ndarray:
    """Unweighted least-squares cell gradients; exact for linear fields.

    field: (C,) or (C, m).  Returns (C, 3) or (C, m, 3).
    """
    gx, gy, gz = _lsq_operator(mesh)
    grads = np.stack([gx @ field, gy @ field, gz @ field], axis=-1)
    return grads


def reconstruct_lr(state_j, grad_j, x_j, state_k, grad_k, x_k, x_c):
    """Linear one-sided extrapolations of both cell states to the face centroid.

    state: (..., m); grad: (..., m, d); x: (..., d).  Returns (w_L, w_R).
    """
    dl = np.asarray(x_c) - np.asarray(x_j)
    dr = np.asarray(x_c) - np.asarray(x_k)
    w_l = state_j + np.einsum("...md,...d->...m", np.asarray(grad_j), dl)
    w_r = state_k + np.einsum("...md,...d->...m", np.asarray(grad_k), dr)
    return w_l, w_r


def alpha_damped_face_gradient(grad_j, grad_k, w_l, w_r, x_j, x_k, nhat):
    """Face gradient: averaged cell gradients plus a damped face-normal jump.

    grad: (..., m, d); w: (..., m); nhat: (..., d) unit normal.
    The damping scale is ALPHA / |(x_k - x_j) . nhat|.
    """
    dn = np.einsum("...d,...d->...", np.asarray(x_k) - np.asarray(x_j),
                   np.asarray(nhat))
    if np.any(dn == 0.0):
        raise DegenerateGeometryError(
            "face with (x_k - x_j) orthogonal to the face normal")
    avg = 0.5 * (np.asarray(grad_j) + np.asarray(grad_k))
    jump = np.asarray(w_r) - np.asarray(w_l)
    damp = (ALPHA / np.abs(dn))[..., None, None] * \
        jump[..., :, None] * np.asarray(nhat)[..., None, :]
    return avg + damp


def face_derivative_1d(gx_j, gx_k, u_l, u_r, dx_cells):
    """1D face derivative: (u_x)_f = (gx_j + gx_k)/2 + ALPHA/(2 dx) (u_R - u_L).

    dx_cells is the cell-center spacing x_{j+1} - x_j.
    """
    return 0.5 * (gx_j + gx_k) + ALPHA / (2.0 * dx_cells) * (u_r - u_l)


def _distances(x_f, x_j, x_k, value_ndim: int):
    # Coordinates may be per-face scalars (1D) or carry a trailing spatial
    # axis; disambiguate against the rank of the value arrays.
    df = np.asarray(x_f, dtype=float)
    dj = df - np.asarray(x_j, dtype=float)
    dk = df - np.asarray(x_k, dtype=float)
    if df.ndim > value_ndim:
        return np.linalg.norm(dj, axis=-1), np.linalg.norm(dk, axis=-1)
    return np.abs(dj), np.abs(dk)


def face_scalar(strategy: Strategy, t_j, t_k, t_l, t_r, x_j=None, x_k=None,
                x_f=None):
    """Face value of a scalar under the selected reconstruction strategy.

    t_j, t_k are the adjacent cell values; t_l, t_r the linearly reconstructed
    face values (used only by the L/R-average strategy).  Coordinates are
    required only for inverse-distance weighting; they may be scalars (1D) or
    (..., 3) arrays.
    """
    t_j = np.asarray(t_j, dtype=float)
    t_k = np.asarray(t_k, dtype=float)
    tag = strategy.tag
    if tag == "lr-average":
        return 0.5 * (np.asarray(t_l, dtype=float) + np.asarray(t_r, dtype=float))
    if tag == "arithmetic":
        return 0.5 * (t_j + t_k)
    if tag == "one-sided-left":
        return t_j + 0.0
    if tag == "one-sided-right":
        return t_k + 0.0
    if tag == "weighted":
        return strategy.omega * t_j + (1.0 - strategy.omega) * t_k
    # inverse-distance
    dj, dk = _distances(x_f, x_j, x_k, t_j.ndim)
    if np.any(dj == 0.0) or np.any(dk == 0.0):
        raise DegenerateGeometryError(
            "inverse-distance weighting with a zero face-to-centroid distance")
    return (t_j / dj + t_k / dk) / (1.0 / dj + 1.0 / dk)
