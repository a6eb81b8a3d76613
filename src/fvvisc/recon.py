"""Gradients and face-value reconstruction.

Cell gradients come from an unweighted linear least-squares fit over the
face neighbors, grown ring by ring where those leave the fit rank deficient
(1D: central differences over cell centers).  Face values for viscous
coefficients come from one of several strategies: each but
inverse-distance is a two-point average with a left weight, second order
only at weight 1/2.  Face gradients add to the mean cell gradient a jump
damped by ALPHA = 4/3 over |d_n| in 3D but over 2 dx in 1D, a factor of 2
apart (see the two functions).  All operations are pure.

Layout.  The 3D gradients and face kernels use per-variable rows: a state
is (m, ...), a vector (3, ...) and a gradient (m, 3, ...), and the kernels
broadcast over the trailing axes by NumPy's own rules.  The 1D routines
keep the cells on the last axis and broadcast over the leading ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import Grid1D, Mesh3D

ALPHA = 4.0 / 3.0  # face-gradient damping coefficient

# An LSQ normal matrix is rank deficient when its smallest eigenvalue is
# below this fraction of its largest.
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

    Every tag but inverse-distance is the two-point average
    w * left + (1 - w) * right with w = ``left_weight``.  ``omega`` is the
    weight of the "weighted" tag and is ignored by the others.
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
            try:
                omega = float(name.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"strategy {name!r}: the weight after "
                                 "'weighted:' must be a number") from None
            return cls("weighted", omega)
        return cls(name)

    @property
    def name(self) -> str:
        if self.tag == "weighted":
            return f"weighted:{self.omega:g}"
        return self.tag

    @property
    def left_weight(self) -> float | None:
        """Weight of the left value in the two-point face average; None for
        inverse-distance, whose weights vary with the face geometry."""
        return {"lr-average": 0.5, "arithmetic": 0.5, "one-sided-left": 1.0,
                "one-sided-right": 0.0, "weighted": self.omega}.get(self.tag)

    @property
    def nominal_order(self) -> float:
        """2 for a symmetric average (a left weight within 1e-12 of 1/2) or
        inverse-distance, 1 otherwise.  Inverse-distance is linearly exact
        only in 1D: on tets the face centroid lies off the segment between
        the cell centroids, and it is second order for the same reason the
        arithmetic average is."""
        w = self.left_weight
        return 2.0 if w is None or abs(w - 0.5) < 1e-12 else 1.0


def strategy_list(strategies) -> list:
    """The strategies of a study, from names or ``Strategy`` values.

    Each strategy's name keys its record and CSV, so an empty list,
    repeated names, or a strategy whose name parses to another strategy
    (``weighted:0.5000001`` prints as ``weighted:0.5``) is a ValueError.
    """
    strategies = [s if isinstance(s, Strategy) else Strategy.from_name(s)
                  for s in strategies]
    if not strategies:
        raise ValueError("no strategies given")
    names = [s.name for s in strategies]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError("strategy names must be distinct; repeated: "
                         + ", ".join(repeated))
    for s in strategies:
        if Strategy.from_name(s.name) != s:
            raise ValueError(f"omega {s.omega!r} prints as {s.name}, "
                             "which names another weight")
    return strategies


@lru_cache(maxsize=None)
def _gradient_pairs_1d(n):
    """Read-only (hi, lo) cell pairs of the n-cell gradient stencil:
    (j + 1, j - 1) inside, (1, 0) and (n - 1, n - 2) at the ends."""
    cells = np.arange(n)
    pairs = np.minimum(cells + 1, n - 1), np.maximum(cells - 1, 0)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def gradient_1d(grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """Cell gradients (u_x)_j = (u_{j+1} - u_{j-1}) / (x_{j+1} - x_{j-1}).

    Boundary cells use one-sided two-point differences, which are also exact
    for linear fields.  The cells are the last axis of u.  Every cell is
    one gather-difference (u_hi - u_lo) / (x_hi - x_lo) over the stencil
    pairs of ``_gradient_pairs_1d``.
    """
    if grid.n_cells < 3:
        raise ValueError("need at least 3 cells")
    x = grid.cell_centers
    hi, lo = _gradient_pairs_1d(grid.n_cells)
    return (u.take(hi, axis=-1) - u.take(lo, axis=-1)) / (x[hi] - x[lo])


def _lsq_operator(mesh: Mesh3D):
    """Sparse gradient operators (Gx, Gy, Gz) such that grad_d = G_d @ field.

    Stencil per cell: the smallest neighbor ring, up to ring 3, whose normal
    matrix has full rank (only boundary cells of tet grids need more than
    ring 1).  Ring 1 is the face neighbors in face order, from a stable sort
    of the interior faces on cell index; ring k + 1 appends the neighbors of
    ring k not yet in the stencil, in index order.  Each ring is one batch
    over the cells still without weights: normal matrices by bincount, one
    ``_full_rank`` test and one zero-padded batched solve.  A cell rank
    deficient at ring 3 raises SingularStencilError.  The diagonal entry is
    minus the row sum, so constants have zero gradient.  Cached on the mesh.
    """
    cached = mesh._lsq_cache.get("ops")
    if cached is not None:
        return cached

    nc = mesh.n_cells
    interior = mesh.interior_faces
    o, k = mesh.face_owner[interior], mesh.face_neighbor[interior]
    # directed edges (cell, neighbor), grouped by cell in face order
    cell = np.column_stack((o, k)).ravel()
    nbr = np.column_stack((k, o)).ravel()
    order = np.argsort(cell, kind="stable")
    cell, nbr = cell[order], nbr[order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(cell, minlength=nc))])

    xc = mesh.cell_centroid
    rows, cols, data = [], [], []
    # cells without weights (ascending) and their stencil edges (sc, sn)
    pending, sc, sn = np.arange(nc), cell, nbr
    for ring in range(3):
        if ring:
            # append each neighbor nbr[ptr[j]:ptr[j+1]] of a stencil member j
            # that is neither the cell nor in its stencil; setdiff1d returns
            # the (cell, neighbor) keys c * nc + m sorted
            hops = np.diff(ptr)[sn]
            hop = nbr[np.repeat(ptr[sn] - np.cumsum(hops) + hops, hops)
                      + np.arange(hops.sum())]
            key = np.setdiff1d(np.repeat(sc, hops) * nc + hop,
                               np.append(sc * nc + sn, pending * (nc + 1)))
            order = np.argsort(np.append(sc, key // nc), kind="stable")
            sc = np.append(sc, key // nc)[order]
            sn = np.append(sn, key % nc)[order]
        local = np.searchsorted(pending, sc)
        count = np.bincount(local, minlength=pending.size)
        slot = np.arange(sc.size) - (np.cumsum(count) - count)[local]
        dx = xc[sn] - xc[sc]                              # (E, 3)
        g = np.empty((pending.size, 3, 3))
        for a in range(3):
            for b in range(a, 3):
                g[:, a, b] = g[:, b, a] = np.bincount(
                    local, dx[:, a] * dx[:, b], minlength=pending.size)
        full = _full_rank(g)

        # one solve per full-rank cell, stencils zero-padded to (3, kmax)
        rhs = np.zeros((pending.size, 3, count.max()))
        rhs[local, :, slot] = dx
        w = np.zeros_like(rhs)
        w[full] = np.linalg.solve(g[full], rhs[full])
        on = full[local]
        rows += [sc[on], pending[full]]
        cols += [sn[on], pending[full]]
        data += [w[local[on], :, slot[on]], -w[full].sum(axis=2)]
        pending, sc, sn = pending[~full], sc[~on], sn[~on]
        if not pending.size:
            break
    else:
        c = pending[0]
        raise SingularStencilError(
            f"cell {c}: least-squares stencil of size "
            f"{np.count_nonzero(sc == c)} is rank deficient")

    rows, cols, data = map(np.concatenate, (rows, cols, data))
    ops = tuple(sp.csr_matrix((data[:, d], (rows, cols)), shape=(nc, nc))
                for d in range(3))
    mesh._lsq_cache["ops"] = ops
    return ops


def _full_rank(g):
    """Rank test of symmetric positive semidefinite (..., 3, 3) matrices.

    Their eigenvalues are their singular values, so eigvalsh (ascending)
    gives the SVD test at a fraction of its cost; a tiny negative roundoff
    eigenvalue of a singular matrix counts as rank deficient.
    """
    ev = np.linalg.eigvalsh(g)
    return ev[..., 0] > _RANK_TOL * ev[..., -1]


def lsq_gradient_3d(mesh: Mesh3D, field: np.ndarray) -> np.ndarray:
    """Unweighted least-squares cell gradients; exact for linear fields.

    field: (C,) or (C, m), the cell layout.  Returns per-variable rows,
    (3, C) or (m, 3, C).
    """
    grads = np.empty(np.shape(field)[1:] + (3, mesh.n_cells))
    for d, g in enumerate(_lsq_operator(mesh)):
        grads[..., d, :] = (g @ field).T
    return grads


def reconstruct_lr(state_j, grad_j, state_k, grad_k, off_j, off_k):
    """Linear one-sided extrapolations of both cell states to the face centroid.

    state: (m, ...); grad: (m, d, ...); off: (d, ...), the face centroid
    minus the cell centroid.  Returns (w_L, w_R), each (m, ...).
    """
    def extrapolate(state, grad, off):
        return state + sum(grad[:, d] * off[d] for d in range(grad.shape[1]))
    return extrapolate(state_j, grad_j, off_j), \
        extrapolate(state_k, grad_k, off_k)


def alpha_damped_face_gradient(grad_j, grad_k, w_l, w_r, dn, nhat):
    """Face gradient: averaged cell gradients plus a damped face-normal jump.

    grad: (m, d, ...); w: (m, ...); nhat: (d, ...) unit normal; dn: (...)
    the centroid distance (x_k - x_j) . nhat.  The damping scale is
    ALPHA / |dn|, twice the 1D one.  Returns (m, d, ...).
    """
    if np.any(dn == 0.0):
        raise DegenerateGeometryError(
            "face with (x_k - x_j) orthogonal to the face normal")
    avg = 0.5 * (grad_j + grad_k)
    jump = (ALPHA / np.abs(dn)) * (w_r - w_l)
    return avg + jump[:, None] * nhat


def face_derivative_1d(gx_j, gx_k, u_l, u_r, dx_cells):
    """1D face derivative: (u_x)_f = (gx_j + gx_k)/2 + ALPHA/(2 dx) (u_R - u_L).

    dx_cells is the cell-center spacing x_{j+1} - x_j (half the 3D scale).
    """
    return 0.5 * (gx_j + gx_k) + ALPHA / (2.0 * dx_cells) * (u_r - u_l)


def face_scalar(strategy: Strategy, t_j, t_k, t_l, t_r, d_j=None, d_k=None):
    """Face value of a scalar under the selected reconstruction strategy.

    t_j, t_k are the adjacent cell values; t_l, t_r the linearly reconstructed
    face values, which lr-average averages in their place.  The distances
    d_j, d_k to the face, read only by inverse-distance, broadcast against
    the values, so (F,) distances weight (m, F) rows.
    """
    if strategy.tag == "lr-average":
        t_j, t_k = t_l, t_r
    t_j = np.asarray(t_j, dtype=float)
    t_k = np.asarray(t_k, dtype=float)
    w = strategy.left_weight
    if w is not None:
        return w * t_j + (1.0 - w) * t_k
    if np.any(d_j == 0.0) or np.any(d_k == 0.0):
        raise DegenerateGeometryError(
            "inverse-distance weighting with a zero face-to-centroid distance")
    return (t_j / d_j + t_k / d_k) / (1.0 / d_j + 1.0 / d_k)
