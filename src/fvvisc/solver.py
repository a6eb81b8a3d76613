"""Implicit solvers driving both problems to steady state.

Both problems share one nonlinear loop, ``solve_defect_correction``: each
iteration solves a linear system for an update against the full residual,
applies it, and retreats on a step that blows the residual up or leaves the
physical state space.

1D: pseudo-transient Newton.  The Jacobian is a column-colored
finite-difference Jacobian of the full nonlinear residual plus a diagonal
pseudo-time term whose CFL grows geometrically on accepted steps: the
residual stencil is 5 cells wide (the central-difference gradients of
``recon.gradient_1d`` reach one cell past each face neighbor), so 5
perturbed states fill the pentadiagonal band, bit-identical to perturbing
one column at a time.  Each build is one stacked residual evaluation of the
base and perturbed states, written straight into a CSC matrix, and each
banded system is solved by sparse LU (SuperLU).

3D: inexact Newton-Krylov from the manufactured solution.  The MMS problem
is nearly linear around ``problem.exact``, so the solve starts there and
takes Newton steps whose direction GMRES finds from a Jacobian-free
(finite-difference directional derivative) product of the second-order
residual, left-preconditioned by multicolor block Gauss-Seidel on 5x5 cell
blocks of a first-order Jacobian (first-order upwind inviscid flux Jacobian
plus thin-layer viscous blocks).  The residual target is still set by the
free-stream state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diffusion1d, ns3d, physics, recon


class NonConvergenceError(Exception):
    """Residual target not reached within the iteration cap."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class SolverDivergenceError(Exception):
    """The nonlinear update could not produce a valid state."""


@dataclass(frozen=True)
class SolverConfig:
    """Termination and linear-solve parameters.

    ``target_drop`` is the number of orders of magnitude of L1 residual
    reduction; ``linear_sweeps`` = 0 solves each linear system directly,
    > 0 applies that many sweeps of multicolor block Gauss-Seidel on 5x5
    cell blocks instead (in 3D, the sweeps are the GMRES preconditioner).
    ``jacobian_lag`` reuses the factored Jacobian (in 3D, the
    preconditioner) for that many nonlinear iterations.
    """

    target_drop: float = 8.0
    max_iterations: int = 2000
    linear_sweeps: int = 0
    jacobian_lag: int = 1

    def __post_init__(self):
        if not 0 < self.target_drop < np.inf or self.max_iterations <= 0:
            raise ValueError("target_drop must be positive and finite, and "
                             "max_iterations positive")
        if self.jacobian_lag < 1:
            raise ValueError("jacobian_lag must be at least 1")


#: 3D defaults: the preconditioner is 30 sweeps of multicolor block
#: Gauss-Seidel on 5x5 cell blocks of a first-order Jacobian refreshed every
#: 8 Newton steps, and a 7-order residual drop (see ``verify.run_study_3d``).
NS3D_CONFIG = SolverConfig(target_drop=7.0, linear_sweeps=30, jacobian_lag=8)


@dataclass
class IterationHistory:
    """Per-iteration L1 residual norms (one per equation) and the CFL used.

    A row whose iteration is ``"reference"`` holds the norms of the
    reference state the residual drop is measured from.
    """

    iterations: list = field(default_factory=list)

    def append(self, it, norms, cfl):
        self.iterations.append((it, np.atleast_1d(norms).copy(), cfl))

    def write_csv(self, path, var_names):
        with open(path, "w") as f:
            f.write("# nonlinear iteration history; a row labelled "
                    "reference holds the residual of the state the "
                    "target drop is measured from\n")
            f.write("iteration," + ",".join(f"l1_res_{v}" for v in var_names)
                    + ",cfl\n")
            for it, norms, cfl in self.iterations:
                vals = ",".join(f"{x:.10e}" for x in norms)
                f.write(f"{it},{vals},{cfl:.6g}\n")


#: Unknowns per cell of the 3D systems (the conservative variables): the
#: Gauss-Seidel sweeps update these 5x5 blocks together.
_BLOCK = 5


def _greedy_colors(graph):
    """Smallest-free-color greedy coloring of a symmetric sparsity pattern,
    visiting the vertices in order; returns one color per vertex."""
    ptr, adj = graph.indptr.tolist(), graph.indices.tolist()
    colors = [-1] * graph.shape[0]
    for i in range(len(colors)):
        used = {colors[j] for j in adj[ptr[i]:ptr[i + 1]]}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return np.array(colors)


class _LinearSolver:
    """Linear solver reusable across nonlinear iterations.

    sweeps <= 0: direct sparse LU.  sweeps > 0: that many multicolor block
    Gauss-Seidel sweeps on 5x5 cell blocks (the order must be a multiple of
    5).  The cells are colored greedily on the symmetrized block pattern, so
    no two cells of one color are coupled either way (pinned cells have
    identity rows but appear in their neighbors' rows), and the unknowns
    are renumbered color by color.  With the diagonal blocks D inverted once
    and T = D^-1 (A - D), a sweep updates each color's rows in turn as
    x_r = D^-1 b_r - T_r x: one sparse matvec per color, no fill-in.
    """

    def __init__(self, mat, sweeps: int):
        self.sweeps = sweeps
        if sweeps <= 0:
            self._lu = spla.splu(mat.tocsc())
            return
        n = mat.shape[0]
        nc = n // _BLOCK
        blocks = mat.tobsr(blocksize=(_BLOCK, _BLOCK))
        row = np.repeat(np.arange(nc), np.diff(blocks.indptr))
        col = blocks.indices
        on_diag = row == col
        diag = np.zeros((nc, _BLOCK, _BLOCK))
        diag[row[on_diag]] = blocks.data[on_diag]
        dinv = np.linalg.inv(diag)

        pattern = sp.csr_matrix((np.ones(len(col)), col, blocks.indptr),
                                shape=(nc, nc))
        colors = _greedy_colors(pattern + pattern.T)
        order = np.argsort(colors, kind="stable")
        new_index = np.argsort(order)
        self._order = order
        self._dinv = dinv[order]

        # T = D^-1 (A - D), block rows renumbered and grouped by color
        off = ~on_diag
        t_row, t_col = new_index[row[off]], new_index[col[off]]
        by_row = np.argsort(t_row, kind="stable")
        t_col = t_col[by_row]
        t_data = np.matmul(dinv[row[off]][by_row], blocks.data[off][by_row])
        t_ptr = np.concatenate(([0], np.cumsum(np.bincount(t_row,
                                                           minlength=nc))))
        bounds = np.concatenate(([0], np.cumsum(np.bincount(colors))))
        self._colors = []
        for s, e in zip(bounds[:-1], bounds[1:]):
            p, q = t_ptr[s], t_ptr[e]
            t = sp.bsr_matrix((t_data[p:q], t_col[p:q], t_ptr[s:e + 1] - p),
                              shape=(_BLOCK * (e - s), n))
            self._colors.append((_BLOCK * s, _BLOCK * e, t))

    def solve(self, rhs):
        if self.sweeps <= 0:
            return self._lu.solve(rhs)
        c = np.matmul(self._dinv,
                      rhs.reshape(-1, _BLOCK)[self._order, :, None]).ravel()
        x = np.zeros_like(c)
        for _ in range(self.sweeps):
            for s, e, t in self._colors:
                x[s:e] = c[s:e] - t @ x
        out = np.empty((len(self._order), _BLOCK))
        out[self._order] = x.reshape(-1, _BLOCK)
        return out.ravel()


#: Largest pseudo-time CFL; the 3D Newton-Krylov preconditioner starts there.
_CFL_MAX = 1e8

#: GMRES settings of a Newton-Krylov step: relative tolerance, restart
#: length and number of restart cycles.
_GMRES_RTOL = 1e-4
_GMRES_RESTART = 60
_GMRES_MAXITER = 10


def _krylov_step(matvec, precond, rhs):
    """Inexact Newton direction: GMRES on matvec, left-preconditioned by
    precond.solve.  An unconverged GMRES still returns its best iterate;
    the nonlinear loop judges the step by its residual."""
    n = rhs.size
    du, _ = spla.gmres(spla.LinearOperator((n, n), matvec=matvec), rhs,
                       M=spla.LinearOperator((n, n), matvec=precond.solve),
                       rtol=_GMRES_RTOL, restart=_GMRES_RESTART,
                       maxiter=_GMRES_MAXITER)
    return du


def solve_defect_correction(residual_fn, jacobian_fn, u0, l1_norm_fn,
                            apply_update_fn, cfg: SolverConfig, *,
                            reference=None, cfl0: float = 10.0,
                            matvec_fn=None):
    """Generic implicit loop with SER pseudo-time control.

    residual_fn(u) -> residual array; jacobian_fn(u, cfl) -> sparse matrix
    over the flattened unknowns; l1_norm_fn(res) -> per-equation norms;
    apply_update_fn(u, du) -> new u (raises SolverDivergenceError if no
    damping of the update yields a valid state).  Returns (u, history).

    Each step solves jacobian_fn(u, cfl) du = -res.  With ``matvec_fn``,
    matvec_fn(u, res) returns the product v -> J(u) v of the true Jacobian
    and the step is inexact Newton-Krylov instead: GMRES on that product,
    left-preconditioned by the factored jacobian_fn matrix.

    The target is ``cfg.target_drop`` orders below the residual norms of
    ``reference`` (default: u0).  A separate reference state is recorded as
    the history row labelled ``"reference"``, and then at least one step is
    taken, since u0 may already lie below the target without being a
    solution (the exact MMS state does).

    Pseudo-transient continuation: the CFL starts at ``cfl0``, doubles after
    each accepted step up to 1e8, and is cut back whenever a step blows the
    residual up or leaves the physical state space; 12 rejections in a row
    raise NonConvergenceError with the last reason.  An absolute L1 residual
    of 1e-14 also counts as converged.  ``cfg.max_iterations`` caps the
    steps; the state after the last allowed step is still checked.  The
    Jacobian is rebuilt at most every ``jacobian_lag`` accepted iterations or
    when the CFL moves by more than a factor of two since the last
    factorization.
    """
    history = IterationHistory()
    u = u0
    res = residual_fn(u)
    norms = l1_norm_fn(res)
    min_steps = 0
    if reference is None:
        norms0 = norms
    else:
        norms0 = l1_norm_fn(residual_fn(reference))
        history.append("reference", norms0, cfl0)
        min_steps = 1
    norms0 = np.maximum(norms0, 1e-300)
    target = 10.0 ** (-cfg.target_drop)
    cfl = cfl0
    lin = None
    built = (None, -1)          # (cfl used for the factored Jacobian, iter)
    for it in range(cfg.max_iterations + 1):
        cur = float(np.max(norms / norms0))
        if it >= min_steps and (cur <= target or np.max(norms) <= 1e-14):
            history.append(it, norms, cfl)
            return u, history
        if it == cfg.max_iterations:
            break
        accepted = False
        for _ in range(12):
            stale = (lin is None or it - built[1] >= cfg.jacobian_lag
                     or not 0.5 < cfl / built[0] < 2.0)
            if stale:
                lin = _LinearSolver(jacobian_fn(u, cfl), cfg.linear_sweeps)
                built = (cfl, it)
            if matvec_fn is None:
                du = lin.solve(-res.ravel())
            else:
                du = _krylov_step(matvec_fn(u, res), lin, -res.ravel())
            du = du.reshape(np.shape(res))
            try:
                u_new = apply_update_fn(u, du)
                res_new = residual_fn(u_new)
                norms_new = l1_norm_fn(res_new)
                new = float(np.max(norms_new / norms0))
                ok = np.isfinite(new) and new <= 2.5 * max(cur, 1e-12)
                reason = (f"residual rose from {cur:.3g} to {new:.3g} of the "
                          "reference level")
            except (SolverDivergenceError, FloatingPointError,
                    physics.InvalidStateError,
                    physics.NonpositiveTemperatureError) as exc:
                ok, reason = False, f"{type(exc).__name__}: {exc}"
            if ok:
                accepted = True
                break
            cfl = max(cfl / 4.0, 1e-3)
            lin = None
        if not accepted:
            history.append(it, norms, cfl)
            raise NonConvergenceError(
                "update rejected 12 times (pseudo-time backoff exhausted); "
                f"last: {reason}", history)
        history.append(it, norms, cfl)
        cfl = min(cfl * 2.0, _CFL_MAX)
        u, res, norms = u_new, res_new, norms_new
    history.append(cfg.max_iterations, norms, built[0])
    raise NonConvergenceError(
        f"residual drop of {cfg.target_drop} orders not reached in "
        f"{cfg.max_iterations} iterations", history)


# ---------------------------------------------------------------------------
# 1D nonlinear diffusion
# ---------------------------------------------------------------------------

#: Half-width of the 1D residual stencil: row i of ``residual_1d`` reads
#: u[i-2..i+2], since the face flux at x_{i+1/2} uses the central-difference
#: gradients (``recon.gradient_1d``) of cells i and i+1.
_HALF_BAND_1D = 2
_COLORS_1D = 2 * _HALF_BAND_1D + 1


@lru_cache(maxsize=None)
def _band_pattern_1d(n):
    """Major index, minor index, index pointer and color-major position of
    every entry of the n x n band |i - j| <= 2, in major order (read-only
    arrays).  The band is symmetric, so these are its CSR arrays with row
    major and its CSC arrays with column major; the position of entry
    (minor i, major j) in the (colors, n) array of colored differences is
    (j mod 5) n + i."""
    offsets = np.arange(-_HALF_BAND_1D, _HALF_BAND_1D + 1)
    major = np.repeat(np.arange(n), _COLORS_1D)
    minor = major + np.tile(offsets, n)
    keep = (minor >= 0) & (minor < n)
    major, minor = major[keep], minor[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(major, minlength=n), out=indptr[1:])
    pattern = (major, minor.astype(np.int32), indptr,
               major % _COLORS_1D * n + minor)
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _jacobian_1d(problem, u, cfl):
    """Column-colored finite-difference Jacobian of the full nonlinear
    residual plus the pseudo-time diagonal, as a pentadiagonal CSC matrix.

    Columns c, c+5, c+10, ... are perturbed together: a residual row reads
    only u[i-2..i+2], so no row sees two columns of one color, and 5 colors
    (fewer when n < 5) recover every entry of the band.  The base state and
    the perturbed states go through one stacked evaluation of the residual,
    which is elementwise, so each entry is bit-identical to the per-column
    difference with the same step 1e-7 max(1, |u_j|).  Numerically zero
    entries are dropped, so the sparsity structure (which SuperLU's column
    ordering sees) matches that of the dense matrix.

    A frozen-viscosity Jacobian (pure defect correction) limit-cycles on the
    coarsest irregular grids, where the face viscosity varies by nearly two
    orders of magnitude; the exact Jacobian is cheap at these sizes.
    """
    grid = problem.grid
    n = grid.n_cells
    col, row, indptr, colored = _band_pattern_1d(n)
    step = 1e-7 * np.maximum(1.0, np.abs(u))
    cells = np.arange(n)
    pert = np.zeros((min(_COLORS_1D, n), n))
    pert[cells % _COLORS_1D, cells] = step
    res = diffusion1d.residual_1d(problem, np.concatenate((u[None], u + pert)))
    data = (res[1:] - res[0]).ravel()[colored] / step[col]
    # pseudo-time: dt = cfl h^2 / nu, floored so the diagonal never vanishes
    # at the u = 0 degeneracy of nu = u^2
    diag = row == col
    nu_cell = np.maximum(u ** 2, 1e-3)
    data[diag] += nu_cell / (cfl * grid.cell_volumes)
    pinned = problem.pinned[row]
    data[pinned] = 0.0
    data[pinned & diag] = 1.0
    # drop zero entries as eliminate_zeros would; kept[k] counts the entries
    # kept before band position k, so kept[indptr] is the new index pointer
    nonzero = data != 0.0
    kept = np.zeros(data.size + 1, dtype=np.int32)
    np.cumsum(nonzero, out=kept[1:])
    return sp.csc_matrix((data[nonzero], row[nonzero], kept[indptr]),
                         shape=(n, n))


def solve_diffusion_1d(problem, cfg: SolverConfig | None = None,
                       u0: np.ndarray | None = None):
    """Drive the 1D problem to steady state; returns (u, history)."""
    if cfg is None:
        cfg = SolverConfig()
    if u0 is None:
        u0 = problem.initial_state()
    u0 = diffusion1d.apply_boundary_closure(problem, u0)
    unpinned = ~problem.pinned

    def res_fn(u):
        return diffusion1d.residual_1d(problem, u)

    def norm_fn(res):
        return np.array([np.abs(res[unpinned]).mean()])

    def update_fn(u, du):
        return diffusion1d.apply_boundary_closure(problem, u + du)

    return solve_defect_correction(res_fn, lambda u, cfl:
                                   _jacobian_1d(problem, u, cfl),
                                   u0, norm_fn, update_fn, cfg)


# ---------------------------------------------------------------------------
# 3D Navier-Stokes MMS
# ---------------------------------------------------------------------------

def _prim_from_cons_jacobian(w):
    """d(rho, v, T)/d(rho, rho v, rho E) evaluated at primitive states w."""
    rho = w[..., 0]
    vel = w[..., 1:4]
    t = w[..., 4]
    gg1 = physics.GAMMA * (physics.GAMMA - 1.0)
    q2 = np.sum(vel ** 2, axis=-1)
    m = np.zeros(w.shape[:-1] + (5, 5))
    m[..., 0, 0] = 1.0
    for i in range(3):
        m[..., 1 + i, 0] = -vel[..., i] / rho
        m[..., 1 + i, 1 + i] = 1.0 / rho
        m[..., 4, 1 + i] = -gg1 * vel[..., i] / rho
    m[..., 4, 0] = (0.5 * gg1 * q2 - t) / rho
    m[..., 4, 4] = gg1 / rho
    return m


def _jacobian_ns3d(problem, w, cfl):
    """First-order Jacobian in conservative variables.

    Inviscid part: 0.5 (Fn(U_o) + Fn(U_k)) - 0.5 lambda_c (U_k - U_o) with
    lambda_c = |vn| + c.  Viscous part: thin-layer normal-diffusion blocks
    (a scalar viscous radius lumped onto every equation stalls the defect
    correction, since continuity carries no viscous flux): the face viscous
    flux is approximated as F ~ -C (prim_k - prim_o), where C couples the
    momentum, tau.v work and heat-conduction rows with the scale
    ALPHA mu_f / |d_n| (d_n = ``problem.f_dn``), the coefficient of the
    difference term in the damped face gradient.  The pseudo-time diagonal
    adds a viscous spectral radius on the centroid distance.  Pinned rows
    are identity.
    """
    mesh = problem.mesh
    nc = mesh.n_cells
    o, k = problem.f_owner, problem.f_neighbor
    area = problem.f_area
    # face state, viscosity and spectral radii (unit area)
    wf = 0.5 * (w[o] + w[k])
    lam_c = np.abs(np.einsum("fd,fd->f", wf[:, 1:4], problem.f_nhat)) + \
        np.sqrt(wf[:, 4])
    mu = physics.sutherland_viscosity(np.maximum(wf[:, 4], 1e-12))
    d = np.linalg.norm(mesh.cell_centroid[k] - mesh.cell_centroid[o], axis=1)
    lam = lam_c + 2.0 * mu / (wf[:, 0] * d) * max(
        4.0 / 3.0, physics.GAMMA / physics.PRANDTL)

    coef = recon.ALPHA * mu / np.abs(problem.f_dn)
    c = np.zeros((len(o), 5, 5))
    for i in range(3):
        c[:, 1 + i, 1 + i] = (4.0 / 3.0) * coef
        c[:, 4, 1 + i] = (4.0 / 3.0) * coef * wf[:, 1 + i]
    c[:, 4, 4] = coef / (physics.PRANDTL * (physics.GAMMA - 1.0))
    visc = area[:, None, None] * np.einsum("fij,fjk->fik", c,
                                           _prim_from_cons_jacobian(wf))

    eye = np.eye(5)
    a_o = physics.inviscid_flux_jacobian(w[o], problem.f_nhat)
    a_k = physics.inviscid_flux_jacobian(w[k], problem.f_nhat)
    blk_o = 0.5 * area[:, None, None] * (a_o + lam_c[:, None, None] * eye) + visc
    blk_k = 0.5 * area[:, None, None] * (a_k - lam_c[:, None, None] * eye) - visc

    unpinned = ~problem.pinned
    rows_ok = unpinned[o]
    rows_ko = unpinned[k]

    block_rows = [o[rows_ok], o[rows_ok], k[rows_ko], k[rows_ko]]
    block_cols = [o[rows_ok], k[rows_ok], o[rows_ko], k[rows_ko]]
    blocks = [blk_o[rows_ok], blk_k[rows_ok], -blk_o[rows_ko], -blk_k[rows_ko]]

    # pseudo-time diagonal: V/dt = sum(lambda * area) / cfl per cell
    lam_sum = np.zeros(nc)
    np.add.at(lam_sum, o, lam * area)
    np.add.at(lam_sum, k, lam * area)
    diag = np.zeros((nc, 5, 5))
    diag[unpinned] = (lam_sum[unpinned, None, None] / cfl) * eye
    diag[problem.pinned] = eye
    block_rows.append(np.arange(nc))
    block_cols.append(np.arange(nc))
    blocks.append(diag)

    br = np.concatenate(block_rows)
    bc = np.concatenate(block_cols)
    bd = np.concatenate(blocks)
    ridx = (5 * br[:, None, None] + np.arange(5)[None, :, None])
    cidx = (5 * bc[:, None, None] + np.arange(5)[None, None, :])
    ridx = np.broadcast_to(ridx, bd.shape).ravel()
    cidx = np.broadcast_to(cidx, bd.shape).ravel()
    return sp.coo_matrix((bd.ravel(), (ridx, cidx)),
                         shape=(5 * nc, 5 * nc)).tocsr()


def _pinned_prim(problem, u):
    """Primitive states of conservative states u, pinned cells exact."""
    w = physics.cons_to_prim(u)
    w[problem.pinned] = problem.exact[problem.pinned]
    return w


def _matvec_ns3d(problem, w, res):
    """Jacobian-free product v -> J(w) v of the residual in conservative
    variables over the flattened unknowns: a forward difference with step
    1e-6 (1 + |u|) / (|v| sqrt(N)) against res = residual_ns3d(problem, w),
    and identity rows on pinned cells."""
    u = physics.prim_to_cons(w)
    scale = 1e-6 * (1.0 + np.linalg.norm(u)) / np.sqrt(u.size)
    pinned_rows = np.repeat(problem.pinned, 5)

    def matvec(v):
        v = np.ravel(v)
        v_norm = np.linalg.norm(v)
        if v_norm == 0.0:
            return np.zeros_like(v)
        eps = scale / v_norm
        w_eps = _pinned_prim(problem, u + eps * v.reshape(u.shape))
        jv = (ns3d.residual_ns3d(problem, w_eps) - res).ravel() / eps
        jv[pinned_rows] = v[pinned_rows]
        return jv
    return matvec


def solve_ns3d(problem, cfg: SolverConfig | None = None):
    """Drive the 3D MMS problem to steady state by Newton-Krylov steps from
    the exact solution; returns (states, history).

    The target is ``cfg.target_drop`` orders below the residual of the
    free-stream state ``problem.initial_state()``, whose norms are the
    history row labelled ``"reference"``.  The preconditioner Jacobian is
    built at the largest CFL, where its pseudo-time diagonal is negligible.
    """
    if cfg is None:
        cfg = NS3D_CONFIG
    unpinned = ~problem.pinned

    def res_fn(w):
        return ns3d.residual_ns3d(problem, w)

    def norm_fn(res):
        return np.abs(res[unpinned]).mean(axis=0)

    def update_fn(w, du):
        """Add the conservative update, halved until the state is physical."""
        u = physics.prim_to_cons(w)
        scale = 1.0
        for _ in range(25):
            w_new = _pinned_prim(problem, u + scale * du)
            if np.all(w_new[:, 0] > 0.0) and np.all(w_new[:, 4] > 0.0):
                return w_new
            scale *= 0.5
        raise SolverDivergenceError(
            "no damping of the update yields a physical state")

    return solve_defect_correction(
        res_fn, lambda w, cfl: _jacobian_ns3d(problem, w, cfl),
        problem.exact.copy(), norm_fn, update_fn, cfg,
        reference=problem.initial_state(), cfl0=_CFL_MAX,
        matvec_fn=lambda w, res: _matvec_ns3d(problem, w, res))
