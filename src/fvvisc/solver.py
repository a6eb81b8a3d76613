"""Implicit defect-correction solver driving both problems to steady state.

Each nonlinear iteration solves an approximate-Jacobian linear system against
the full residual and applies the update, with a diagonal pseudo-time term
under pseudo-transient continuation (CFL grows geometrically on accepted
steps, retreats on rejected ones).  The 1D Jacobian is a column-colored
finite-difference Jacobian of the full nonlinear residual: the residual
stencil is 5 cells wide (the central-difference gradients of
``recon.gradient_1d`` reach one cell past each face neighbor), so 5
perturbed evaluations per build fill the pentadiagonal band, bit-identical
to perturbing one column at a time.  The 3D Jacobian combines the
first-order upwind inviscid flux Jacobian with thin-layer viscous blocks.
The linear system is solved either by sparse LU (default) or by
Gauss-Seidel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diffusion1d, ns3d, physics


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
    > 0 applies that many lexicographic Gauss-Seidel sweeps instead.
    ``jacobian_lag`` reuses the factored Jacobian for that many nonlinear
    iterations (the defect-correction update tolerates a stale matrix).
    """

    target_drop: float = 8.0
    max_iterations: int = 2000
    linear_sweeps: int = 0
    jacobian_lag: int = 1

    def __post_init__(self):
        if self.target_drop <= 0 or self.max_iterations <= 0:
            raise ValueError("target_drop and max_iterations must be positive")
        if self.jacobian_lag < 1:
            raise ValueError("jacobian_lag must be at least 1")


#: 3D defaults: LU fill is prohibitive for the 5x5-block Jacobians, so 30
#: Gauss-Seidel sweeps on a Jacobian refreshed every 8 iterations, and a
#: 7-order residual drop (see ``verify.run_study_3d``).
NS3D_CONFIG = SolverConfig(target_drop=7.0, linear_sweeps=30, jacobian_lag=8)


@dataclass
class IterationHistory:
    """Per-iteration L1 residual norms (one per equation) and the CFL used."""

    iterations: list = field(default_factory=list)

    def append(self, it, norms, cfl):
        self.iterations.append((it, np.atleast_1d(norms).copy(), cfl))

    def write_csv(self, path, var_names):
        with open(path, "w") as f:
            f.write("# defect-correction iteration history\n")
            f.write("iteration," + ",".join(f"l1_res_{v}" for v in var_names)
                    + ",cfl\n")
            for it, norms, cfl in self.iterations:
                vals = ",".join(f"{x:.10e}" for x in norms)
                f.write(f"{it},{vals},{cfl:.6g}\n")


class _LinearSolver:
    """Factored linear solver reusable across nonlinear iterations.

    sweeps <= 0: direct sparse LU.  sweeps > 0: that many lexicographic
    Gauss-Seidel sweeps (triangular factors only, no fill-in), which is the
    practical choice for the 3D Jacobians where LU fill is prohibitive.
    """

    def __init__(self, mat, sweeps: int):
        self.sweeps = sweeps
        mat = mat.tocsr()
        if sweeps <= 0:
            self._lu = spla.splu(mat.tocsc())
        else:
            lower = sp.tril(mat, k=0, format="csc")
            self._upper = sp.triu(mat, k=1, format="csr")
            self._lu = spla.splu(lower, permc_spec="NATURAL",
                                 options={"DiagPivotThresh": 0.0})

    def solve(self, rhs):
        if self.sweeps <= 0:
            return self._lu.solve(rhs)
        x = np.zeros_like(rhs)
        for _ in range(self.sweeps):
            x = self._lu.solve(rhs - self._upper @ x)
        return x


def solve_defect_correction(residual_fn, jacobian_fn, u0, l1_norm_fn,
                            apply_update_fn, cfg: SolverConfig,
                            history: IterationHistory | None = None):
    """Generic defect-correction loop with SER pseudo-time control.

    residual_fn(u) -> residual array; jacobian_fn(u, cfl) -> sparse matrix
    over the flattened unknowns; l1_norm_fn(res) -> per-equation norms;
    apply_update_fn(u, du) -> new u (raises SolverDivergenceError if no
    damping of the update yields a valid state).  Returns (u, history).

    Pseudo-transient continuation: the CFL starts at 10, doubles after each
    accepted step up to 1e8, and is cut back whenever a step blows the
    residual up or leaves the physical state space.  An absolute L1
    residual of 1e-14 also counts as converged.  The Jacobian is rebuilt at
    most every ``jacobian_lag`` accepted iterations or when the CFL moves by
    more than a factor of two since the last factorization.
    """
    if history is None:
        history = IterationHistory()
    u = u0
    res = residual_fn(u)
    norms0 = np.maximum(l1_norm_fn(res), 1e-300)
    target = 10.0 ** (-cfg.target_drop)
    cfl = 10.0
    lin = None
    built = (None, -1)          # (cfl used for the factored Jacobian, iter)
    for it in range(cfg.max_iterations):
        norms = l1_norm_fn(res)
        cur = float(np.max(norms / norms0))
        if cur <= target or np.max(norms) <= 1e-14:
            history.append(it, norms, cfl)
            return u, history
        accepted = False
        for _ in range(12):
            stale = (lin is None or it - built[1] >= cfg.jacobian_lag
                     or not 0.5 < cfl / built[0] < 2.0)
            if stale:
                lin = _LinearSolver(jacobian_fn(u, cfl), cfg.linear_sweeps)
                built = (cfl, it)
            du = lin.solve(-res.ravel()).reshape(np.shape(res))
            try:
                u_new = apply_update_fn(u, du)
                res_new = residual_fn(u_new)
                new = float(np.max(l1_norm_fn(res_new) / norms0))
                ok = np.isfinite(new) and new <= 2.5 * max(cur, 1e-12)
            except (SolverDivergenceError, FloatingPointError,
                    physics.InvalidStateError,
                    physics.NonpositiveTemperatureError):
                ok = False
            if ok:
                accepted = True
                break
            cfl = max(cfl / 4.0, 1e-3)
            lin = None
        if not accepted:
            history.append(it, norms, cfl)
            raise NonConvergenceError(
                "update rejected repeatedly (pseudo-time backoff exhausted)",
                history)
        history.append(it, norms, cfl)
        cfl = min(cfl * 2.0, 1e8)
        u, res = u_new, res_new
    history.append(cfg.max_iterations, l1_norm_fn(res), built[0])
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
    """Row, column, CSR index pointer and column color of every entry of the
    n x n band |i - j| <= 2, in row-major order (read-only arrays)."""
    offsets = np.arange(-_HALF_BAND_1D, _HALF_BAND_1D + 1)
    rows = np.repeat(np.arange(n), _COLORS_1D)
    cols = rows + np.tile(offsets, n)
    keep = (cols >= 0) & (cols < n)
    rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    pattern = (rows, cols.astype(np.int32), indptr, cols % _COLORS_1D)
    for a in pattern:
        a.setflags(write=False)
    return pattern


def _jacobian_1d(problem, u, cfl):
    """Column-colored finite-difference Jacobian of the full nonlinear
    residual plus the pseudo-time diagonal, as a pentadiagonal CSR matrix.

    Columns c, c+5, c+10, ... are perturbed together, one residual
    evaluation per color: a residual row reads only u[i-2..i+2], so no row
    sees two columns of one color, and 5 colors (fewer when n < 5) recover
    every entry of the band.  The residual is evaluated elementwise, so
    each entry is bit-identical to the per-column difference with the same
    step 1e-7 max(1, |u_j|), and the sparsity structure matches that of the
    dense matrix.

    A frozen-viscosity Jacobian (pure defect correction) limit-cycles on the
    coarsest irregular grids, where the face viscosity varies by nearly two
    orders of magnitude; the exact Jacobian is cheap at these sizes.
    """
    grid = problem.grid
    n = grid.n_cells
    rows, cols, indptr, color = _band_pattern_1d(n)
    base = diffusion1d.residual_1d(problem, u)
    step = 1e-7 * np.maximum(1.0, np.abs(u))
    diffs = np.empty((min(_COLORS_1D, n), n))
    for c in range(len(diffs)):
        e = np.zeros(n)
        e[c::_COLORS_1D] = step[c::_COLORS_1D]
        diffs[c] = diffusion1d.residual_1d(problem, u + e) - base
    data = diffs[color, rows] / step[cols]
    # pseudo-time: dt = cfl h^2 / nu, floored so the diagonal never vanishes
    # at the u = 0 degeneracy of nu = u^2
    diag = rows == cols
    nu_cell = np.maximum(u ** 2, 1e-3)
    data[diag] += nu_cell / (cfl * grid.cell_volumes)
    pinned = problem.pinned[rows]
    data[pinned] = 0.0
    data[pinned & diag] = 1.0
    # copies: eliminate_zeros compacts the index arrays in place
    jac = sp.csr_matrix((data, cols.copy(), indptr.copy()), shape=(n, n))
    jac.eliminate_zeros()
    return jac


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

def _face_spectral_radii(problem, w):
    """Convective and viscous spectral radii per interior face (unit area)."""
    cfg = problem.cfg
    o, k = problem.f_owner, problem.f_neighbor
    wf = 0.5 * (w[o] + w[k])
    vn = np.einsum("fd,fd->f", wf[:, 1:4], problem.f_nhat)
    c = np.sqrt(wf[:, 4])
    d = np.linalg.norm(problem.mesh.cell_centroid[k]
                       - problem.mesh.cell_centroid[o], axis=1)
    mu = physics.sutherland_viscosity(np.maximum(wf[:, 4], 1e-12), cfg)
    lam_v = 2.0 * mu / (wf[:, 0] * d) * max(4.0 / 3.0,
                                            cfg.gamma / cfg.prandtl)
    return np.abs(vn) + c, lam_v


def _prim_from_cons_jacobian(w, cfg):
    """d(rho, v, T)/d(rho, rho v, rho E) evaluated at primitive states w."""
    rho = w[..., 0]
    vel = w[..., 1:4]
    t = w[..., 4]
    gg1 = cfg.gamma * (cfg.gamma - 1.0)
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


def _thin_layer_viscous_blocks(problem, w):
    """Face viscous-flux Jacobian wrt neighbor conservative states.

    Thin-layer model: the face viscous flux is approximated as a normal
    diffusion of the primitive differences, F ~ -C (prim_k - prim_j) with
    C = (mu_f / d) diag-coupled rows for momentum, tau.v work, and heat
    conduction.  Returns (nf, 5, 5) blocks d(area F)/dU_o and d(area F)/dU_k.
    """
    cfg = problem.cfg
    o, k = problem.f_owner, problem.f_neighbor
    wf = 0.5 * (w[o] + w[k])
    # The damped face gradient carries the difference term with coefficient
    # alpha / d_n (d_n = centroid distance projected on the face normal), so
    # that is the normal-diffusion scale the Jacobian must reproduce.
    d_n = np.abs(np.einsum("fd,fd->f",
                           problem.mesh.cell_centroid[k]
                           - problem.mesh.cell_centroid[o],
                           problem.f_nhat))
    mu = physics.sutherland_viscosity(np.maximum(wf[:, 4], 1e-12), cfg)
    coef = cfg.alpha * mu / d_n
    c = np.zeros((len(o), 5, 5))
    for i in range(3):
        c[:, 1 + i, 1 + i] = (4.0 / 3.0) * coef
        c[:, 4, 1 + i] = (4.0 / 3.0) * coef * wf[:, 1 + i]
    c[:, 4, 4] = coef / (cfg.prandtl * (cfg.gamma - 1.0))
    m = _prim_from_cons_jacobian(wf, cfg)
    cm = np.einsum("fij,fjk->fik", c, m)
    area = problem.f_area[:, None, None]
    return area * cm, -area * cm


def _jacobian_ns3d(problem, w, cfl):
    """First-order Jacobian in conservative variables.

    Inviscid part: 0.5 (Fn(U_o) + Fn(U_k)) - 0.5 lambda_c (U_k - U_o) with
    lambda_c = |vn| + c.  Viscous part: thin-layer normal-diffusion blocks
    (a scalar viscous radius lumped onto every equation stalls the defect
    correction, since continuity carries no viscous flux).  Pinned rows are
    identity.
    """
    cfg = problem.cfg
    mesh = problem.mesh
    nc = mesh.n_cells
    o, k = problem.f_owner, problem.f_neighbor
    area = problem.f_area
    lam_c, lam_v = _face_spectral_radii(problem, w)
    lam = lam_c + lam_v

    eye = np.eye(5)
    a_o = physics.inviscid_flux_jacobian(w[o], problem.f_nhat, cfg)
    a_k = physics.inviscid_flux_jacobian(w[k], problem.f_nhat, cfg)
    v_o, v_k = _thin_layer_viscous_blocks(problem, w)
    blk_o = 0.5 * area[:, None, None] * (a_o + lam_c[:, None, None] * eye) + v_o
    blk_k = 0.5 * area[:, None, None] * (a_k - lam_c[:, None, None] * eye) + v_k

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


def solve_ns3d(problem, cfg: SolverConfig | None = None,
               w0: np.ndarray | None = None):
    """Drive the 3D MMS problem to steady state; returns (states, history)."""
    if cfg is None:
        cfg = NS3D_CONFIG
    fcfg = problem.cfg
    if w0 is None:
        w0 = problem.initial_state()
    w0 = np.array(w0, dtype=float)
    w0[problem.pinned] = problem.exact[problem.pinned]
    unpinned = ~problem.pinned

    def res_fn(w):
        return ns3d.residual_ns3d(problem, w)

    def norm_fn(res):
        return np.abs(res[unpinned]).mean(axis=0)

    def update_fn(w, d_res):
        du = d_res  # update in conservative variables
        u = physics.prim_to_cons(w, fcfg)
        scale = 1.0
        for _ in range(25):
            w_new = physics.cons_to_prim(u + scale * du, fcfg)
            if np.all(w_new[:, 0] > 0.0) and np.all(w_new[:, 4] > 0.0):
                w_new[problem.pinned] = problem.exact[problem.pinned]
                return w_new
            scale *= 0.5
        raise SolverDivergenceError(
            "no damping of the update yields a physical state")

    return solve_defect_correction(res_fn, lambda w, c:
                                   _jacobian_ns3d(problem, w, c),
                                   w0, norm_fn, update_fn, cfg)
