"""Implicit solvers driving both problems to steady state.

Each problem has its own nonlinear loop: each iteration solves a linear
system for an update against the full residual, applies it, and judges
the step by the residual it leaves.

1D: pseudo-transient Newton (``solve_defect_correction``), which retreats
on a step that blows the residual up by cutting its CFL.  The Jacobian is a
column-colored finite-difference Jacobian of the full nonlinear residual
plus a diagonal pseudo-time term whose CFL grows geometrically on accepted
steps: the residual stencil is 5 cells wide (the central-difference
gradients of ``recon.gradient_1d`` reach one cell past each face neighbor),
so 5 perturbed states fill the pentadiagonal band, bit-identical to
perturbing one column at a time.  The loop evaluates each state it tries
once (``_evaluate_1d``), stacked with its 5 perturbed states: row 0 is the
state's residual, and every Jacobian built at an accepted state reuses the
whole stack and its difference steps, also when it is rebuilt after a run
of rejected steps, so a build makes no residual call.  The builds of one
solve write one CSC matrix in place, and each banded system is solved by
sparse LU (SuperLU).

3D: inexact Newton-Krylov from the manufactured solution (``solve_ns3d``),
with no pseudo-time term.  The MMS problem is nearly linear around
``problem.exact``, so the solve starts there and takes Newton steps whose
direction GMRES finds from a Jacobian-free (finite-difference directional
derivative) product of the second-order residual, left-preconditioned by
multicolor block Gauss-Seidel on 5x5 cell blocks of a first-order Jacobian
(first-order upwind inviscid flux Jacobian plus thin-layer viscous blocks),
assembled straight into 5x5 BSR blocks.  A rejected step ends the solve.
The residual target is still set by the free-stream state.
"""

from __future__ import annotations

import math
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
    """A 3D Newton update leaves a density or temperature non-positive."""


@dataclass(frozen=True)
class SolverConfig:
    """Termination and linear-solve parameters.

    ``target_drop`` is the number of orders of magnitude of L1 residual
    reduction.  Only the 3D solve reads the other two, and their defaults
    are its values: its GMRES preconditioner is ``linear_sweeps`` sweeps of
    multicolor block Gauss-Seidel on 5x5 cell blocks of a first-order
    Jacobian (0 solves directly), rebuilt every ``jacobian_lag`` Newton
    steps.  They stay until the benchmark stops passing them (ROADMAP item
    5).  The 1D solve always factors directly and rebuilds at every step
    attempt.
    """

    target_drop: float = 8.0
    max_iterations: int = 2000
    linear_sweeps: int = 30
    jacobian_lag: int = 8

    def __post_init__(self):
        if not 0 < self.target_drop < np.inf or self.max_iterations <= 0:
            raise ValueError("target_drop must be positive and finite, and "
                             "max_iterations positive")
        if self.jacobian_lag < 1:
            raise ValueError("jacobian_lag must be at least 1")


#: 3D defaults: a 7-order residual drop (see ``verify.run_study_3d``).
NS3D_CONFIG = SolverConfig(target_drop=7.0)


@dataclass
class IterationHistory:
    """Per-iteration L1 residual norms (one per equation) and the CFL used.

    A row whose iteration is ``"reference"`` holds the norms of the
    reference state the residual drop is measured from.  3D rows record
    CFL ``inf``: a Newton step has no pseudo-time term.
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
    5), read through ``tobsr``: the 3D Jacobian is already 5x5 BSR and
    passes through unchanged.  The cells are colored greedily on the
    symmetrized block pattern, so no two cells of one color are coupled
    either way (pinned cells have identity rows but appear in their
    neighbors' rows), and the unknowns are renumbered color by color.
    With the diagonal blocks D inverted once and T = D^-1 (A - D), a sweep
    updates each color's rows in turn as x_r = D^-1 b_r - T_r x: one sparse
    matvec per color, no fill-in.
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
                np.subtract(c[s:e], t @ x, out=x[s:e])
        out = np.empty((len(self._order), _BLOCK))
        out[self._order] = x.reshape(-1, _BLOCK)
        return out.ravel()


#: First and largest pseudo-time CFL of the 1D loop.
_CFL0 = 10.0
_CFL_MAX = 1e8

#: GMRES settings of a Newton-Krylov step: relative tolerance, restart
#: length and number of restart cycles.
_GMRES_RTOL = 1e-4
_GMRES_RESTART = 60
_GMRES_MAXITER = 10

#: Errors of a 3D Newton step that leaves the physical state space.
_STEP_ERRORS = (SolverDivergenceError, FloatingPointError,
                physics.InvalidStateError, physics.NonpositiveTemperatureError)


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


def _rise_reason(cur, new):
    """Why a step from relative residual ``cur`` to ``new`` is rejected, or
    None if it is accepted."""
    if math.isfinite(new) and new <= 2.5 * max(cur, 1e-12):
        return None
    return f"residual rose from {cur:.3g} to {new:.3g} of the reference level"


def solve_defect_correction(problem, u0, apply_update_fn, cfg: SolverConfig):
    """The 1D pseudo-transient loop, with SER pseudo-time control; returns
    (u, history).

    apply_update_fn(u, du) -> new u has one value, the sum u + du with its
    pinned cells reset by ``problem.pin`` (``solve_diffusion_1d``); it stays
    a parameter only because the benchmark binds it by name to count step
    attempts.

    The loop evaluates each state it tries once (``_evaluate_1d``) and holds
    the difference steps, stacked residual and norms of the accepted state
    and of the trial; on acceptance the trial's become the state's.  Each
    step attempt builds the Jacobian at the accepted state from its stack,
    into one CSC container per solve, factors it afresh by sparse LU and
    solves it for du = -J^-1 res.  The norm is the mean absolute residual
    over the cells that ``problem.pinned`` leaves free; the target is
    ``cfg.target_drop`` orders below the norm of u0, and an absolute 1e-14
    also counts as converged.

    Pseudo-transient continuation: the CFL starts at 10, doubles after each
    accepted step up to 1e8, and is cut 4-fold (down to 1e-3) whenever a
    step leaves a residual that is not finite or has risen 2.5-fold; 12
    rejections in a row raise NonConvergenceError with the last reason.
    ``cfg.max_iterations`` caps the steps; the state after the last allowed
    step is still checked.
    """
    free = np.flatnonzero(~problem.pinned)

    def evaluate(u):
        step, stack = _evaluate_1d(problem, u)
        return (step, stack,
                np.abs(stack[0, free]).sum(keepdims=True) / free.size)

    history = IterationHistory()
    u = u0
    step, stack, norms = evaluate(u)
    norms0 = np.maximum(norms, 1e-300)
    target = 10.0 ** (-cfg.target_drop)
    cfl = _CFL0
    cur = float((norms / norms0).max())
    jac = None
    for it in range(cfg.max_iterations + 1):
        if cur <= target or norms.max() <= 1e-14:
            history.append(it, norms, cfl)
            return u, history
        if it == cfg.max_iterations:
            break
        for _ in range(12):
            jac = _jacobian_1d(problem, u, cfl, evaluated=(step, stack),
                               out=jac)
            du = _LinearSolver(jac, 0).solve(-stack[0])
            u_new = apply_update_fn(u, du)
            trial = evaluate(u_new)
            new = float((trial[2] / norms0).max())
            reason = _rise_reason(cur, new)
            if reason is None:
                break
            cfl = max(cfl / 4.0, 1e-3)
        else:
            history.append(it, norms, cfl)
            raise NonConvergenceError(
                "update rejected 12 times (pseudo-time backoff exhausted); "
                f"last: {reason}", history)
        history.append(it, norms, cfl)
        cfl = min(cfl * 2.0, _CFL_MAX)
        u, (step, stack, norms), cur = u_new, trial, new
    history.append(cfg.max_iterations, norms, cfl)
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


@dataclass(frozen=True)
class _Band1D:
    """Index arrays of the n x n band |i - j| <= 2 (read-only), in major
    order.  The band is symmetric, so major/minor/indptr are its CSR arrays
    with row major and its CSC arrays with column major.

    ``colored`` is the position of entry (minor i, major j) in the
    (colors, n) array of colored differences, (j mod 5) n + i; ``diag`` the
    position of each cell's diagonal entry; ``scatter`` the flat position
    of each cell's perturbation in the (1 + colors, n) stack of a state on
    its colored perturbations, (1 + j mod 5) n + j.
    """

    major: np.ndarray
    minor: np.ndarray
    indptr: np.ndarray
    colored: np.ndarray
    diag: np.ndarray
    scatter: np.ndarray


@lru_cache(maxsize=None)
def _band_pattern_1d(n):
    offsets = np.arange(-_HALF_BAND_1D, _HALF_BAND_1D + 1)
    major = np.repeat(np.arange(n), _COLORS_1D)
    minor = major + np.tile(offsets, n)
    keep = (minor >= 0) & (minor < n)
    major, minor = major[keep], minor[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(major, minlength=n), out=indptr[1:])
    cells = np.arange(n)
    band = _Band1D(major, minor.astype(np.int32), indptr,
                   major % _COLORS_1D * n + minor,
                   np.flatnonzero(major == minor),
                   (1 + cells % _COLORS_1D) * n + cells)
    for a in vars(band).values():
        a.setflags(write=False)
    return band


def _fd_step_1d(u):
    """Difference step of each column, 1e-7 max(1, |u_j|)."""
    return 1e-7 * np.maximum(1.0, np.abs(u))


def _colored_states_1d(u, step):
    """u stacked on its colored perturbations: row 0 is u, row 1 + c
    perturbs columns c, c+5, c+10, ... by their difference steps ``step``
    (5 colors, fewer when n < 5)."""
    n = u.size
    states = np.empty((1 + min(_COLORS_1D, n), n))
    states[...] = u
    states.reshape(-1)[_band_pattern_1d(n).scatter] = u + step
    return states


def _evaluate_1d(problem, u):
    """(difference steps, stacked residual) of state u: the residual of
    ``_colored_states_1d``, whose row 0 is the residual of u itself."""
    step = _fd_step_1d(u)
    return step, diffusion1d.residual_1d(problem, _colored_states_1d(u, step))


def _jacobian_1d(problem, u, cfl, evaluated=None, out=None):
    """Column-colored finite-difference Jacobian of the full nonlinear
    residual plus the pseudo-time diagonal, as a pentadiagonal CSC matrix.

    Columns c, c+5, c+10, ... are perturbed together: a residual row reads
    only u[i-2..i+2], so no row sees two columns of one color, and 5 colors
    (fewer when n < 5) recover every entry of the band.  The base state and
    the perturbed states (``_colored_states_1d``) go through one stacked
    evaluation of the residual, which is elementwise, so each entry is
    bit-identical to the per-column difference with the same step
    1e-7 max(1, |u_j|).  ``evaluated`` is the (steps, stacked residual) pair
    of ``_evaluate_1d(problem, u)`` when the caller has it already (the 1D
    solve evaluates each state it tries once, so its builds cost no residual
    call); without it the build evaluates u.  Numerically zero entries are
    dropped, so the sparsity structure (which SuperLU's column ordering
    sees) matches that of the dense matrix.

    The result is a new matrix, or ``out`` (a CSC matrix of the same shape
    from an earlier build) with its data, indices and index pointer
    replaced: the arrays are canonical by construction, so a container
    that SuperLU has checked once needs no check again, and a factor
    already taken from it is unaffected, since SuperLU factors its own
    copy.

    A frozen-viscosity Jacobian (pure defect correction) limit-cycles on the
    coarsest irregular grids, where the face viscosity varies by nearly two
    orders of magnitude; the exact Jacobian is cheap at these sizes.
    """
    grid = problem.grid
    n = grid.n_cells
    band = _band_pattern_1d(n)
    step, res = _evaluate_1d(problem, u) if evaluated is None else evaluated
    data = (res[1:] - res[0]).take(band.colored) / step.take(band.major)
    # pseudo-time: dt = cfl h^2 / nu, floored so the diagonal never vanishes
    # at the u = 0 degeneracy of nu = u^2.  Pinned rows of the residual are
    # zero in every state, so their differences are zero already and only
    # their diagonal is set.
    data[band.diag] += np.maximum(u ** 2, 1e-3) / (cfl * grid.cell_volumes)
    data[band.diag[problem.pinned]] = 1.0
    # drop zero entries as eliminate_zeros would; the kept positions before
    # each column's first band position give the new index pointer
    kept = data.nonzero()[0]
    arrays = (data[kept], band.minor[kept],
              kept.searchsorted(band.indptr).astype(np.int32))
    if out is None:
        return sp.csc_matrix(arrays, shape=(n, n))
    out.data, out.indices, out.indptr = arrays
    return out


def solve_diffusion_1d(problem, cfg: SolverConfig = SolverConfig(),
                       u0: np.ndarray | None = None):
    """Drive the 1D problem to steady state from a pinned copy of u0 (by
    default the problem's initial state); returns (u, history)."""
    if u0 is None:
        u0 = problem.initial_state()
    return solve_defect_correction(
        problem, problem.pin(np.array(u0, dtype=float)),
        lambda u, du: problem.pin(u + du), cfg)


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


def _jacobian_ns3d(problem, w):
    """First-order Jacobian in conservative variables, as 5x5 BSR blocks.

    Inviscid part: 0.5 (Fn(U_o) + Fn(U_k)) - 0.5 lambda_c (U_k - U_o) with
    lambda_c = |vn| + c.  Viscous part: thin-layer normal-diffusion blocks
    (a scalar viscous radius lumped onto every equation stalls the defect
    correction, since continuity carries no viscous flux): the face viscous
    flux is approximated as F ~ -C (prim_k - prim_o), where C couples the
    momentum, tau.v work and heat-conduction rows with the scale
    ALPHA mu_f / |d_n| (d_n = ``problem.f_dn``), the coefficient of the
    difference term in the damped face gradient.  A pinned row holds only
    an identity diagonal block.
    """
    nc = problem.mesh.n_cells
    o, k = problem.f_owner, problem.f_neighbor
    area = problem.f_area
    nhat = problem.f_nhat.T
    # face state, viscosity and convective spectral radius (unit area)
    wf = 0.5 * (w[o] + w[k])
    lam_c = np.abs(np.einsum("fd,fd->f", wf[:, 1:4], nhat)) + \
        np.sqrt(wf[:, 4])
    mu = physics.sutherland_viscosity(np.maximum(wf[:, 4], 1e-12))

    coef = recon.ALPHA * mu / np.abs(problem.f_dn)
    c = np.zeros((len(o), 5, 5))
    for i in range(3):
        c[:, 1 + i, 1 + i] = (4.0 / 3.0) * coef
        c[:, 4, 1 + i] = (4.0 / 3.0) * coef * wf[:, 1 + i]
    c[:, 4, 4] = coef / (physics.PRANDTL * (physics.GAMMA - 1.0))
    visc = c @ _prim_from_cons_jacobian(wf)

    # per-unit-area face blocks: d(flux)/d(U_o) and d(flux)/d(U_k)
    eye = np.eye(5)
    a_o = physics.inviscid_flux_jacobian(w[o], nhat)
    a_k = physics.inviscid_flux_jacobian(w[k], nhat)
    b_o = 0.5 * (a_o + lam_c[:, None, None] * eye) + visc
    b_k = 0.5 * (a_k - lam_c[:, None, None] * eye) - visc

    # diagonal: area b_o summed over owned faces minus area b_k over
    # neighbored ones (inc is +-area)
    inc = problem.f_incidence
    diag = (inc @ (0.5 * (b_o + b_k)).reshape(-1, 25) + abs(inc)
            @ (0.5 * (b_o - b_k)).reshape(-1, 25)).reshape(-1, 5, 5)
    diag[problem.pinned] = eye

    # off-diagonal blocks of unpinned rows, (o, k) = area b_k and
    # (k, o) = -area b_o, sorted with the diagonal into block-row order
    unpinned = ~problem.pinned
    on_o, on_k = unpinned[o], unpinned[k]
    cells = np.arange(nc)
    rows = np.concatenate((o[on_o], k[on_k], cells))
    cols = np.concatenate((k[on_o], o[on_k], cells))
    blocks = np.concatenate((area[on_o, None, None] * b_k[on_o],
                             -area[on_k, None, None] * b_o[on_k], diag))
    order = np.argsort(rows * nc + cols)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=nc))))
    return sp.bsr_matrix((blocks[order], cols[order], indptr),
                         shape=(5 * nc, 5 * nc))


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
        w_eps = problem.pin(physics.cons_to_prim(u + eps * v.reshape(u.shape)))
        jv = (ns3d.residual_ns3d(problem, w_eps) - res).ravel() / eps
        jv[pinned_rows] = v[pinned_rows]
        return jv
    return matvec


def solve_ns3d(problem, cfg: SolverConfig = NS3D_CONFIG):
    """Drive the 3D MMS problem to steady state by Newton-Krylov steps from
    the exact solution; returns (states, history).

    The target is ``cfg.target_drop`` orders below the residual of the
    free-stream state ``problem.initial_state()``, whose norms are the
    history row labelled ``"reference"``; at least one step is taken, since
    the exact state already lies below the target without being a discrete
    solution.  The preconditioner is built every ``cfg.jacobian_lag``
    steps.  A step that leaves the physical state space, or whose residual
    is not finite or rises 2.5-fold, raises NonConvergenceError at once.
    """
    unpinned = ~problem.pinned

    def evaluate(w):
        res = ns3d.residual_ns3d(problem, w)
        return res, np.abs(res[unpinned]).mean(axis=0)

    def update(w, du):
        """Add the conservative update once; a density or temperature it
        leaves non-positive raises SolverDivergenceError."""
        w_new = problem.pin(physics.cons_to_prim(physics.prim_to_cons(w) + du))
        if np.all(w_new[:, 0] > 0.0) and np.all(w_new[:, 4] > 0.0):
            return w_new
        raise SolverDivergenceError(
            "the Newton update leaves the physical states")

    history = IterationHistory()
    w = problem.exact.copy()
    res, norms = evaluate(w)
    norms0 = evaluate(problem.initial_state())[1]
    history.append("reference", norms0, math.inf)
    norms0 = np.maximum(norms0, 1e-300)
    target = 10.0 ** (-cfg.target_drop)
    cur = float((norms / norms0).max())
    for it in range(cfg.max_iterations + 1):
        history.append(it, norms, math.inf)
        if it and (cur <= target or norms.max() <= 1e-14):
            return w, history
        if it == cfg.max_iterations:
            raise NonConvergenceError(
                f"residual drop of {cfg.target_drop} orders not reached in "
                f"{cfg.max_iterations} iterations", history)
        if it % cfg.jacobian_lag == 0:
            lin = _LinearSolver(_jacobian_ns3d(problem, w), cfg.linear_sweeps)
        du = _krylov_step(_matvec_ns3d(problem, w, res), lin, -res.ravel())
        try:
            w_new = update(w, du.reshape(res.shape))
            res_new, norms_new = evaluate(w_new)
            new = float((norms_new / norms0).max())
        except _STEP_ERRORS as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            reason = _rise_reason(cur, new)
        if reason is not None:
            raise NonConvergenceError(f"Newton step rejected: {reason}",
                                      history)
        w, res, norms, cur = w_new, res_new, norms_new, new
