"""Implicit solvers: convergence, termination, and error paths."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import root

from fvvisc import cli, diffusion1d, mesh, ns3d, physics, recon, solver, verify
from fvvisc.recon import Strategy


def make_1d(n=11, strategy="arithmetic", seed=0):
    g = mesh.generate_grid_1d(n, seed=seed)
    return diffusion1d.Diffusion1DProblem(g, Strategy.from_name(strategy))


#: The errors of a 3D step that leaves the physical state space.
STEP_ERRORS = [solver.SolverDivergenceError, FloatingPointError,
               physics.InvalidStateError, physics.NonpositiveTemperatureError]


class TestSolverConfig:
    def test_defaults_valid(self):
        solver.SolverConfig()

    def test_rejects_bad_values(self):
        for drop in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                solver.SolverConfig(target_drop=drop)
        with pytest.raises(ValueError):
            solver.SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            solver.SolverConfig(jacobian_lag=0)

    def test_a_3d_solve_from_the_defaults_is_the_ns3d_solve(self):
        # only the drop sets NS3D_CONFIG apart: a default config with the
        # 3D drop solves through the same preconditioner, not a direct LU
        p = ns3d_problem(3, seed=31)
        a, _ = solver.solve_ns3d(p, solver.SolverConfig(target_drop=7.0))
        b, _ = solver.solve_ns3d(p, solver.NS3D_CONFIG)
        assert np.array_equal(a, b)


class TestDiffusion1DSolve:
    def test_converges_to_the_hybr_root(self):
        p = make_1d(n=13, seed=2)
        u, _ = solver.solve_diffusion_1d(
            p, solver.SolverConfig(target_drop=10.0))
        fun = lambda v: diffusion1d.residual_1d(p, p.pin(v.copy()))
        ref = p.pin(root(fun, diffusion1d.exact_solution(p.grid.cell_centers),
                         method="hybr", tol=1e-13).x)
        assert np.abs(fun(ref)).max() < 1e-9      # reference is a true root
        assert np.abs(u - ref).max() < 1e-7

    def test_leaves_the_start_state_unchanged(self):
        # the solve pins a copy of u0; these end cells are off their exact
        # values, so pinning u0 itself would change them
        p = make_1d(n=11, seed=4)
        v = 1.05 * p.exact
        keep = v.copy()
        solver.solve_diffusion_1d(p, solver.SolverConfig(), u0=v)
        assert v.tobytes() == keep.tobytes()

    def test_residual_meets_target_drop(self):
        p = make_1d(n=15, seed=3)
        cfg = solver.SolverConfig(target_drop=9.0)
        u, hist = solver.solve_diffusion_1d(p, cfg)
        first = hist.iterations[0][1][0]
        last = hist.iterations[-1][1][0]
        assert last <= 10.0 ** (-9.0) * first

    @pytest.mark.parametrize("strategy", ["lr-average", "inverse-distance",
                                          "one-sided-right"])
    def test_all_rootable_strategies_converge(self, strategy):
        p = make_1d(n=11, strategy=strategy, seed=4)
        u, _ = solver.solve_diffusion_1d(
            p, solver.SolverConfig(target_drop=10.0))
        res = diffusion1d.residual_1d(p, u)
        assert np.abs(res).max() < 1e-7

    def test_iteration_cap_raises_with_history(self):
        p = make_1d(n=15, seed=5)
        cfg = solver.SolverConfig(target_drop=12.0, max_iterations=2)
        with pytest.raises(solver.NonConvergenceError) as exc:
            solver.solve_diffusion_1d(p, cfg)
        assert len(exc.value.history.iterations) >= 1

    def test_target_reached_on_the_last_allowed_step(self):
        p = make_1d(n=15, seed=5)
        cfg = solver.SolverConfig(target_drop=9.0)
        u, hist = solver.solve_diffusion_1d(p, cfg)
        steps = hist.iterations[-1][0]
        capped, _ = solver.solve_diffusion_1d(
            p, dataclasses.replace(cfg, max_iterations=steps))
        assert np.array_equal(capped, u)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_capped_history_is_a_prefix_of_the_uncapped_one(self, cap):
        # the last row of either exit records the CFL the next step would
        # start from, not the CFL of the last factorization
        p = make_1d(n=7, seed=3)
        _, full = solver.solve_diffusion_1d(p)
        with pytest.raises(solver.NonConvergenceError) as exc:
            solver.solve_diffusion_1d(
                p, solver.SolverConfig(max_iterations=cap))
        capped = exc.value.history.iterations
        assert len(capped) == cap + 1
        for (it, norms, cfl), (it_ref, norms_ref, cfl_ref) in zip(
                capped, full.iterations[:cap + 1], strict=True):
            assert it == it_ref and cfl == cfl_ref
            assert np.array_equal(norms, norms_ref)

    def test_deterministic(self):
        cfg = solver.SolverConfig(target_drop=8.0)
        a, _ = solver.solve_diffusion_1d(make_1d(seed=6), cfg)
        b, _ = solver.solve_diffusion_1d(make_1d(seed=6), cfg)
        assert np.array_equal(a, b)

    def test_history_csv(self, tmp_path):
        p = make_1d(n=9, seed=7)
        _, hist = solver.solve_diffusion_1d(p)
        path = tmp_path / "history.csv"
        hist.write_csv(str(path), ("u",))
        lines = path.read_text().splitlines()
        assert lines[1] == "iteration,l1_res_u,cfl"
        assert len(lines) == 2 + len(hist.iterations)

    def test_repeated_rejection_names_the_reason(self):
        # a state that is not finite leaves a residual that is not finite
        p = make_1d(n=9, seed=1)
        with pytest.raises(solver.NonConvergenceError,
                           match="rejected 12 times.*last: residual rose "
                                 "from 1 to nan"):
            solver.solve_defect_correction(
                p, p.initial_state(), lambda u, du: np.full_like(u, np.nan),
                solver.SolverConfig())

    @pytest.mark.parametrize("scale", [np.nan, 1e3], ids=["nan", "rise"])
    def test_each_rejected_step_cuts_the_cfl(self, monkeypatch, scale):
        # a residual that is not finite or has risen 2.5-fold is a
        # rejection: the CFL falls 4-fold per attempt, floored at 1e-3
        p = make_1d(n=9, seed=1)
        cfls = []
        build = solver._jacobian_1d

        def jacobian(problem, u, cfl, **kwargs):
            cfls.append(cfl)
            return build(problem, u, cfl, **kwargs)

        monkeypatch.setattr(solver, "_jacobian_1d", jacobian)
        with pytest.raises(solver.NonConvergenceError,
                           match="rejected 12 times.*last: residual rose"):
            solver.solve_defect_correction(
                p, p.initial_state(), lambda u, du: p.pin(scale * u),
                solver.SolverConfig())
        assert cfls == [max(10.0 / 4.0 ** k, 1e-3) for k in range(12)]


def dense_jacobian_1d(problem, u, cfl):
    """Per-column finite-difference reference: n + 1 residual evaluations
    into a dense matrix, converted to CSR."""
    grid = problem.grid
    n = grid.n_cells
    base = diffusion1d.residual_1d(problem, u)
    jac = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1e-7 * max(1.0, abs(u[j]))
        jac[:, j] = (diffusion1d.residual_1d(problem, u + e) - base) / e[j]
    nu_cell = np.maximum(u ** 2, 1e-3)
    jac[np.diag_indices(n)] += nu_cell / (cfl * grid.cell_volumes)
    jac[problem.pinned, :] = 0.0
    jac[problem.pinned, problem.pinned] = 1.0
    return sp.csr_matrix(jac)


def perturbed_state(problem, seed):
    rng = np.random.default_rng(seed)
    ue = diffusion1d.exact_solution(problem.grid.cell_centers)
    return problem.pin(ue * (1.0 + 0.1 * rng.standard_normal(ue.size)))


class TestColoredJacobian1D:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 31, 127])
    @pytest.mark.parametrize("strategy", [
        "lr-average", "arithmetic", "inverse-distance", "one-sided-left",
        "one-sided-right", "weighted:0.75", "weighted:1"])
    def test_bit_identical_to_per_column_fd(self, strategy, n):
        p = make_1d(n=n, strategy=strategy, seed=n)
        u = perturbed_state(p, seed=n)
        for cfl in (10.0, 1e5):
            got = solver._jacobian_1d(p, u, cfl)
            ref = dense_jacobian_1d(p, u, cfl).tocsc()
            assert got.format == "csc"
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr))

    @pytest.mark.parametrize("n", [3, 7, 127])
    def test_one_build_costs_one_stacked_residual(self, monkeypatch, n):
        p = make_1d(n=n, seed=1)
        u = perturbed_state(p, seed=1)
        shapes = []
        original = diffusion1d.residual_1d

        def counted(problem, u, *args, **kwargs):
            shapes.append(np.shape(u))
            return original(problem, u, *args, **kwargs)

        monkeypatch.setattr(diffusion1d, "residual_1d", counted)
        solver._jacobian_1d(p, u, 10.0)
        # the base state plus one perturbed state per color
        assert shapes == [(min(5, n) + 1, n)]

    def test_one_sided_left_study_matches_per_column_superlu(
            self, monkeypatch):
        """Rounding guard: one-sided-left rows sit on spurious roots, and
        which root a row reaches depends on rounding, so the production
        Jacobian and linear solve must reproduce the per-column difference
        factored by SuperLU bit for bit."""
        def study():
            rec = verify.run_study_1d(["one-sided-left"],
                                      sizes=(7, 11, 15, 19, 23), seed=4000)
            return np.array(rec["one-sided-left"].errors)[:, 0]

        got = study()

        class PerColumnSuperLU:
            def __init__(self, mat, sweeps):
                self._lu = spla.splu(mat.tocsc())

            def solve(self, rhs):
                return self._lu.solve(rhs)

        def per_column(problem, u, cfl, **ignored):
            # the solve's stacked residual and CSC container go unused
            return dense_jacobian_1d(problem, u, cfl)

        monkeypatch.setattr(solver, "_jacobian_1d", per_column)
        monkeypatch.setattr(solver, "_LinearSolver", PerColumnSuperLU)
        ref = study()
        assert np.isfinite(ref).any()
        assert np.array_equal(got, ref, equal_nan=True)

    def test_every_study_build_matches_a_fresh_build(self, monkeypatch):
        """Builds that reuse the solve's stacked residual and container,
        both right after the step that accepted their state and as rebuilds
        at that state after rejected steps, equal a fresh build at the same
        state.  The family reaches n = 95 builds that drop a data-dependent
        zero: 464 entries against the 465 of the band minus the pinned
        rows' off-diagonal entries."""
        original = solver._jacobian_1d
        builds = []
        last = [None]

        def recorded(problem, u, cfl, **kwargs):
            mat = original(problem, u, cfl, **kwargs)
            rebuild = u is last[0]
            last[0] = u
            builds.append((problem, u.copy(), cfl, rebuild,
                           mat.data.copy(), mat.indices.copy(),
                           mat.indptr.copy()))
            return mat

        monkeypatch.setattr(solver, "_jacobian_1d", recorded)
        verify.run_study_1d(["one-sided-left"],
                            sizes=(7, 11, 15, 19, 23, 31, 47, 63, 95),
                            seed=9000)
        monkeypatch.undo()
        assert {rebuild for _, _, _, rebuild, *_ in builds} == {False, True}
        dropped = 0
        for problem, u, cfl, _, data, indices, indptr in builds:
            fresh = solver._jacobian_1d(problem, u, cfl)
            assert np.array_equal(fresh.data, data)
            assert np.array_equal(fresh.indices, indices)
            assert np.array_equal(fresh.indptr, indptr)
            n = problem.grid.n_cells
            dropped += n == 95 and data.size == (5 * n - 6 - 4) - 1
        assert dropped >= 1

    def test_container_keeps_earlier_factors(self):
        p = make_1d(n=31, seed=2)
        rhs = np.linspace(1.0, 2.0, 31)
        first = perturbed_state(p, seed=1)
        out = solver._jacobian_1d(p, first, 10.0)
        lin = solver._LinearSolver(out, 0)
        before = lin.solve(rhs)
        second = perturbed_state(p, seed=2)
        assert solver._jacobian_1d(p, second, 10.0, out=out) is out
        assert np.array_equal(lin.solve(rhs), before)
        fresh = solver._jacobian_1d(p, second, 10.0)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(out, attr), getattr(fresh, attr))
        assert np.array_equal(solver._LinearSolver(out, 0).solve(rhs),
                              solver._LinearSolver(fresh, 0).solve(rhs))

    def test_without_a_container_every_build_is_new(self):
        p = make_1d(n=7, seed=2)
        u = perturbed_state(p, seed=2)
        assert solver._jacobian_1d(p, u, 10.0) is not \
            solver._jacobian_1d(p, u, 10.0)

    @pytest.mark.parametrize("n,seed", [(3, 0), (4, 0), (7, 1), (11, 0)])
    def test_one_stacked_residual_per_evaluated_state(self, monkeypatch, n,
                                                      seed):
        """A solve evaluates each state it tries once, ever, stacked with
        its colored perturbations: the start plus one per step attempt.
        Every case rebuilds at one state after two or more consecutive
        rejected steps, and those rebuilds reuse that state's stack."""
        p = make_1d(n=n, strategy="one-sided-left", seed=seed)
        shapes = []
        built_at = []
        attempts = 0
        residual, solve = diffusion1d.residual_1d, solver._LinearSolver.solve
        jacobian = solver._jacobian_1d

        def counted(problem, u, *args, **kwargs):
            shapes.append(np.shape(u))
            return residual(problem, u, *args, **kwargs)

        def counted_solve(self, rhs):
            nonlocal attempts
            attempts += 1
            return solve(self, rhs)

        def recorded_build(problem, u, cfl, **kwargs):
            built_at.append(u)
            return jacobian(problem, u, cfl, **kwargs)

        monkeypatch.setattr(diffusion1d, "residual_1d", counted)
        monkeypatch.setattr(solver._LinearSolver, "solve", counted_solve)
        monkeypatch.setattr(solver, "_jacobian_1d", recorded_build)
        _, hist = solver.solve_diffusion_1d(p)
        # builds in a row at one state: 1 + the rejected steps in a row
        run = longest = 1
        for prev, u in zip(built_at, built_at[1:]):
            run = run + 1 if u is prev else 1
            longest = max(longest, run)
        assert longest >= 3
        assert attempts > hist.iterations[-1][0]
        assert len(shapes) == 1 + attempts
        assert set(shapes) == {(min(5, n) + 1, n)}


class TestLinearSolver:
    def test_gauss_seidel_matches_direct_on_diagonally_dominant(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 40)) * 0.1
        np.fill_diagonal(a, 5.0 + rng.uniform(0, 1, 40))
        rhs = rng.normal(size=40)
        direct = solver._LinearSolver(sp.csr_matrix(a), 0).solve(rhs)
        gs = solver._LinearSolver(sp.csr_matrix(a), 60).solve(rhs)
        assert np.abs(gs - direct).max() < 1e-10

    @pytest.fixture(scope="class")
    def jacobian_3d(self):
        p = ns3d_problem(3, seed=31)
        assert p.pinned.any()       # identity rows: an unsymmetric pattern
        return solver._jacobian_ns3d(p, p.exact)

    def test_no_two_cells_of_one_color_are_coupled(self, jacobian_3d):
        lin = solver._LinearSolver(jacobian_3d, 30)
        blocks = jacobian_3d.tobsr(blocksize=(5, 5))
        nc = blocks.shape[0] // 5
        coupled = sp.csr_matrix((np.ones(blocks.indices.size), blocks.indices,
                                 blocks.indptr), shape=(nc, nc))
        assert (coupled != coupled.T).nnz > 0
        assert np.array_equal(np.sort(lin._order), np.arange(nc))
        for start, end, _ in lin._colors:
            cells = lin._order[start // 5:end // 5]
            within = coupled[cells][:, cells]
            # either direction: a row or a column of another cell of the color
            assert within.count_nonzero() == \
                np.count_nonzero(within.diagonal())

    def test_sweeps_converge_to_the_direct_solution(self, jacobian_3d):
        rhs = np.random.default_rng(8).normal(size=jacobian_3d.shape[0])
        direct = solver._LinearSolver(jacobian_3d, 0).solve(rhs)
        gs = solver._LinearSolver(jacobian_3d, 300).solve(rhs)
        assert np.abs(gs - direct).max() < 1e-8 * np.abs(direct).max()


@pytest.fixture(scope="module")
def solved():
    m = mesh.generate_tet_mesh(3, perturbation=0.2, seed=31)
    p = ns3d.NS3DProblem(m, Strategy.from_name("arithmetic"))
    cfg = solver.SolverConfig(target_drop=6.0, max_iterations=300,
                              linear_sweeps=15, jacobian_lag=4)
    w, hist = solver.solve_ns3d(p, cfg)
    return p, w, hist


class TestNS3DSolve:
    def test_residual_drop_reached(self, solved):
        _, _, hist = solved
        first = hist.iterations[0][1]
        last = hist.iterations[-1][1]
        assert np.max(last / first) <= 1e-6

    def test_solution_is_physical(self, solved):
        _, w, _ = solved
        assert np.all(w[:, 0] > 0.0)
        assert np.all(w[:, 4] > 0.0)

    def test_error_well_below_initial_offset(self, solved):
        p, w, _ = solved
        err = verify.l1_error(w, p.exact)
        init_err = verify.l1_error(p.initial_state(), p.exact)
        assert np.all(err < 0.05 * init_err)

    def test_pinned_cells_keep_exact_values(self, solved):
        p, w, _ = solved
        assert np.array_equal(w[p.pinned], p.exact[p.pinned])


def ns3d_problem(n, seed, perturbation=0.2, strategy="arithmetic"):
    m = mesh.generate_tet_mesh(n, perturbation=perturbation, seed=seed)
    return ns3d.NS3DProblem(m, Strategy.from_name(strategy))


class TestNewtonKrylov3D:
    def test_jacobian_free_product_matches_central_difference(self):
        p = ns3d_problem(3, seed=31)
        rng = np.random.default_rng(1)
        w = p.exact.copy()
        free = ~p.pinned
        w[free] *= 1.0 + 0.01 * rng.standard_normal(w[free].shape)
        u = physics.prim_to_cons(w).ravel()

        def residual(x):
            return ns3d.residual_ns3d(
                p, p.pin(physics.cons_to_prim(x.reshape(-1, 5)))).ravel()

        matvec = solver._matvec_ns3d(p, w, ns3d.residual_ns3d(p, w))
        pinned_rows = np.repeat(p.pinned, 5)
        for _ in range(3):
            v = rng.standard_normal(u.size)
            jv = matvec(v)
            h = 1e-4
            ref = (residual(u + h * v) - residual(u - h * v)) / (2 * h)
            assert (np.linalg.norm(jv[~pinned_rows] - ref[~pinned_rows])
                    <= 1e-6 * np.linalg.norm(ref[~pinned_rows]))
            assert np.array_equal(jv[pinned_rows], v[pinned_rows])

    def test_exact_start_takes_a_newton_step(self):
        # the exact state already lies 3 orders below the free-stream
        # residual; reporting it would give zero errors
        p = ns3d_problem(3, seed=31)
        w, hist = solver.solve_ns3d(
            p, dataclasses.replace(solver.NS3D_CONFIG, target_drop=3.0))
        assert hist.iterations[-1][0] >= 1
        assert np.all(verify.l1_error(w, p.exact) > 0.0)

    def test_default_solve_agrees_with_a_tight_solve(self):
        p = ns3d_problem(4, seed=5)
        w, _ = solver.solve_ns3d(p)
        tight, _ = solver.solve_ns3d(
            p, dataclasses.replace(solver.NS3D_CONFIG, target_drop=12.0))
        err = verify.l1_error(w, p.exact)
        ref = verify.l1_error(tight, p.exact)
        assert np.all(np.abs(err - ref) <= 2e-4 * ref)

    def test_a_rejected_step_ends_the_solve(self, monkeypatch):
        # no pseudo-time backoff: the first bad step raises
        p = ns3d_problem(3, seed=31)
        attempts = []

        def nan_step(matvec, precond, rhs):
            attempts.append(rhs.size)
            return np.full(rhs.size, np.nan)

        monkeypatch.setattr(solver, "_krylov_step", nan_step)
        with pytest.raises(solver.NonConvergenceError,
                           match="Newton step rejected") as exc:
            solver.solve_ns3d(p)
        assert len(attempts) == 1
        assert [row[0] for row in exc.value.history.iterations] == \
            ["reference", 0]

    @pytest.mark.parametrize("lag,builds", [(1, 3), (2, 2), (8, 1)])
    def test_preconditioner_is_rebuilt_every_lag_steps(self, monkeypatch,
                                                        lag, builds):
        p = ns3d_problem(4, seed=5)
        calls = []
        jacobian = solver._jacobian_ns3d

        def counted(problem, w):
            calls.append(w)
            return jacobian(problem, w)

        monkeypatch.setattr(solver, "_jacobian_ns3d", counted)
        _, hist = solver.solve_ns3d(p, dataclasses.replace(
            solver.NS3D_CONFIG, target_drop=12.0, jacobian_lag=lag))
        assert hist.iterations[-1][0] == 3
        assert len(calls) == builds

    def test_history_records_no_pseudo_time(self, tmp_path):
        p = ns3d_problem(3, seed=31)
        _, hist = solver.solve_ns3d(p)
        assert [cfl for *_, cfl in hist.iterations] == \
            [np.inf] * len(hist.iterations)
        rc = cli.main(["solve", "--problem", "ns3d", "--grids", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        rows = (tmp_path / "history.csv").read_text().splitlines()[2:]
        assert rows and all(r.rsplit(",", 1)[1] == "inf" for r in rows)

    @pytest.mark.parametrize("error", STEP_ERRORS)
    def test_each_step_error_ends_the_solve(self, monkeypatch, error):
        p = ns3d_problem(3, seed=31)
        residual = ns3d.residual_ns3d
        steps = []

        def zero_step(matvec, precond, rhs):
            steps.append(rhs.size)
            return np.zeros_like(rhs)

        def failing(problem, w):
            if steps:
                raise error("off the state space")
            return residual(problem, w)

        monkeypatch.setattr(solver, "_krylov_step", zero_step)
        monkeypatch.setattr(ns3d, "residual_ns3d", failing)
        with pytest.raises(solver.NonConvergenceError,
                           match=f"Newton step rejected: {error.__name__}"):
            solver.solve_ns3d(p)
        assert len(steps) == 1

    def test_an_update_that_leaves_the_physical_states_is_rejected(
            self, monkeypatch):
        # an update of -1.5 times the conserved state leaves -0.5 times it,
        # negative densities that one halving would have made positive
        p = ns3d_problem(3, seed=31)
        u = physics.prim_to_cons(p.exact).ravel()
        monkeypatch.setattr(solver, "_krylov_step",
                            lambda matvec, precond, rhs: -1.5 * u)
        with pytest.raises(solver.NonConvergenceError,
                           match="Newton step rejected: SolverDivergenceError"
                                 ": the Newton update leaves the physical "
                                 "states"):
            solver.solve_ns3d(p)

    def test_a_residual_rise_is_rejected(self, monkeypatch):
        # a physical step that scales every conserved variable by 1.1
        p = ns3d_problem(3, seed=31)
        u = physics.prim_to_cons(p.exact).ravel()
        monkeypatch.setattr(solver, "_krylov_step",
                            lambda matvec, precond, rhs: 0.1 * u)
        with pytest.raises(solver.NonConvergenceError,
                           match="Newton step rejected: residual rose"):
            solver.solve_ns3d(p)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_capped_history_is_a_prefix_of_the_uncapped_one(self, cap):
        p = ns3d_problem(4, seed=5)
        cfg = dataclasses.replace(solver.NS3D_CONFIG, target_drop=12.0)
        _, full = solver.solve_ns3d(p, cfg)
        with pytest.raises(solver.NonConvergenceError,
                           match=f"not reached in {cap} iterations") as exc:
            solver.solve_ns3d(p, dataclasses.replace(cfg, max_iterations=cap))
        capped = exc.value.history.iterations
        assert len(capped) == cap + 2       # the reference row, then 0..cap
        for (it, norms, cfl), (it_ref, norms_ref, cfl_ref) in zip(
                capped, full.iterations[:cap + 2], strict=True):
            assert it == it_ref and cfl == cfl_ref
            assert np.array_equal(norms, norms_ref)

    def test_target_reached_on_the_last_allowed_step(self):
        p = ns3d_problem(4, seed=5)
        cfg = dataclasses.replace(solver.NS3D_CONFIG, target_drop=12.0)
        w, hist = solver.solve_ns3d(p, cfg)
        capped, _ = solver.solve_ns3d(
            p, dataclasses.replace(cfg, max_iterations=hist.iterations[-1][0]))
        assert np.array_equal(capped, w)

    def test_reference_row_holds_the_free_stream_norms(self):
        p = ns3d_problem(3, seed=31)
        _, hist = solver.solve_ns3d(p)
        label, norms, _ = hist.iterations[0]
        res = ns3d.residual_ns3d(p, p.initial_state())
        assert label == "reference"
        assert np.array_equal(norms, np.abs(res[~p.pinned]).mean(axis=0))

    def test_deterministic(self):
        a, _ = solver.solve_ns3d(ns3d_problem(3, seed=31))
        b, _ = solver.solve_ns3d(ns3d_problem(3, seed=31))
        assert np.array_equal(a, b)


class TestThinLayerJacobian:
    def test_jacobian_shape_and_pinned_rows(self):
        m = mesh.generate_tet_mesh(2, perturbation=0.0, seed=0)
        p = ns3d.NS3DProblem(m, Strategy.from_name("arithmetic"))
        w = p.initial_state()
        jac = solver._jacobian_ns3d(p, w)
        nc = m.n_cells
        assert jac.shape == (5 * nc, 5 * nc)
        pinned_cells = np.flatnonzero(p.pinned)
        for c in pinned_cells[:3]:
            row = jac.tocsr()[5 * c].toarray().ravel()
            expect = np.zeros(5 * nc)
            expect[5 * c] = 1.0
            assert np.array_equal(row, expect)

    def test_prim_from_cons_jacobian_matches_fd(self):
        rng = np.random.default_rng(9)
        w = np.array([[1.1, 0.25, -0.1, 0.3, 0.9]])
        m = solver._prim_from_cons_jacobian(w)[0]
        u0 = physics.prim_to_cons(w)
        eps = 1e-7
        for col in range(5):
            du = np.zeros_like(u0)
            du[0, col] = eps
            fd = (physics.cons_to_prim(u0 + du)
                  - physics.cons_to_prim(u0 - du))[0] / (2 * eps)
            assert np.abs(m[:, col] - fd).max() < 1e-6


def coo_jacobian_ns3d(problem, w, cfl):
    """The scalar COO assembly of ``solver._jacobian_ns3d`` that preceded
    the block assembly, kept as an oracle: 25 scalar triples per block,
    converted to CSR."""
    mesh = problem.mesh
    nc = mesh.n_cells
    o, k = problem.f_owner, problem.f_neighbor
    area = problem.f_area
    nhat = problem.f_nhat.T
    wf = 0.5 * (w[o] + w[k])
    lam_c = np.abs(np.einsum("fd,fd->f", wf[:, 1:4], nhat)) + \
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
    visc = area[:, None, None] * np.einsum(
        "fij,fjk->fik", c, solver._prim_from_cons_jacobian(wf))

    eye = np.eye(5)
    a_o = physics.inviscid_flux_jacobian(w[o], nhat)
    a_k = physics.inviscid_flux_jacobian(w[k], nhat)
    blk_o = 0.5 * area[:, None, None] * (a_o + lam_c[:, None, None] * eye) \
        + visc
    blk_k = 0.5 * area[:, None, None] * (a_k - lam_c[:, None, None] * eye) \
        - visc

    unpinned = ~problem.pinned
    rows_ok = unpinned[o]
    rows_ko = unpinned[k]
    block_rows = [o[rows_ok], o[rows_ok], k[rows_ko], k[rows_ko]]
    block_cols = [o[rows_ok], k[rows_ok], o[rows_ko], k[rows_ko]]
    blocks = [blk_o[rows_ok], blk_k[rows_ok], -blk_o[rows_ko], -blk_k[rows_ko]]

    lam_sum = abs(problem.f_incidence) @ lam
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


class TestBlockJacobian3D:
    """``_jacobian_ns3d`` assembles 5x5 BSR blocks directly; the scalar COO
    assembly above is the oracle.  The sums are regrouped, so the data
    agree to a tolerance, while the block pattern (and with it the
    Gauss-Seidel coloring) must be identical."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("strategy", ["arithmetic", "lr-average",
                                          "inverse-distance"])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_matches_the_coo_assembly(self, n, strategy, perturbed):
        p = ns3d_problem(n, seed=n, strategy=strategy)
        w = p.exact.copy()
        if perturbed:
            rng = np.random.default_rng(n)
            free = ~p.pinned
            w[free] *= 1.0 + 0.05 * rng.standard_normal(w[free].shape)
        got = solver._jacobian_ns3d(p, w)
        # CFL inf: the oracle's pseudo-time diagonal is exactly 0
        ref = coo_jacobian_ns3d(p, w, np.inf).tobsr(blocksize=(5, 5))

        assert got.format == "bsr" and got.blocksize == (5, 5)
        assert got.shape == ref.shape
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        scale = np.abs(ref.data).max()
        assert np.abs(got.data - ref.data).max() <= 1e-13 * scale

        for c in np.flatnonzero(p.pinned):
            start, end = got.indptr[c], got.indptr[c + 1]
            assert got.indices[start:end].tolist() == [c]
            assert np.array_equal(got.data[start], np.eye(5))

        lin, lin_ref = (solver._LinearSolver(m, 30) for m in (got, ref))
        assert np.array_equal(lin._order, lin_ref._order)
        assert [c[:2] for c in lin._colors] == \
            [c[:2] for c in lin_ref._colors]
