"""Defect-correction solver: convergence, termination, and error paths."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import root

from fvvisc import diffusion1d, mesh, ns3d, solver, verify
from fvvisc.recon import Strategy


def make_1d(n=11, strategy="arithmetic", seed=0):
    g = mesh.generate_grid_1d(n, seed=seed)
    return diffusion1d.Diffusion1DProblem(g, Strategy.from_name(strategy))


class TestSolverConfig:
    def test_defaults_valid(self):
        solver.SolverConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            solver.SolverConfig(target_drop=0.0)
        with pytest.raises(ValueError):
            solver.SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            solver.SolverConfig(jacobian_lag=0)


class TestDiffusion1DSolve:
    def test_converges_to_the_hybr_root(self):
        p = make_1d(n=13, seed=2)
        u, _ = solver.solve_diffusion_1d(
            p, solver.SolverConfig(target_drop=10.0))
        fun = lambda v: diffusion1d.residual_1d(
            p, diffusion1d.apply_boundary_closure(p, v))
        ref = diffusion1d.apply_boundary_closure(
            p, root(fun, diffusion1d.exact_solution(p.grid.cell_centers),
                    method="hybr", tol=1e-13).x)
        assert np.abs(fun(ref)).max() < 1e-9      # reference is a true root
        assert np.abs(u - ref).max() < 1e-7

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
    return diffusion1d.apply_boundary_closure(
        problem, ue * (1.0 + 0.1 * rng.standard_normal(ue.size)))


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
            ref = dense_jacobian_1d(p, u, cfl)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr))

    @pytest.mark.parametrize("n", [7, 127])
    def test_one_build_costs_six_residuals(self, monkeypatch, n):
        p = make_1d(n=n, seed=1)
        u = perturbed_state(p, seed=1)
        calls = []
        original = diffusion1d.residual_1d

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diffusion1d, "residual_1d", counted)
        solver._jacobian_1d(p, u, 10.0)
        assert len(calls) == 6     # base state plus one per color


class TestLinearSolver:
    def test_gauss_seidel_matches_direct_on_diagonally_dominant(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 40)) * 0.1
        np.fill_diagonal(a, 5.0 + rng.uniform(0, 1, 40))
        rhs = rng.normal(size=40)
        direct = solver._LinearSolver(sp.csr_matrix(a), 0).solve(rhs)
        gs = solver._LinearSolver(sp.csr_matrix(a), 60).solve(rhs)
        assert np.abs(gs - direct).max() < 1e-10


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


class TestThinLayerJacobian:
    def test_jacobian_shape_and_pinned_rows(self):
        m = mesh.generate_tet_mesh(2, perturbation=0.0, seed=0)
        p = ns3d.NS3DProblem(m, Strategy.from_name("arithmetic"))
        w = p.initial_state()
        jac = solver._jacobian_ns3d(p, w, cfl=10.0)
        nc = m.n_cells
        assert jac.shape == (5 * nc, 5 * nc)
        pinned_cells = np.flatnonzero(p.pinned)
        for c in pinned_cells[:3]:
            row = jac[5 * c].toarray().ravel()
            expect = np.zeros(5 * nc)
            expect[5 * c] = 1.0
            assert np.array_equal(row, expect)

    def test_prim_from_cons_jacobian_matches_fd(self):
        from fvvisc import physics
        cfg = physics.FlowConfig()
        rng = np.random.default_rng(9)
        w = np.array([[1.1, 0.25, -0.1, 0.3, 0.9]])
        m = solver._prim_from_cons_jacobian(w, cfg)[0]
        u0 = physics.prim_to_cons(w, cfg)
        eps = 1e-7
        for col in range(5):
            du = np.zeros_like(u0)
            du[0, col] = eps
            fd = (physics.cons_to_prim(u0 + du, cfg)
                  - physics.cons_to_prim(u0 - du, cfg))[0] / (2 * eps)
            assert np.abs(m[:, col] - fd).max() < 1e-6
