"""1D nonlinear diffusion problem: oracles and residual structure."""

import copy

import numpy as np
import pytest

from fvvisc import diffusion1d, mesh, recon
from fvvisc.recon import Strategy


def make_problem(n=15, strategy="arithmetic", perturbation=0.3, seed=0):
    g = mesh.generate_grid_1d(n, perturbation=perturbation, seed=seed)
    return diffusion1d.Diffusion1DProblem(g, Strategy.from_name(strategy))


def unpinned(problem):
    """A copy of problem with no pinned cells: its residual is the raw
    assembled one."""
    q = copy.copy(problem)
    q.pinned = np.zeros_like(problem.pinned)
    return q


def face_viscosity(grid, strategy, u):
    """nu_{j+1/2} = face value of u^2, from the inputs ``face_fluxes`` uses."""
    x, xf = grid.cell_centers, grid.face_coords
    gx = recon.gradient_1d(grid, u)
    u_l = u[:-1] + gx[:-1] * (xf - x[:-1])
    u_r = u[1:] + gx[1:] * (xf - x[1:])
    return recon.face_scalar(strategy, u[:-1] ** 2, u[1:] ** 2, u_l ** 2,
                             u_r ** 2, xf - x[:-1], x[1:] - xf)


class TestManufacturedSolution:
    def test_exact_solution_values(self):
        assert diffusion1d.exact_solution(0.0) == 1.0
        assert abs(diffusion1d.exact_solution(0.5) - np.e) < 1e-15

    def test_forcing_matches_flux_divergence(self):
        # f = -d/dx(nu u_x) with nu = u^2: checked against a 4th-order
        # finite difference of the analytic flux 2 exp(6x)
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, 50)
        h = 1e-4
        flux = lambda x: (diffusion1d.exact_solution(x) ** 2
                          * 2.0 * diffusion1d.exact_solution(x))
        div = (-flux(x + 2 * h) + 8 * flux(x + h)
               - 8 * flux(x - h) + flux(x - 2 * h)) / (12 * h)
        f = diffusion1d.forcing(x)
        assert np.abs(f + div).max() / np.abs(f).max() < 1e-10


class TestResidual:
    def test_pinned_cells_have_zero_residual(self):
        p = make_problem()
        res = diffusion1d.residual_1d(p, p.initial_state())
        assert res[0] == 0.0
        assert res[-1] == 0.0

    def test_unclosed_residual_telescopes(self):
        # interior fluxes cancel pairwise, so the raw residual sums to
        # minus the total forcing
        p = make_problem(n=21, seed=3)
        u = diffusion1d.exact_solution(p.grid.cell_centers) * 1.07
        res = diffusion1d.residual_1d(unpinned(p), u)
        total_forcing = (p.forcing * p.grid.cell_volumes).sum()
        assert abs(res.sum() + total_forcing) < 1e-10

    def test_truncation_error_shrinks_under_refinement(self):
        norms = []
        for n in (16, 32, 64):
            p = make_problem(n=n, perturbation=0.0)
            ue = diffusion1d.exact_solution(p.grid.cell_centers)
            res = diffusion1d.residual_1d(p, ue)
            norms.append(np.abs(res).mean())
        assert norms[1] < 0.3 * norms[0]
        assert norms[2] < 0.3 * norms[1]

    def test_strategies_produce_different_residuals(self):
        res = {}
        for s in ("arithmetic", "one-sided-left", "one-sided-right",
                  "lr-average", "inverse-distance"):
            p = make_problem(n=9, strategy=s, seed=6)
            u = diffusion1d.exact_solution(p.grid.cell_centers)
            res[s] = diffusion1d.residual_1d(p, u)
        assert np.abs(res["arithmetic"] - res["one-sided-left"]).max() > 1e-6
        assert np.abs(res["one-sided-left"] - res["one-sided-right"]).max() > 1e-6

    def test_one_sided_viscosities_pick_cell_values(self):
        g = mesh.generate_grid_1d(7, perturbation=0.0)
        u = diffusion1d.exact_solution(g.cell_centers)
        left = face_viscosity(g, Strategy("one-sided-left"), u)
        right = face_viscosity(g, Strategy("one-sided-right"), u)
        assert np.array_equal(left, u[:-1] ** 2)
        assert np.array_equal(right, u[1:] ** 2)

    def test_constant_state_viscosity_strategy_independent(self):
        g = mesh.generate_grid_1d(9, seed=7)
        u = np.full(9, 1.7)
        for s in ("arithmetic", "lr-average", "inverse-distance",
                  "one-sided-left", "one-sided-right"):
            nu = face_viscosity(g, Strategy.from_name(s), u)
            assert np.abs(nu - 1.7 ** 2).max() < 1e-12


class TestStackedStates:
    """A (k, n) stack of states gives k rows bit-identical to k single-state
    calls; the solver's Jacobian relies on it."""

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 31])
    @pytest.mark.parametrize("strategy", [
        "lr-average", "arithmetic", "inverse-distance", "one-sided-left",
        "one-sided-right", "weighted:0.75", "weighted:1"])
    def test_rows_equal_single_calls(self, strategy, n):
        p = make_problem(n=n, strategy=strategy, seed=n)
        q = unpinned(p)
        rng = np.random.default_rng(n)
        ue = diffusion1d.exact_solution(p.grid.cell_centers)
        states = ue * (1.0 + 0.1 * rng.standard_normal((4, n)))
        stacked = {
            "gradient": recon.gradient_1d(p.grid, states),
            "closed": diffusion1d.residual_1d(p, states),
            "open": diffusion1d.residual_1d(q, states),
        }
        assert all(a.shape == states.shape for a in stacked.values())
        for i, u in enumerate(states):
            assert np.array_equal(stacked["gradient"][i],
                                  recon.gradient_1d(p.grid, u))
            assert np.array_equal(stacked["closed"][i],
                                  diffusion1d.residual_1d(p, u))
            assert np.array_equal(stacked["open"][i],
                                  diffusion1d.residual_1d(q, u))


def reference_gradient(grid, u):
    """Slice-form central differences with one-sided ends, written into a
    fresh array: the reference for ``recon.gradient_1d``'s gather form."""
    x = grid.cell_centers
    g = np.empty(np.shape(u))
    g[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (x[2:] - x[:-2])
    g[..., 0] = (u[..., 1] - u[..., 0]) / (x[1] - x[0])
    g[..., -1] = (u[..., -1] - u[..., -2]) / (x[-1] - x[-2])
    return g


def reference_residual(problem, u):
    """Face fluxes from ``reference_gradient``, assembled into a zero-filled
    array: the reference for ``residual_1d``'s one-pass assembly."""
    d_j, d_k = problem.f_dist
    gx = reference_gradient(problem.grid, u)
    uj, uk = u[..., :-1], u[..., 1:]
    gj, gk = gx[..., :-1], gx[..., 1:]
    u_l = uj + gj * d_j
    u_r = uk - gk * d_k
    dudx_f = recon.face_derivative_1d(gj, gk, u_l, u_r, problem.f_spacing)
    nu = recon.face_scalar(problem.strategy, uj ** 2, uk ** 2, u_l ** 2,
                           u_r ** 2, d_j, d_k)
    phi = nu * dudx_f
    res = np.zeros(np.shape(u))
    res[..., :-1] -= phi
    res[..., 1:] += phi
    res -= problem.source
    res[..., problem.pinned] = 0.0
    return res


class TestAgainstReference:
    """The gather-form gradient and the one-pass residual assembly are
    bit-identical to the slice-form, zero-filled references above."""

    @pytest.mark.parametrize("n", [3, 4, 7, 31])
    @pytest.mark.parametrize("strategy", [
        "lr-average", "arithmetic", "inverse-distance", "one-sided-left",
        "one-sided-right", "weighted:0.75"])
    def test_bit_identical_to_reference(self, strategy, n):
        p = make_problem(n=n, strategy=strategy, seed=n + 1)
        rng = np.random.default_rng(n + 1)
        ue = diffusion1d.exact_solution(p.grid.cell_centers)
        stack = ue * (1.0 + 0.1 * rng.standard_normal((6, n)))
        for u in (stack, stack[2]):
            got = recon.gradient_1d(p.grid, u)
            ref = reference_gradient(p.grid, u)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)
            for q in (p, unpinned(p)):
                got = diffusion1d.residual_1d(q, u)
                ref = reference_residual(q, u)
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)


class TestClosure:
    def test_pin_writes_exact_into_pinned_cells_only(self):
        p = make_problem(n=9, seed=8)
        assert np.array_equal(np.flatnonzero(p.pinned), [0, 8])
        v = np.random.default_rng(8).uniform(-1.0, 1.0, 9)
        u = v.copy()
        assert p.pin(u) is u
        x = p.grid.cell_centers
        assert u[0] == diffusion1d.exact_solution(x[0])
        assert u[-1] == diffusion1d.exact_solution(x[-1])
        assert u[1:-1].tobytes() == v[1:-1].tobytes()

    def test_initial_state_respects_boundaries(self):
        p = make_problem(n=13, seed=9)
        u0 = p.initial_state()
        x = p.grid.cell_centers
        assert u0[0] == diffusion1d.exact_solution(x[0])
        assert u0[-1] == diffusion1d.exact_solution(x[-1])
        # interior is the linear interpolant: second differences vanish
        d2 = np.diff(u0) / np.diff(x)
        assert np.abs(np.diff(d2)).max() < 1e-12
