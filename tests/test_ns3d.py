"""3D Navier-Stokes manufactured solution: oracles and residual structure."""

import copy
import os
import subprocess
import sys

import numpy as np
import pytest

import fvvisc
from fvvisc import invariants, mesh, ns3d, physics
from fvvisc.recon import Strategy


@pytest.fixture(scope="module")
def small_mesh():
    return mesh.generate_tet_mesh(3, perturbation=0.2, seed=21)


@pytest.fixture(scope="module")
def problem(small_mesh):
    return ns3d.NS3DProblem(small_mesh, Strategy.from_name("arithmetic"))


def unpinned(problem):
    """A copy of problem with no pinned cells: its residual is the raw
    assembled one."""
    q = copy.copy(problem)
    q.pinned = np.zeros_like(problem.pinned)
    return q


class TestManufacturedState:
    def test_state_at_origin(self):
        w = ns3d.mms_state(np.zeros((1, 3)))[0]
        expect = np.array([1.0, 0.3, 0.2, 0.1, 1.0]) + 0.1
        assert np.abs(w - expect).max() < 1e-15

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.05, 0.45, (20, 3))
        g = ns3d.mms_gradients(pts)
        h = 1e-6
        for d in range(3):
            qp, qm = pts.copy(), pts.copy()
            qp[:, d] += h
            qm[:, d] -= h
            fd = (ns3d.mms_state(qp) - ns3d.mms_state(qm)) / (2.0 * h)
            assert np.abs(g[..., d] - fd).max() < 1e-8

    def test_state_positive_in_the_domain(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 0.5, (500, 3))
        w = ns3d.mms_state(pts)
        assert np.all(w[:, 0] > 0.0)
        assert np.all(w[:, 4] > 0.0)


class TestForcingOracle:
    def test_forcing_matches_fd_flux_divergence(self):
        # independent oracle: the closed-form forcing against a 4th-order
        # finite-difference divergence of the numerically composed flux
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.05, 0.45, (100, 3))
        f = ns3d.mms_forcing(pts)
        fd = invariants._fd_flux_divergence(pts)
        rel = np.abs(f - fd).max() / np.abs(f).max()
        assert rel < 1e-7

    def test_total_flux_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.05, 0.45, (2, 3, 3))
        flat = ns3d.mms_total_flux(pts.reshape(6, 3))
        assert flat.shape == (6, 3, 5)
        assert np.array_equal(ns3d.mms_total_flux(pts),
                              flat.reshape(2, 3, 3, 5))

    def test_forcing_deterministic(self):
        pts = np.array([[0.1, 0.2, 0.3]])
        a = ns3d.mms_forcing(pts)
        b = ns3d.mms_forcing(pts)
        assert np.array_equal(a, b)

    def test_no_computer_algebra_at_run_time(self):
        # a fresh interpreter, so that no other test's imports count
        code = ("import sys\n"
                "from fvvisc import mesh, ns3d\n"
                "from fvvisc.recon import Strategy\n"
                "p = ns3d.NS3DProblem(mesh.generate_tet_mesh(2, seed=1),\n"
                "                     Strategy.from_name('arithmetic'))\n"
                "ns3d.mms_forcing(p.mesh.cell_centroid)\n"
                "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
        # the child imports the same fvvisc, also when only pytest's
        # pythonpath setting put it on this process's path
        src = os.path.dirname(os.path.dirname(fvvisc.__file__))
        path = os.pathsep.join(filter(None, (src,
                                             os.environ.get("PYTHONPATH"))))
        run = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path))
        assert run.returncode == 0, run.stderr


class TestResidual:
    def test_free_stream_preservation(self, problem, small_mesh):
        # the face fluxes of a uniform state cancel: every unpinned cell's
        # residual is minus its source alone
        w = np.tile([1.0, 0.3, 0.2, 0.1, 1.0], (small_mesh.n_cells, 1))
        res = ns3d.residual_ns3d(problem, w) + problem.source
        assert np.abs(res[~problem.pinned]).max() < 1e-13

    def test_pinned_cells_zeroed(self, problem):
        res = ns3d.residual_ns3d(problem, problem.initial_state())
        assert np.abs(res[problem.pinned]).max() == 0.0

    def test_unclosed_residual_telescopes(self, problem, small_mesh):
        # the raw residual, of a problem with no pinned cells, telescopes:
        # its sum over all cells equals minus the total forcing
        w = ns3d.mms_state(small_mesh.cell_centroid)
        res = ns3d.residual_ns3d(unpinned(problem), w)
        total_forcing = (problem.forcing
                         * small_mesh.cell_volume[:, None]).sum(axis=0)
        assert np.abs(res.sum(axis=0) + total_forcing).max() < 1e-10

    def test_residual_deterministic(self, problem):
        w = problem.initial_state()
        a = ns3d.residual_ns3d(problem, w)
        b = ns3d.residual_ns3d(problem, w)
        assert np.array_equal(a, b)

    def test_exact_solution_nearly_annihilates_the_residual(self):
        # Note: the per-volume truncation error of the scheme does NOT
        # converge on tetrahedral meshes (only the solution error does),
        # so the meaningful check is that the exact solution leaves a much
        # smaller residual than a zeroth-order guess on the same mesh.
        m = mesh.generate_tet_mesh(4, perturbation=0.2, seed=3)
        p = ns3d.NS3DProblem(m, Strategy.from_name("arithmetic"))
        r_exact = np.abs(ns3d.residual_ns3d(p, p.exact)).mean()
        r_init = np.abs(ns3d.residual_ns3d(p, p.initial_state())).mean()
        assert r_exact < 0.05 * r_init

    def test_unphysical_state_raises(self, problem, small_mesh):
        w = problem.initial_state()
        w[~problem.pinned, 4] = -1.0
        with pytest.raises((physics.NonpositiveTemperatureError,
                            physics.InvalidStateError)):
            ns3d.residual_ns3d(problem, w)

    def test_pin_writes_exact_into_pinned_cells_only(self, problem,
                                                     small_mesh):
        assert np.array_equal(problem.pinned, small_mesh.boundary_cell)
        assert problem.pinned.any() and not problem.pinned.all()
        v = np.random.default_rng(5).uniform(0.5, 1.5, problem.exact.shape)
        w = v.copy()
        assert problem.pin(w) is w
        assert np.array_equal(w[problem.pinned],
                              problem.exact[problem.pinned])
        assert w[~problem.pinned].tobytes() == v[~problem.pinned].tobytes()

    def test_initial_state_is_free_stream_with_pinned_exact(self, problem):
        w0 = problem.initial_state()
        assert np.array_equal(w0[problem.pinned],
                              problem.exact[problem.pinned])
        inner = ~problem.pinned
        assert np.abs(w0[inner] - [1.0, 0.3, 0.2, 0.1, 1.0]).max() == 0.0


class TestStaticFaceGeometry:
    def test_face_geometry_matches_mesh(self, problem, small_mesh):
        # offsets, their lengths and the projected centroid distance,
        # derived face by face from the mesh arrays
        m = small_mesh
        faces = m.interior_faces
        x_o = m.cell_centroid[m.face_owner[faces]]
        x_k = m.cell_centroid[m.face_neighbor[faces]]
        x_f = m.face_centroid[faces]
        nhat = m.face_normal[faces] / m.face_area[faces, None]
        assert np.array_equal(problem.f_nhat.T, nhat)
        for got, x_c in zip(problem.f_offset, (x_o, x_k)):
            assert np.array_equal(got.T, x_f - x_c)
        for got, x_c in zip(problem.f_dist, (x_o, x_k)):
            assert got.shape == (len(faces),)
            expect = [np.sqrt(np.dot(d, d)) for d in x_f - x_c]
            assert np.allclose(got, expect, rtol=1e-14, atol=0.0)
        expect = [np.dot(d, n) for d, n in zip(x_k - x_o, nhat)]
        assert np.allclose(problem.f_dn, expect, rtol=1e-13, atol=1e-16)
        # owner-to-neighbor orientation: every centroid distance is positive
        assert np.all(problem.f_dn > 0.0)
