"""Navier-Stokes flux algebra: consistency, symmetry, and Jacobians."""

import numpy as np
import pytest

from fvvisc import physics


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    w = np.empty((n, 5))
    w[:, 0] = rng.uniform(0.8, 1.3, n)
    w[:, 1:4] = rng.uniform(-0.5, 0.5, (n, 3))
    w[:, 4] = rng.uniform(0.8, 1.3, n)
    return w


def random_normals(n, seed=1):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFlowConfig:
    def test_defaults(self):
        # the flow condition is fixed: module constants of physics
        assert physics.MACH == 0.1
        assert physics.REYNOLDS == 0.1
        assert physics.T_REF == 300.0
        assert physics.SUTHERLAND_C == 110.5
        assert physics.GAMMA == 1.4
        assert physics.PRANDTL == 0.72


class TestStateConversions:
    def test_roundtrip(self):
        w = random_states(64)
        back = physics.cons_to_prim(physics.prim_to_cons(w))
        assert np.abs(back - w).max() < 1e-13

    def test_pressure_equation_of_state(self):
        w = np.array([[1.2, 0.0, 0.0, 0.0, 0.7]])
        assert abs(physics.pressure(w)[0] - 1.2 * 0.7 / 1.4) < 1e-15


class TestSutherland:
    def test_reference_value_exact(self):
        mu = physics.sutherland_viscosity(np.array([1.0]))[0]
        assert mu == physics.MACH / physics.REYNOLDS

    def test_monotone_increasing_near_reference(self):
        t = np.linspace(0.5, 2.0, 20)
        mu = physics.sutherland_viscosity(t)
        assert np.all(np.diff(mu) > 0.0)

    def test_nonpositive_temperature_raises(self):
        with pytest.raises(physics.NonpositiveTemperatureError):
            physics.sutherland_viscosity(np.array([0.0]))


class TestViscousFlux:
    def test_zero_for_constant_state(self):
        n = 8
        flux = physics.viscous_normal_flux(
            np.zeros((3, 3, n)), np.zeros((3, n)),
            np.tile([0.3, 0.2, 0.1], (n, 1)).T, np.ones(n),
            random_normals(n).T)
        assert np.abs(flux).max() == 0.0

    def test_no_mass_diffusion(self):
        rng = np.random.default_rng(3)
        flux = physics.viscous_normal_flux(
            rng.normal(size=(4, 3, 3)).transpose(1, 2, 0),
            rng.normal(size=(4, 3)).T, rng.normal(size=(4, 3)).T, np.ones(4),
            random_normals(4).T)
        assert np.abs(flux[0]).max() == 0.0

    def test_stress_is_traceless_plus_divergence(self):
        # pure shear du/dy: tau.n for n = y-hat must be mu * du/dy in x
        grad_v = np.zeros((1, 3, 3))
        grad_v[0, 0, 1] = 2.0  # du/dy
        tau_n = physics.shear_stress_normal(grad_v.transpose(1, 2, 0),
                                            np.array([0.5]),
                                            np.array([[0.0, 1.0, 0.0]]).T)
        assert np.allclose(tau_n.T, [[1.0, 0.0, 0.0]], atol=1e-15)

    def test_dilatation_gives_deviatoric_stress(self):
        grad_v = np.eye(3)[None, :, :]  # div v = 3
        tau_n = physics.shear_stress_normal(grad_v.transpose(1, 2, 0),
                                            np.array([1.0]),
                                            np.array([[1.0, 0.0, 0.0]]).T)
        # tau_xx = 2 - (2/3)*3 = 0
        assert np.abs(tau_n).max() < 1e-15


class TestInviscidFlux:
    def test_mass_flux(self):
        w = np.array([[1.1, 0.4, 0.0, 0.0, 0.9]])
        n = np.array([[1.0, 0.0, 0.0]])
        f = physics.inviscid_normal_flux(w.T, n.T).T
        assert abs(f[0, 0] - 1.1 * 0.4) < 1e-15

    def test_static_state_flux_is_pressure_only(self):
        w = np.array([[1.0, 0.0, 0.0, 0.0, 1.0]])
        n = random_normals(1, seed=9)
        f = physics.inviscid_normal_flux(w.T, n.T).T
        p = physics.pressure(w)[0]
        assert np.allclose(f[0, 1:4], p * n[0], atol=1e-15)
        assert abs(f[0, 0]) < 1e-15
        assert abs(f[0, 4]) < 1e-15


class TestRoeFlux:
    def test_consistency(self):
        w = random_states(32, seed=5)
        n = random_normals(32, seed=6)
        f = physics.roe_flux(w.T, w.T, n.T)
        exact = physics.inviscid_normal_flux(w.T, n.T)
        assert np.abs(f - exact).max() < 1e-13

    def test_rotation_antisymmetry(self):
        # flipping the normal and swapping the states negates the flux
        wl = random_states(16, seed=7)
        wr = random_states(16, seed=8)
        n = random_normals(16, seed=9)
        a = physics.roe_flux(wl.T, wr.T, n.T)
        b = physics.roe_flux(wr.T, wl.T, -n.T)
        assert np.abs(a + b).max() < 1e-12

    def test_supersonic_upwinding(self):
        # both states supersonic to the right: flux equals the left flux
        wl = np.array([[1.0, 3.0, 0.0, 0.0, 1.0]])
        wr = np.array([[1.1, 3.2, 0.0, 0.0, 1.05]])
        n = np.array([[1.0, 0.0, 0.0]])
        f = physics.roe_flux(wl.T, wr.T, n.T)
        exact = physics.inviscid_normal_flux(wl.T, n.T)
        assert np.abs(f - exact).max() < 1e-12

    def test_dissipation_reduces_to_jump_damping(self):
        # flux of (wl, wr) lies between central flux +- dissipation: check
        # it differs from the central flux when the states differ
        wl = np.array([[1.0, 0.1, 0.0, 0.0, 1.0]])
        wr = np.array([[1.2, 0.1, 0.0, 0.0, 1.1]])
        n = np.array([[1.0, 0.0, 0.0]])
        f = physics.roe_flux(wl.T, wr.T, n.T)
        central = 0.5 * (physics.inviscid_normal_flux(wl.T, n.T)
                         + physics.inviscid_normal_flux(wr.T, n.T))
        assert np.abs(f - central).max() > 1e-4


class TestFluxJacobian:
    def test_matches_finite_differences(self):
        w = random_states(6, seed=11)
        n = random_normals(6, seed=12)
        jac = physics.inviscid_flux_jacobian(w, n)
        u0 = physics.prim_to_cons(w)
        eps = 1e-7
        for col in range(5):
            du = np.zeros_like(u0)
            du[:, col] = eps * np.maximum(1.0, np.abs(u0[:, col]))
            fp = physics.inviscid_normal_flux(
                physics.cons_to_prim(u0 + du).T, n.T).T
            fm = physics.inviscid_normal_flux(
                physics.cons_to_prim(u0 - du).T, n.T).T
            fd = (fp - fm) / (2.0 * du[:, col][:, None])
            assert np.abs(jac[:, :, col] - fd).max() < 1e-6
