"""Gradient reconstruction and face-value strategies."""

import numpy as np
import pytest

from fvvisc import mesh, recon
from fvvisc.recon import Strategy


class TestStrategyParsing:
    @pytest.mark.parametrize("name", ["lr-average", "arithmetic",
                                      "inverse-distance", "one-sided-left",
                                      "one-sided-right"])
    def test_simple_names_roundtrip(self, name):
        assert Strategy.from_name(name).name == name

    def test_weighted_with_omega(self):
        s = Strategy.from_name("weighted:0.75")
        assert s.tag == "weighted"
        assert s.omega == 0.75
        assert s.name == "weighted:0.75"

    def test_bare_weighted_defaults_to_half(self):
        assert Strategy.from_name("weighted").omega == 0.5

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ValueError) as exc:
            Strategy.from_name("harmonic")
        for tag in recon.STRATEGY_TAGS:
            assert tag in str(exc.value)

    def test_omega_out_of_range(self):
        with pytest.raises(ValueError):
            Strategy("weighted", 1.5)


class TestGradient1D:
    def test_exact_for_linear_fields(self):
        g = mesh.generate_grid_1d(12, seed=3)
        u = 3.0 * g.cell_centers - 1.0
        assert np.allclose(recon.gradient_1d(g, u), 3.0, atol=1e-13)

    def test_second_order_interior(self):
        errs = []
        for n in (16, 32):
            g = mesh.generate_grid_1d(n, perturbation=0.0)
            u = np.sin(g.cell_centers)
            grad = recon.gradient_1d(g, u)
            errs.append(np.abs(grad[1:-1] - np.cos(g.cell_centers[1:-1])).max())
        assert np.log2(errs[0] / errs[1]) > 1.8


@pytest.fixture(scope="module")
def m():
    return mesh.generate_tet_mesh(3, perturbation=0.2, seed=13)


class TestLsqGradient3D:
    def test_linear_exactness(self, m):
        coef = np.array([1.5, -0.25, 0.75])
        phi = m.cell_centroid @ coef + 2.0
        grads = recon.lsq_gradient_3d(m, phi)
        assert np.abs(grads - coef).max() < 1e-12

    def test_multicomponent_shape(self, m):
        field = np.stack([m.cell_centroid[:, 0],
                          m.cell_centroid[:, 1] * 2.0], axis=1)
        grads = recon.lsq_gradient_3d(m, field)
        assert grads.shape == (m.n_cells, 2, 3)
        assert np.abs(grads[:, 0, :] - [1.0, 0.0, 0.0]).max() < 1e-12
        assert np.abs(grads[:, 1, :] - [0.0, 2.0, 0.0]).max() < 1e-12

    def test_operator_cached_on_mesh(self, m):
        a = recon._lsq_operator(m)
        b = recon._lsq_operator(m)
        assert a is b


class TestReconstructLR:
    def test_linear_field_gives_matching_face_values(self):
        m = mesh.generate_tet_mesh(3, perturbation=0.2, seed=17)
        coef = np.array([0.3, 1.1, -0.7])
        phi = (m.cell_centroid @ coef)[:, None]
        grads = recon.lsq_gradient_3d(m, phi)
        fi = m.interior_faces
        o, k = m.face_owner[fi], m.face_neighbor[fi]
        xf = m.face_centroid[fi]
        w_l, w_r = recon.reconstruct_lr(phi[o], grads[o], phi[k], grads[k],
                                        xf - m.cell_centroid[o],
                                        xf - m.cell_centroid[k])
        exact = (xf @ coef)[:, None]
        assert np.abs(w_l - exact).max() < 1e-12
        assert np.abs(w_r - exact).max() < 1e-12


class TestAlphaDampedGradient:
    def test_exact_for_linear_fields(self):
        m = mesh.generate_tet_mesh(3, perturbation=0.2, seed=19)
        coef = np.array([0.9, -0.4, 0.2])
        phi = (m.cell_centroid @ coef)[:, None]
        grads = recon.lsq_gradient_3d(m, phi)
        fi = m.interior_faces
        o, k = m.face_owner[fi], m.face_neighbor[fi]
        nhat = m.face_normal[fi] / m.face_area[fi][:, None]
        x_o, x_k, xf = m.cell_centroid[o], m.cell_centroid[k], \
            m.face_centroid[fi]
        w_l, w_r = recon.reconstruct_lr(phi[o], grads[o], phi[k], grads[k],
                                        xf - x_o, xf - x_k)
        dn = np.einsum("fd,fd->f", x_k - x_o, nhat)
        gf = recon.alpha_damped_face_gradient(grads[o], grads[k], w_l, w_r,
                                              dn, nhat)
        assert np.abs(gf[:, 0, :] - coef).max() < 1e-11

    def test_degenerate_geometry_raises(self):
        g = np.zeros((1, 1, 3))
        w = np.zeros((1, 1))
        nhat = np.array([[1.0, 0.0, 0.0]])
        dn = np.array([0.0])  # x_k - x_j orthogonal to the face normal
        with pytest.raises(recon.DegenerateGeometryError):
            recon.alpha_damped_face_gradient(g, g, w, w, dn, nhat)

    def test_face_derivative_1d_matches_formula(self):
        val = recon.face_derivative_1d(1.0, 3.0, 0.5, 0.9, 0.1)
        assert abs(val - (2.0 + (4.0 / 3.0) / 0.2 * 0.4)) < 1e-14


class TestFaceScalar:
    ARGS = dict(t_j=2.0, t_k=4.0, t_l=2.5, t_r=3.5, d_j=0.4, d_k=0.6)

    def test_arithmetic(self):
        assert recon.face_scalar(Strategy("arithmetic"), **self.ARGS) == 3.0

    def test_lr_average_uses_reconstructed_values(self):
        assert recon.face_scalar(Strategy("lr-average"), **self.ARGS) == 3.0
        args = dict(self.ARGS, t_l=2.0, t_r=2.4)
        assert recon.face_scalar(Strategy("lr-average"), **args) == 2.2

    def test_one_sided(self):
        assert recon.face_scalar(Strategy("one-sided-left"), **self.ARGS) == 2.0
        assert recon.face_scalar(Strategy("one-sided-right"), **self.ARGS) == 4.0

    def test_weighted_half_equals_arithmetic(self):
        a = recon.face_scalar(Strategy("weighted", 0.5), **self.ARGS)
        b = recon.face_scalar(Strategy("arithmetic"), **self.ARGS)
        assert a == b

    def test_weighted_general(self):
        val = recon.face_scalar(Strategy("weighted", 0.75), **self.ARGS)
        assert abs(val - (0.75 * 2.0 + 0.25 * 4.0)) < 1e-15

    def test_inverse_distance_weighting(self):
        # closer cell (j at distance 0.4) gets the larger weight
        val = recon.face_scalar(Strategy("inverse-distance"), **self.ARGS)
        expect = (2.0 / 0.4 + 4.0 / 0.6) / (1.0 / 0.4 + 1.0 / 0.6)
        assert abs(val - expect) < 1e-14

    def test_inverse_distance_equal_distance_equals_arithmetic(self):
        args = dict(self.ARGS, d_j=0.5, d_k=0.5)
        a = recon.face_scalar(Strategy("inverse-distance"), **args)
        b = recon.face_scalar(Strategy("arithmetic"), **args)
        assert abs(a - b) < 1e-14

    @pytest.mark.parametrize("name", ["lr-average", "arithmetic",
                                      "inverse-distance", "one-sided-left",
                                      "one-sided-right", "weighted:0.75"])
    def test_stacked_columns_match_per_column_calls(self, name):
        # (F, 4) values with (F, 1) distances, as the 3D residual evaluates
        # temperature and velocity, equal four per-column calls bit for bit
        rng = np.random.default_rng(8)
        t_j, t_k, t_l, t_r = rng.uniform(0.5, 2.0, (4, 50, 4))
        d_j, d_k = rng.uniform(0.05, 0.3, (2, 50, 1))
        strategy = Strategy.from_name(name)
        stacked = recon.face_scalar(strategy, t_j, t_k, t_l, t_r, d_j, d_k)
        for c in range(4):
            col = recon.face_scalar(strategy, t_j[:, c], t_k[:, c],
                                    t_l[:, c], t_r[:, c], d_j[:, 0],
                                    d_k[:, 0])
            assert np.array_equal(stacked[:, c], col)

    def test_inverse_distance_zero_distance_raises(self):
        args = dict(self.ARGS, d_j=0.0)
        with pytest.raises(recon.DegenerateGeometryError):
            recon.face_scalar(Strategy("inverse-distance"), **args)

    def test_averages_stay_within_bounds(self):
        rng = np.random.default_rng(5)
        t_j, t_k = rng.uniform(0.1, 3.0, (2, 128))
        x_f = rng.uniform(0.3, 0.7, 128)
        for tag in ("arithmetic", "inverse-distance"):
            f = recon.face_scalar(Strategy(tag), t_j, t_k, t_j, t_k,
                                  x_f, 1.0 - x_f)
            assert np.all(f >= np.minimum(t_j, t_k) - 1e-14)
            assert np.all(f <= np.maximum(t_j, t_k) + 1e-14)
            assert np.all(f > 0.0)
