"""Gradient reconstruction and face-value strategies."""

import numpy as np
import pytest
import scipy.sparse as sp

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

    @pytest.mark.parametrize("name,order", [
        ("lr-average", 2.0), ("arithmetic", 2.0), ("inverse-distance", 2.0),
        ("one-sided-left", 1.0), ("one-sided-right", 1.0),
        ("weighted:0.5", 2.0), ("weighted:0.5000000000001", 2.0),
        ("weighted:0.6", 1.0), ("weighted:1", 1.0)])
    def test_nominal_order(self, name, order):
        assert Strategy.from_name(name).nominal_order == order


class TestStrategyList:
    def test_names_and_strategies_become_strategies(self):
        assert recon.strategy_list(["arithmetic", Strategy("weighted", 0.75)]) \
            == [Strategy("arithmetic"), Strategy("weighted", 0.75)]

    # the name-only lists are cases of test_cli's
    # test_malformed_run_value_exits_2; these give Strategy values
    @pytest.mark.parametrize("strategies,message", [
        (["arithmetic", Strategy("arithmetic", 0.3)],
         "strategy names must be distinct; repeated: arithmetic"),
        ([Strategy("arithmetic", 0.3)],
         "omega 0.3 prints as arithmetic, which names another weight"),
    ])
    def test_rejected_lists(self, strategies, message):
        with pytest.raises(ValueError) as exc:
            recon.strategy_list(strategies)
        assert str(exc.value) == message


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
        assert np.abs(grads.T - coef).max() < 1e-12

    def test_multicomponent_shape(self, m):
        field = np.stack([m.cell_centroid[:, 0],
                          m.cell_centroid[:, 1] * 2.0], axis=1)
        grads = recon.lsq_gradient_3d(m, field)
        assert grads.shape == (2, 3, m.n_cells)
        assert np.abs(grads[0].T - [1.0, 0.0, 0.0]).max() < 1e-12
        assert np.abs(grads[1].T - [0.0, 2.0, 0.0]).max() < 1e-12

    def test_operator_cached_on_mesh(self, m):
        a = recon._lsq_operator(m)
        b = recon._lsq_operator(m)
        assert a is b


def _reference_lsq_operator(m):
    """Per-cell least-squares build: one SVD and one solve per cell."""
    nbrs = [[] for _ in range(m.n_cells)]
    interior = m.interior_faces
    for o, k in zip(m.face_owner[interior], m.face_neighbor[interior]):
        nbrs[o].append(int(k))
        nbrs[k].append(int(o))

    def full_rank(g):
        sv = np.linalg.svd(g, compute_uv=False)
        return sv[-1] > recon._RANK_TOL * sv[0]

    xc = m.cell_centroid
    rows, cols, data = [], [], []
    for c in range(m.n_cells):
        stencil = nbrs[c]
        for _ in range(2):
            dx = xc[stencil] - xc[c]
            if full_rank(dx.T @ dx):
                break
            stencil = stencil + sorted({j for s in stencil for j in nbrs[s]}
                                       - {c} - set(stencil))
        dx = xc[stencil] - xc[c]
        w = np.linalg.solve(dx.T @ dx, dx.T)
        rows += [c] * (len(stencil) + 1)
        cols += stencil + [c]
        data += list(w.T) + [-w.sum(axis=1)]
    data = np.array(data)
    return tuple(sp.csr_matrix((data[:, d], (rows, cols)),
                               shape=(m.n_cells, m.n_cells)) for d in range(3))


class TestLsqOperatorAgainstPerCellBuild:
    @pytest.mark.parametrize("n, augmented", [(2, 12), (3, 18)])
    def test_matches_per_cell_build(self, n, augmented):
        m = mesh.generate_tet_mesh(n, perturbation=0.2, seed=13)
        ops = recon._lsq_operator(m)
        ref = _reference_lsq_operator(m)
        nbr_count = (np.bincount(m.face_owner[m.interior_faces],
                                 minlength=m.n_cells)
                     + np.bincount(m.face_neighbor[m.interior_faces],
                                   minlength=m.n_cells))
        assert (np.diff(ops[0].indptr) > nbr_count + 1).sum() == augmented
        for op, r in zip(ops, ref):
            assert op.has_canonical_format
            assert np.array_equal(op.indptr, r.indptr)
            assert np.array_equal(op.indices, r.indices)
            assert np.abs(op.data - r.data).max() <= \
                1e-13 * np.abs(r.data).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_linear_exactness_on_every_row(self, n):
        m = mesh.generate_tet_mesh(n, perturbation=0.2, seed=13)
        coef = np.array([0.7, -1.3, 2.1])
        phi = m.cell_centroid @ coef - 0.4
        for d, op in enumerate(recon._lsq_operator(m)):
            assert np.abs(op @ phi - coef[d]).max() < 1e-12

    def test_unaugmentable_stencil_raises_naming_the_cell(self):
        # two tets sharing one face: each cell's only neighbor is the other,
        # so no neighbors-of-neighbors can restore full rank
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        pair = mesh.build_mesh(vertices, np.array([[0, 1, 2, 3],
                                                   [1, 2, 3, 4]]))
        with pytest.raises(recon.SingularStencilError,
                           match=r"^cell 0: .* size 1 is rank deficient"):
            recon._lsq_operator(pair)


class TestAugmentedStencilRankTests:
    def test_each_grown_stencil_is_rank_tested_once(self, monkeypatch):
        # one batched test of every face stencil, then one test per
        # rank-deficient cell: its face stencil is known deficient, and on
        # this mesh a single growth gives every such cell full rank
        m = mesh.generate_tet_mesh(3, perturbation=0.2, seed=13)
        results = []
        full_rank = recon._full_rank

        def counted(g):
            results.append(full_rank(g))
            return results[-1]
        monkeypatch.setattr(recon, "_full_rank", counted)
        recon._lsq_operator(m)
        batched, per_cell = results[0], results[1:]
        assert batched.shape == (m.n_cells,)
        assert len(per_cell) == (~batched).sum() > 0
        assert all(per_cell)


def _normal_matrices(m):
    """(C, 3, 3) normal matrices of the face-neighbor stencils."""
    interior = m.interior_faces
    o, k = m.face_owner[interior], m.face_neighbor[interior]
    cell, nbr = np.concatenate([o, k]), np.concatenate([k, o])
    dx = m.cell_centroid[nbr] - m.cell_centroid[cell]
    g = np.zeros((m.n_cells, 3, 3))
    np.add.at(g, cell, dx[:, :, None] * dx[:, None, :])
    return g


class TestRankTestAgainstSvd:
    @pytest.mark.parametrize("perturbation", [0.0, 0.1, 0.2])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_classification_matches_svd_on_every_cell(self, n, perturbation):
        m = mesh.generate_tet_mesh(n, perturbation=perturbation, seed=n)
        g = _normal_matrices(m)
        sv = np.linalg.svd(g, compute_uv=False)
        ref = sv[:, -1] > recon._RANK_TOL * sv[:, 0]
        assert np.array_equal(recon._full_rank(g), ref)
        assert [bool(recon._full_rank(gc)) for gc in g] == ref.tolist()
        # boundary stencils with coplanar neighbors are rank deficient
        assert 0 < (~ref).sum() < m.boundary_cell.sum()
        if perturbation == 0.0:
            assert np.all(sv[~ref, -1] <= 1e-12 * sv[~ref, 0])


class TestReconstructLR:
    def test_linear_field_gives_matching_face_values(self):
        m = mesh.generate_tet_mesh(3, perturbation=0.2, seed=17)
        coef = np.array([0.3, 1.1, -0.7])
        phi = (m.cell_centroid @ coef)[:, None]
        grads = recon.lsq_gradient_3d(m, phi)
        fi = m.interior_faces
        o, k = m.face_owner[fi], m.face_neighbor[fi]
        xf = m.face_centroid[fi]
        w_l, w_r = recon.reconstruct_lr(phi[o].T, grads[..., o],
                                        phi[k].T, grads[..., k],
                                        (xf - m.cell_centroid[o]).T,
                                        (xf - m.cell_centroid[k]).T)
        exact = (xf @ coef)[:, None]
        assert np.abs(w_l.T - exact).max() < 1e-12
        assert np.abs(w_r.T - exact).max() < 1e-12


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
        w_l, w_r = recon.reconstruct_lr(phi[o].T, grads[..., o],
                                        phi[k].T, grads[..., k],
                                        (xf - x_o).T, (xf - x_k).T)
        dn = np.einsum("fd,fd->f", x_k - x_o, nhat)
        gf = recon.alpha_damped_face_gradient(grads[..., o], grads[..., k],
                                              w_l, w_r, dn, nhat.T)
        assert np.abs(gf[0].T - coef).max() < 1e-11

    def test_degenerate_geometry_raises(self):
        g = np.zeros((1, 3, 1))
        w = np.zeros((1, 1))
        nhat = np.array([[1.0, 0.0, 0.0]]).T
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

    @staticmethod
    def _per_tag_reference(strategy, t_j, t_k, t_l, t_r, d_j, d_k):
        """The face values as written tag by tag, one branch each."""
        tag = strategy.tag
        if tag == "lr-average":
            return 0.5 * (t_l + t_r)
        if tag == "arithmetic":
            return 0.5 * (t_j + t_k)
        if tag == "one-sided-left":
            return t_j + 0.0
        if tag == "one-sided-right":
            return t_k + 0.0
        if tag == "weighted":
            return strategy.omega * t_j + (1.0 - strategy.omega) * t_k
        return (t_j / d_j + t_k / d_k) / (1.0 / d_j + 1.0 / d_k)

    @pytest.mark.parametrize("name", ["lr-average", "arithmetic",
                                      "inverse-distance", "one-sided-left",
                                      "one-sided-right", "weighted:0.3"])
    def test_matches_per_tag_formulas_bit_for_bit(self, name):
        rng = np.random.default_rng(27)
        t_j, t_k, t_l, t_r = rng.uniform(-2.0, 2.0, (4, 200, 4))
        d_j, d_k = rng.uniform(0.05, 0.3, (2, 200, 1))
        strategy = Strategy.from_name(name)
        got = recon.face_scalar(strategy, t_j, t_k, t_l, t_r, d_j, d_k)
        want = self._per_tag_reference(strategy, t_j, t_k, t_l, t_r, d_j, d_k)
        assert got.tobytes() == want.tobytes()

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
