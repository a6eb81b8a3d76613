"""Grid and mesh generation: geometry invariants and reproducibility."""

import numpy as np
import pytest

from fvvisc import mesh


class TestGrid1D:
    def test_regular_grid_is_uniform(self):
        g = mesh.generate_grid_1d(10, perturbation=0.0)
        assert np.allclose(np.diff(g.nodes), 0.1, atol=1e-15)

    def test_endpoints_fixed(self):
        g = mesh.generate_grid_1d(17, seed=3)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0

    def test_volumes_partition_the_interval(self):
        g = mesh.generate_grid_1d(23, seed=5)
        assert abs(g.cell_volumes.sum() - 1.0) < 1e-14

    def test_centers_are_midpoints(self):
        g = mesh.generate_grid_1d(9, seed=1)
        assert np.allclose(g.cell_centers,
                           0.5 * (g.nodes[:-1] + g.nodes[1:]), atol=1e-15)

    def test_perturbation_bounded(self):
        n = 31
        g = mesh.generate_grid_1d(n, perturbation=0.3, seed=7)
        uniform = np.linspace(0.0, 1.0, n + 1)
        assert np.abs(g.nodes - uniform).max() <= 0.3 / n + 1e-15

    def test_nodes_strictly_increasing(self):
        for seed in range(20):
            g = mesh.generate_grid_1d(63, perturbation=0.3, seed=seed)
            assert np.all(np.diff(g.nodes) > 0.0)

    def test_same_seed_reproduces_bit_identical_grid(self):
        a = mesh.generate_grid_1d(15, seed=42)
        b = mesh.generate_grid_1d(15, seed=42)
        assert np.array_equal(a.nodes, b.nodes)

    def test_different_seeds_differ(self):
        a = mesh.generate_grid_1d(15, seed=0)
        b = mesh.generate_grid_1d(15, seed=1)
        assert not np.array_equal(a.nodes, b.nodes)

    def test_face_coords_are_interior_nodes(self):
        g = mesh.generate_grid_1d(8, seed=2)
        assert np.array_equal(g.face_coords, g.nodes[1:-1])

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            mesh.generate_grid_1d(2)

    def test_excessive_perturbation_rejected(self):
        with pytest.raises(ValueError):
            mesh.generate_grid_1d(10, perturbation=0.5)


@pytest.fixture(scope="module")
def tet_mesh():
    return mesh.generate_tet_mesh(4, perturbation=0.2, seed=9)


class TestTetMesh:
    def test_cell_count(self, tet_mesh):
        assert tet_mesh.n_cells == 6 * 4 ** 3

    def test_volumes_partition_the_cube(self, tet_mesh):
        assert abs(tet_mesh.cell_volume.sum() - 0.5 ** 3) < 1e-12

    def test_all_volumes_positive(self, tet_mesh):
        assert np.all(tet_mesh.cell_volume > 0.0)

    def test_geometric_closure(self, tet_mesh):
        assert np.max(mesh.closure_residual(tet_mesh)) < 1e-12

    def test_boundary_vertices_fixed(self, tet_mesh):
        v = tet_mesh.vertices
        on_boundary = np.any((np.abs(v) < 1e-14) | (np.abs(v - 0.5) < 1e-14),
                             axis=1)
        axis = np.linspace(0.0, 0.5, 5)
        for d in range(3):
            offs = np.abs(v[on_boundary, d][:, None] - axis[None, :]).min(axis=1)
            assert offs.max() < 1e-14

    def test_interior_faces_have_two_cells(self, tet_mesh):
        fi = tet_mesh.interior_faces
        assert np.all(tet_mesh.face_neighbor[fi] >= 0)
        assert np.all(tet_mesh.face_owner[fi]
                      != tet_mesh.face_neighbor[fi])

    def test_boundary_face_area_matches_cube_surface(self, tet_mesh):
        boundary = tet_mesh.face_neighbor < 0
        assert abs(tet_mesh.face_area[boundary].sum() - 6 * 0.25) < 1e-12

    def test_normals_point_from_owner_to_neighbor(self, tet_mesh):
        fi = tet_mesh.interior_faces
        d = (tet_mesh.cell_centroid[tet_mesh.face_neighbor[fi]]
             - tet_mesh.cell_centroid[tet_mesh.face_owner[fi]])
        dots = np.einsum("fd,fd->f", d, tet_mesh.face_normal[fi])
        assert np.all(dots > 0.0)

    def test_same_seed_reproduces_bit_identical_mesh(self):
        a = mesh.generate_tet_mesh(3, seed=11)
        b = mesh.generate_tet_mesh(3, seed=11)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.cells, b.cells)

    def test_regular_mesh_with_zero_perturbation(self):
        m = mesh.generate_tet_mesh(3, perturbation=0.0, seed=0)
        assert np.allclose(m.cell_volume, 0.5 ** 3 / m.n_cells, atol=1e-15)

    def test_degenerate_cell_rejected(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(mesh.DegenerateMeshError):
            mesh.build_mesh(verts, np.array([[0, 1, 2, 3]]))

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            mesh.generate_tet_mesh(1)

