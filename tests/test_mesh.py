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

    def test_caller_arrays_stay_writeable(self):
        # the mesh freezes its own copies, not the arrays it was built from
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cells = np.array([[0, 1, 2, 3]], dtype=np.int64)
        m = mesh.build_mesh(vertices, cells)
        assert vertices.flags.writeable and cells.flags.writeable
        assert not m.vertices.flags.writeable
        assert not m.cells.flags.writeable

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            mesh.generate_tet_mesh(1)


def _reference_mesh_arrays(vertices, cells):
    """Every Mesh3D array, with faces matched by np.unique(axis=0).

    The oracle of the face table: faces in ascending order of their sorted
    vertex triples, each owned by the first cell listing it.
    """
    p = vertices[cells]
    vol = np.linalg.det(p[:, 1:, :] - p[:, :1, :]) / 6.0
    flat = cells[:, mesh._TET_FACES].reshape(-1, 3)
    _, inv, counts = np.unique(np.sort(flat, axis=1), axis=0,
                               return_inverse=True, return_counts=True)
    order = np.argsort(inv, kind="stable")
    first = order[np.cumsum(counts) - counts]
    face_vertices = flat[first]
    face_owner = first // 4
    face_neighbor = np.full(counts.shape[0], -1, dtype=np.int64)
    face_neighbor[counts == 2] = order[np.cumsum(counts)[counts == 2] - 1] // 4
    fp = vertices[face_vertices]
    face_normal = 0.5 * np.cross(fp[:, 1] - fp[:, 0], fp[:, 2] - fp[:, 0])
    boundary_cell = np.zeros(cells.shape[0], dtype=bool)
    boundary_cell[face_owner[face_neighbor < 0]] = True
    return dict(vertices=vertices, cells=cells, cell_centroid=p.mean(axis=1),
                cell_volume=vol, face_centroid=fp.mean(axis=1),
                face_normal=face_normal,
                face_area=np.linalg.norm(face_normal, axis=1),
                face_owner=face_owner, face_neighbor=face_neighbor,
                boundary_cell=boundary_cell)


class TestFaceTableOracle:
    # n = 7 and 11 at benchmark pool index 3: perturbation 0.1, seed index + n
    @pytest.mark.parametrize(
        "n, perturbation, seed",
        [(n, p, 5) for n in (2, 3, 4, 5) for p in (0.0, 0.2)]
        + [(7, 0.1, 10), (11, 0.1, 14)])
    def test_every_array_matches_unique_matching(self, n, perturbation, seed):
        m = mesh.generate_tet_mesh(n, perturbation=perturbation, seed=seed)
        ref = _reference_mesh_arrays(m.vertices, m.cells)
        for name, expected in ref.items():
            got = getattr(m, name)
            assert got.dtype == expected.dtype, name
            assert np.array_equal(got, expected), name


# Three positively oriented tets on the triangle (0, 1, 2): one below it,
# two above.
_FAN_VERTICES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.2, 0.2, 2.0]])
_FAN_CELLS = np.array([[0, 1, 2, 3], [0, 2, 1, 4], [0, 1, 2, 5]])


class TestBuildMeshValidation:
    def test_face_shared_by_three_cells_is_named(self):
        with pytest.raises(mesh.MeshError, match=r"^non-manifold connectivity: "
                           r"face \(0, 1, 2\) is shared by 3 cells$"):
            mesh.build_mesh(_FAN_VERTICES, _FAN_CELLS)

    def test_two_of_the_three_cells_build(self):
        m = mesh.build_mesh(_FAN_VERTICES, _FAN_CELLS[:2])
        assert m.interior_faces.size == 1

    @pytest.mark.parametrize("cells, match", [
        (np.array([0, 1, 2, 3]), r"\(C, 4\) array"),
        (np.array([[0, 1, 2]]), r"\(C, 4\) array"),
        (np.zeros((0, 4), dtype=np.int64), r"\(C, 4\) array"),
        (np.array([[0.0, 1.0, 2.0, 3.0]]), r"integer vertex indices"),
        (np.array([[0, 1, 2, -1]]), r"in \[0, 6\), got \[-1, 2\]"),
        (np.array([[0, 1, 2, 6]]), r"in \[0, 6\), got \[0, 6\]"),
    ], ids=["1d", "three-columns", "no-cells", "float", "negative",
            "past-the-end"])
    def test_malformed_cells_raise_mesh_error(self, cells, match):
        with pytest.raises(mesh.MeshError, match=match):
            mesh.build_mesh(_FAN_VERTICES, cells)
