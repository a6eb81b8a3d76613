"""Irregular 1D grids and irregular tetrahedral meshes with exact cell/face geometry.

1D grids live on [0, 1] with cell centers at node midpoints.  3D meshes cover the
cube [0, 0.5]^3: the cube is cut into n^3 hexahedral blocks, interior vertices are
perturbed, and every hex is split into 6 tetrahedra by the same corner-to-corner
diagonal rule so the triangulation stays conformal across hex faces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Base class for mesh construction failures."""


class DegenerateMeshError(MeshError):
    """A cell with zero or negative volume was produced."""


MIN_CELLS_1D = 3       # cells of the smallest 1D grid
MIN_CELLS_3D = 2       # hex blocks per direction of the smallest 3D mesh
MAX_PERTURBATION = 0.5  # node perturbations lie in [0, MAX_PERTURBATION)


@dataclass(frozen=True)
class Grid1D:
    """Cell-centered 1D grid on [0, 1].

    nodes:        (n+1,) strictly increasing, nodes[0] = 0, nodes[-1] = 1
    cell_centers: (n,)   midpoints of consecutive nodes
    cell_volumes: (n,)   node spacings h_j
    face_coords:  (n-1,) interior node coordinates x_{j+1/2}
    """

    nodes: np.ndarray
    cell_centers: np.ndarray
    cell_volumes: np.ndarray
    face_coords: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.cell_centers.shape[0]


@dataclass
class Mesh3D:
    """Conformal tetrahedral mesh with precomputed cell and face geometry.

    Faces are triangles; ``face_normal`` is the scaled normal (area-weighted,
    pointing outward from the owner cell) and ``face_area`` its magnitude.
    ``face_neighbor`` is -1 on boundary faces.  ``boundary_cell`` flags cells
    that own at least one boundary face.  All arrays are read-only after
    construction; the mesh is safe for concurrent reads.
    """

    vertices: np.ndarray       # (V, 3)
    cells: np.ndarray          # (C, 4) vertex indices, positively oriented
    cell_centroid: np.ndarray  # (C, 3)
    cell_volume: np.ndarray    # (C,)
    face_centroid: np.ndarray  # (F, 3)
    face_normal: np.ndarray    # (F, 3) scaled outward normal
    face_area: np.ndarray      # (F,)
    face_owner: np.ndarray     # (F,)
    face_neighbor: np.ndarray  # (F,)  -1 => boundary face
    boundary_cell: np.ndarray  # (C,) bool
    _lsq_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_neighbor >= 0)

    def _freeze(self) -> None:
        for a in (self.vertices, self.cells, self.cell_centroid, self.cell_volume,
                  self.face_centroid, self.face_normal, self.face_area,
                  self.face_owner, self.face_neighbor, self.boundary_cell):
            a.setflags(write=False)


def generate_grid_1d(n: int, perturbation: float = 0.3,
                     seed: int = 0) -> Grid1D:
    """Generate a 1D grid with n cells whose interior nodes are perturbed.

    Each interior node is displaced from its uniform position by a seeded
    pseudo-random amount bounded by perturbation/n, so the same arguments
    reproduce a bit-identical grid; perturbation 0 gives the uniform grid.
    """
    if n < MIN_CELLS_1D:
        raise ValueError(f"need at least {MIN_CELLS_1D} cells, got n={n}")
    if not 0.0 <= perturbation < MAX_PERTURBATION:
        raise ValueError(f"perturbation must be in [0, {MAX_PERTURBATION:g}), "
                         f"got {perturbation}")
    nodes = np.linspace(0.0, 1.0, n + 1)
    rng = np.random.default_rng(seed)
    nodes[1:-1] += rng.uniform(-1.0, 1.0, n - 1) * perturbation / n
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    volumes = np.diff(nodes)
    return Grid1D(nodes=nodes, cell_centers=centers, cell_volumes=volumes,
                  face_coords=nodes[1:-1].copy())


# Kuhn split of a hex: 6 tets sharing the main diagonal v(0,0,0)-v(1,1,1).
# Each permutation of the axes gives one tet; odd permutations are re-ordered
# so every tet is positively oriented.
def _kuhn_tet_offsets() -> np.ndarray:
    from itertools import permutations

    tets = []
    for perm in permutations(range(3)):
        c0 = (0, 0, 0)
        c1 = tuple(int(perm[0] == ax) for ax in range(3))
        c2 = tuple(int(ax in (perm[0], perm[1])) for ax in range(3))
        c3 = (1, 1, 1)
        parity = sum(1 for i in range(3) for j in range(i + 1, 3)
                     if perm[i] > perm[j]) % 2
        tets.append((c0, c1, c2, c3) if parity == 0 else (c0, c2, c1, c3))
    return np.array(tets)  # (6, 4, 3)


_TET_OFFSETS = _kuhn_tet_offsets()

# Outward-facing triangles of a positively oriented tet (a, b, c, d).
_TET_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


def generate_tet_mesh(n: int, perturbation: float = 0.2, seed: int = 0) -> Mesh3D:
    """Generate an irregular tetrahedral mesh of the cube [0, 0.5]^3 with 6*n^3 cells.

    Interior vertices of the underlying n^3 hex lattice are displaced by at most
    perturbation * (0.5/n) per coordinate; boundary vertices stay fixed so all
    boundaries remain flat.
    """
    if n < MIN_CELLS_3D:
        raise ValueError(
            f"need at least {MIN_CELLS_3D} cells per direction, got n={n}")
    if not 0.0 <= perturbation < MAX_PERTURBATION:
        raise ValueError(f"perturbation must be in [0, {MAX_PERTURBATION:g}), "
                         f"got {perturbation}")
    h = 0.5 / n
    axis = np.linspace(0.0, 0.5, n + 1)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    verts = np.stack([gx, gy, gz], axis=-1)  # (n+1, n+1, n+1, 3)

    rng = np.random.default_rng(seed)
    shift = rng.uniform(-1.0, 1.0, verts.shape) * perturbation * h
    interior = np.zeros((n + 1,) * 3, dtype=bool)
    interior[1:-1, 1:-1, 1:-1] = True
    verts[interior] += shift[interior]
    vertices = verts.reshape(-1, 3)

    # Global vertex index of lattice point (i, j, k).
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n),
                             indexing="ij")
    base = np.stack([ii, jj, kk], axis=-1).reshape(-1, 1, 1, 3)  # (n^3,1,1,3)
    corner = base + _TET_OFFSETS[None, :, :, :]                  # (n^3,6,4,3)
    cells = (corner @ stride).reshape(-1, 4)

    return build_mesh(vertices, cells)


def build_mesh(vertices: np.ndarray, cells: np.ndarray) -> Mesh3D:
    """Compute cell/face geometry and adjacency from raw tet connectivity.

    ``cells`` must be a (C, 4) integer array, C >= 1, of indices into the
    (V, 3) ``vertices``; anything else raises MeshError.  Tet volume is
    det(edge matrix)/6 with the stored orientation; a zero or negative
    volume raises DegenerateMeshError naming the cell.  Faces are matched
    by one stable lexicographic sort of their sorted vertex triples, so
    faces come in ascending triple order, each owned by the first cell
    that lists it; a triple shared by more than two cells raises MeshError.
    The mesh keeps read-only copies of ``vertices`` and ``cells``; the
    caller's arrays are left as they are.
    """
    vertices = np.array(vertices, dtype=float)
    cells = np.asarray(cells)
    if cells.ndim != 2 or cells.shape[0] == 0 or cells.shape[1] != 4:
        raise MeshError(f"cells must be a (C, 4) array with C >= 1, "
                        f"got shape {cells.shape}")
    if not np.issubdtype(cells.dtype, np.integer):
        raise MeshError(f"cells must hold integer vertex indices, "
                        f"got dtype {cells.dtype}")
    nv = vertices.shape[0]
    if cells.min() < 0 or cells.max() >= nv:
        raise MeshError(f"cell vertex indices must lie in [0, {nv}), "
                        f"got [{cells.min()}, {cells.max()}]")
    cells = cells.astype(np.int64)

    p = vertices[cells]  # (C, 4, 3)
    edges = p[:, 1:, :] - p[:, :1, :]
    vol = np.linalg.det(edges) / 6.0
    bad = np.flatnonzero(vol <= 0.0)
    if bad.size:
        raise DegenerateMeshError(
            f"cell {bad[0]} has non-positive volume {vol[bad[0]]:.3e} "
            f"({bad.size} degenerate cells total)")
    centroid = p.mean(axis=1)

    tri = cells[:, _TET_FACES]            # (C, 4, 3) oriented outward
    flat = tri.reshape(-1, 3)
    key = np.sort(flat, axis=1)
    # stable: the copies of one triple stay in cell order
    order = np.lexsort(key.T[::-1])
    sk = key[order]
    start = np.flatnonzero(np.concatenate(
        [[True], np.any(sk[1:] != sk[:-1], axis=1)]))
    counts = np.diff(np.append(start, flat.shape[0]))
    if counts.max() > 2:
        worst = counts.argmax()
        face = tuple(sk[start[worst]].tolist())
        raise MeshError(f"non-manifold connectivity: face {face} "
                        f"is shared by {counts[worst]} cells")
    first = order[start]
    face_vertices = flat[first]
    face_owner = first // 4
    face_neighbor = np.full(counts.shape[0], -1, dtype=np.int64)
    shared = counts == 2
    face_neighbor[shared] = order[start[shared] + 1] // 4

    fp = vertices[face_vertices]  # (F, 3, 3)
    face_centroid = fp.mean(axis=1)
    face_normal = 0.5 * np.cross(fp[:, 1] - fp[:, 0], fp[:, 2] - fp[:, 0])
    face_area = np.linalg.norm(face_normal, axis=1)
    if np.any(face_area <= 0.0):
        raise DegenerateMeshError("degenerate face with zero area")

    boundary_cell = np.zeros(cells.shape[0], dtype=bool)
    boundary_cell[face_owner[face_neighbor < 0]] = True

    mesh = Mesh3D(vertices=vertices, cells=cells, cell_centroid=centroid,
                  cell_volume=vol, face_centroid=face_centroid,
                  face_normal=face_normal, face_area=face_area,
                  face_owner=face_owner, face_neighbor=face_neighbor,
                  boundary_cell=boundary_cell)
    mesh._freeze()
    return mesh


def closure_residual(mesh: Mesh3D) -> np.ndarray:
    """Per-cell |sum of outward scaled normals| / (sum of face areas).

    Zero (to roundoff) on any watertight cell; used by the invariant suite.
    """
    acc = np.zeros((mesh.n_cells, 3))
    areas = np.zeros(mesh.n_cells)
    np.add.at(acc, mesh.face_owner, mesh.face_normal)
    np.add.at(areas, mesh.face_owner, mesh.face_area)
    interior = mesh.interior_faces
    nb = mesh.face_neighbor[interior]
    np.add.at(acc, nb, -mesh.face_normal[interior])
    np.add.at(areas, nb, mesh.face_area[interior])
    return np.linalg.norm(acc, axis=1) / areas

