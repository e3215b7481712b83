import math

import numpy as np
import pytest

from conftest import boundary_faces, mesh_faces, outward_normal, perturbed_mesh
from dpgtransport.mesh import (
    NEXT_VERTEX,
    REFERENCE_TRIANGLE,
    TriMesh,
    build_uniform_mesh,
    reference_subcells,
    refine_cell,
)


def test_level0_counts():
    mesh = build_uniform_mesh(0)
    assert mesh.n_cells == 2
    assert mesh.n_vertices == 4
    assert len(mesh_faces(mesh)) == 5


def test_level1_counts():
    mesh = build_uniform_mesh(1)
    assert mesh.n_cells == 8
    assert mesh.n_vertices == 9


def test_level2_total_area():
    mesh = build_uniform_mesh(2)
    assert mesh.n_cells == 32
    assert abs(mesh.areas().sum() - 1.0) < 1e-14


@pytest.mark.parametrize("level", range(4))
def test_union_of_areas(level):
    mesh = build_uniform_mesh(level)
    assert abs(mesh.areas().sum() - 1.0) < 1e-12


@pytest.mark.parametrize("level", [0, 3])
def test_areas_are_one_read_only_array(level):
    """`areas()` returns the array computed with the mesh, every call, read-only: half the cross product of J."""
    mesh = perturbed_mesh(level)
    areas = mesh.areas()
    assert mesh.areas() is areas and not areas.flags.writeable
    np.testing.assert_array_equal(areas, _areas(mesh.vertices[mesh.cells]))


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        build_uniform_mesh(-1)


def test_refine_identity():
    tris = refine_cell(REFERENCE_TRIANGLE, 0)
    assert tris.shape == (1, 3, 2)
    np.testing.assert_allclose(tris[0], REFERENCE_TRIANGLE)


def _areas(tris):
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def test_refine_reference_once():
    tris = refine_cell(REFERENCE_TRIANGLE, 1)
    assert len(tris) == 4
    np.testing.assert_allclose(_areas(tris), 0.125)


@pytest.mark.parametrize(
    "parent", [REFERENCE_TRIANGLE, np.array([[0.1, 0.2], [1.3, 0.45], [0.35, 0.9]])], ids=["reference", "skewed"]
)
def test_refine_once_lists_the_children_in_order(parent):
    """The corner children at v0, v1, v2, then the middle one: the test-search DOFs are numbered in this order."""
    v0, v1, v2 = parent
    m01, m12, m20 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v2 + v0)
    expected = [[v0, m01, m20], [m01, v1, m12], [m20, m12, v2], [m01, m12, m20]]
    np.testing.assert_array_equal(refine_cell(parent, 1), expected)


def test_refine_twice_preserves_area():
    parent = np.array([[0.1, 0.2], [0.9, 0.3], [0.4, 0.8]])
    tris = refine_cell(parent, 2)
    assert len(tris) == 16
    parent_area = _areas(parent[None])[0]
    assert abs(_areas(tris).sum() - parent_area) < 1e-14
    # all children CCW and similar to the parent with ratio 1/4 in area
    np.testing.assert_allclose(_areas(tris), parent_area / 16)


@pytest.mark.parametrize("levels", range(4))
def test_reference_subcells_is_the_cached_trimesh_of_refine_cell(levels):
    """Cell t has the corners of subcell t of `refine_cell`, in order; the mesh is cached and read-only."""
    pieces = reference_subcells(levels)
    assert isinstance(pieces, TriMesh) and reference_subcells(levels) is pieces
    np.testing.assert_array_equal(pieces.vertices[pieces.cells], refine_cell(REFERENCE_TRIANGLE, levels))
    assert not any(a.flags.writeable for a in (pieces.vertices, pieces.cells, pieces.jacobians()))
    np.testing.assert_array_equal(2.0 * pieces.areas(), 4.0**-levels)


def test_face_normal_dot_axis_aligned():
    mesh = build_uniform_mesh(0)
    beta = np.array([1.0, 0.0])
    right = next(f for f in boundary_faces(mesh) if all(mesh.vertices[v][0] == 1.0 for v in f.vertex_ids))
    bottom = next(f for f in boundary_faces(mesh) if all(mesh.vertices[v][1] == 0.0 for v in f.vertex_ids))
    assert beta @ outward_normal(mesh, right, right.cells[0]) == pytest.approx(1.0)
    assert beta @ outward_normal(mesh, bottom, bottom.cells[0]) == pytest.approx(0.0, abs=1e-14)


def test_face_normal_dot_oblique():
    mesh = build_uniform_mesh(1)
    beta = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
    left = next(f for f in boundary_faces(mesh) if all(mesh.vertices[v][0] == 0.0 for v in f.vertex_ids))
    value = beta @ outward_normal(mesh, left, left.cells[0])
    assert value == pytest.approx(-math.cos(math.pi / 8), abs=1e-12)


def test_face_normal_dot_requires_adjacency():
    mesh = build_uniform_mesh(1)
    face = boundary_faces(mesh)[0]
    bad = next(c for c in range(mesh.n_cells) if c not in face.cells)
    with pytest.raises(ValueError):
        outward_normal(mesh, face, bad)


@pytest.mark.parametrize("level", range(3))
def test_interior_normals_opposite(level):
    mesh = build_uniform_mesh(level)
    beta = np.array([math.cos(0.3), math.sin(0.3)])
    for face in mesh_faces(mesh):
        if face.boundary:
            assert len(face.cells) == 1
        else:
            a = beta @ outward_normal(mesh, face, face.cells[0])
            b = beta @ outward_normal(mesh, face, face.cells[1])
            assert abs(a + b) < 1e-14


def test_fine_cells_tile_coarse_cell():
    mesh = build_uniform_mesh(1)
    pieces = reference_subcells(2)
    for cell in range(mesh.n_cells):
        tris = pieces.vertices[pieces.cells] @ mesh.jacobians()[cell].T + mesh.vertices[mesh.cells[cell]][0]
        coarse_area = _areas(mesh.vertices[mesh.cells[cell]][None])[0]
        assert abs(_areas(tris).sum() - coarse_area) < 1e-14


def test_map_points_sends_the_reference_corners_to_the_cell_vertices():
    mesh = perturbed_mesh(3)
    corners = mesh.vertices[mesh.cells]
    assert np.abs(mesh.map_points(REFERENCE_TRIANGLE) - corners).max() <= 1e-15 * np.abs(corners).max()


def test_map_points_is_the_affine_map_of_every_cell():
    mesh = perturbed_mesh(3)
    points = np.random.default_rng(5).random((7, 2)) * 0.5
    expected = mesh.vertices[mesh.cells[:, None, 0]] + np.einsum("cde,qe->cqd", mesh.jacobians(), points)
    mapped = mesh.map_points(points)
    assert mapped.shape == (mesh.n_cells, 7, 2)
    assert np.abs(mapped - expected).max() <= 1e-15 * np.abs(expected).max()


def test_map_points_of_some_cells_is_their_rows_of_every_cell():
    """Bit for bit for any selection of several cells or none.

    numpy takes the product of a single row by a vector-matrix routine, so
    a one-cell selection may differ from its row in the last bit.
    """
    mesh = perturbed_mesh(3)
    points = np.random.default_rng(6).random((7, 2)) * 0.5
    every = mesh.map_points(points)
    for cells in (slice(5, 40), slice(100, None), slice(None, None, 3), np.array([7, 0, 7, 100]), [3, 4], []):
        np.testing.assert_array_equal(mesh.map_points(points, cells), every[cells])
    for cells in ([3], slice(127, None)):
        assert np.abs(mesh.map_points(points, cells) - every[cells]).max() <= np.finfo(float).eps * np.abs(every).max()


def test_map_points_of_no_points_is_empty():
    mesh = perturbed_mesh(2)
    assert mesh.map_points(np.empty((0, 2))).shape == (mesh.n_cells, 0, 2)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("level", range(1, 5))
def test_edge_table_matches_the_face_oracle(level, perturbed):
    """Cell edges share an id exactly when they share a vertex pair; the
    n x n square mesh has 3n^2 + 2n edges, 4n of them on the boundary."""
    mesh = perturbed_mesh(level) if perturbed else build_uniform_mesh(level)
    edges = mesh.edges
    n = 2**level
    ends = np.stack([mesh.cells, mesh.cells[:, NEXT_VERTEX]], axis=-1).reshape(-1, 2)
    pairs = [tuple(sorted(p)) for p in ends.tolist()]
    ids = edges.ids.ravel().tolist()
    id_of_pair = dict(zip(pairs, ids))
    assert len(id_of_pair) == len(set(ids)) == len(mesh_faces(mesh)) == 3 * n * n + 2 * n
    assert all(id_of_pair[p] == i for p, i in zip(pairs, ids))
    assert sorted(set(ids)) == list(range(len(id_of_pair)))

    on_boundary = {p for p, b in zip(pairs, edges.boundary.ravel().tolist()) if b}
    assert on_boundary == {f.vertex_ids for f in boundary_faces(mesh)}
    assert len(on_boundary) == 4 * n

    v = mesh.vertices[mesh.cells]
    np.testing.assert_array_equal(edges.vectors, v[:, NEXT_VERTEX] - v)
    np.testing.assert_allclose(edges.lengths, np.linalg.norm(edges.vectors, axis=-1), rtol=1e-15, atol=0.0)
    assert mesh.edges is edges
    for a in (edges.ids, edges.boundary, edges.vectors, edges.lengths):
        assert not a.flags.writeable
