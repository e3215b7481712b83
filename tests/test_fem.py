import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BENCHMARK_BETA,
    first_appearance_reference,
    jittered_mesh,
    mesh_faces,
    perturbed_mesh,
    skeleton_nodes,
    trace_node_coords,
)
from dpgtransport.fem import (
    MAX_BASIS_DEGREE,
    MAX_QUADRATURE_DEGREE,
    ND_LEAF_CELLS,
    SpaceKind,
    build_dof_map,
    edge_nodes,
    gauss_jacobi,
    gauss_legendre,
    lagrange_basis,
    make_quadrature,
)
from dpgtransport.forms import local_saddle_blocks, submesh_dofs, transport_form
from dpgtransport.mesh import REFERENCE_TRIANGLE, MeshPair, TriMesh, build_uniform_mesh, first_appearance, row_ids


def _random_reference_points(rng, n):
    """Uniform points in the reference triangle via reflection."""
    pts = rng.random((n, 2))
    flip = pts.sum(axis=1) > 1.0
    pts[flip] = 1.0 - pts[flip]
    return pts


# ---------------------------------------------------------------- bases


def test_degree1_kronecker_at_origin():
    vals = lagrange_basis(1).eval(np.array([[0.0, 0.0]]))[0]
    np.testing.assert_allclose(vals, [1.0, 0.0, 0.0], atol=1e-14)


def test_degree1_barycenter_symmetry():
    vals = lagrange_basis(1).eval(np.array([[1.0 / 3.0, 1.0 / 3.0]]))[0]
    np.testing.assert_allclose(vals, [1.0 / 3.0] * 3, atol=1e-14)


@pytest.mark.parametrize("degree", range(MAX_BASIS_DEGREE + 1))
def test_kronecker_property(degree):
    basis = lagrange_basis(degree)
    np.testing.assert_allclose(basis.eval(basis.nodes), np.eye(basis.size), atol=1e-11)


def test_degree2_partition_of_unity():
    basis = lagrange_basis(2)
    pts = _random_reference_points(np.random.default_rng(0), 50)
    np.testing.assert_allclose(basis.eval(pts).sum(axis=1), 1.0, atol=1e-13)


@given(degree=st.integers(0, MAX_BASIS_DEGREE), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_partition_of_unity_all_degrees(degree, seed):
    basis = lagrange_basis(degree)
    pts = _random_reference_points(np.random.default_rng(seed), 10)
    assert np.abs(basis.eval(pts).sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("degree", range(1, MAX_BASIS_DEGREE + 1))
def test_exact_polynomial_reproduction(degree):
    basis = lagrange_basis(degree)
    rng = np.random.default_rng(degree)
    # random polynomial of total degree <= degree
    coeffs = rng.standard_normal(len(basis.exponents))

    def poly(p):
        return (p[:, :1] ** basis.exponents[:, 0] * p[:, 1:] ** basis.exponents[:, 1]) @ coeffs

    nodal = poly(basis.nodes)
    pts = _random_reference_points(rng, 20)
    np.testing.assert_allclose(basis.eval(pts) @ nodal, poly(pts), atol=1e-11)


@pytest.mark.parametrize("degree", range(1, MAX_BASIS_DEGREE + 1))
def test_edge_nodes_are_the_lattice_nodes_on_each_edge(degree):
    nodes = lagrange_basis(degree).nodes
    table = edge_nodes(degree)
    assert table.shape == (3, degree + 1)
    for e in range(3):
        a, b = REFERENCE_TRIANGLE[e], REFERENCE_TRIANGLE[(e + 1) % 3]
        rel = nodes - a
        on_edge = np.abs(rel[:, 0] * (b - a)[1] - rel[:, 1] * (b - a)[0]) < 1e-12
        np.testing.assert_array_equal(np.sort(table[e]), np.flatnonzero(on_edge))


def test_degree1_vertex_gradient():
    grads = lagrange_basis(1).grad(np.array([[0.0, 0.0]]))[0]
    np.testing.assert_allclose(grads[0], [-1.0, -1.0], atol=1e-14)


def test_mapped_directional_derivative_of_linear():
    """beta . grad of the interpolant of beta . x is exactly 1 on a mapped cell.

    On the reference cell beta . grad becomes b . grad with b = J^-1 beta.
    """
    beta = np.array([0.6, 0.8])
    basis = lagrange_basis(2)
    jac = np.array([[0.5, 0.1], [-0.2, 0.7]])
    offset = np.array([0.3, 0.4])
    phys_nodes = basis.nodes @ jac.T + offset
    nodal = phys_nodes @ beta
    b = np.linalg.solve(jac, beta)
    for point in [(0.1, 0.1), (0.5, 0.25), (0.0, 0.9)]:
        grads = basis.grad(np.array([point]))[0]
        assert abs(nodal @ grads @ b - 1.0) < 1e-12


def test_basis_degree_out_of_range():
    with pytest.raises(ValueError):
        lagrange_basis(MAX_BASIS_DEGREE + 1)


def test_eval_outside_reference_triangle():
    with pytest.raises(ValueError):
        lagrange_basis(1).eval(np.array([[2.0, 2.0]]))


# ------------------------------------------------------------ quadrature


def test_quadrature_constants_and_monomials():
    quad = make_quadrature(4)
    assert abs(quad.weights.sum() - 0.5) < 1e-15
    assert abs(quad.weights @ quad.points[:, 0] - 1.0 / 6.0) < 1e-15
    assert abs(quad.weights @ (quad.points[:, 0] ** 2 * quad.points[:, 1]) - 1.0 / 60.0) < 1e-15


def _exact_monomial_integral(i, j):
    """int_T x^i y^j over the reference triangle."""
    from math import factorial

    return factorial(i) * factorial(j) / factorial(i + j + 2)


@pytest.mark.parametrize("degree", range(13))
def test_quadrature_exactness(degree):
    quad = make_quadrature(degree)
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            approx = quad.weights @ (quad.points[:, 0] ** i * quad.points[:, 1] ** j)
            assert abs(approx - _exact_monomial_integral(i, j)) < 1e-14


@pytest.mark.parametrize("degree", range(0, 12, 3))
def test_edge_quadrature_exactness(degree):
    """The edge rule of the oracle in test_forms: n Gauss-Legendre points on [0, 1] are exact to 2n - 1."""
    points, weights = gauss_legendre(degree // 2 + 1)
    for k in range(degree + 1):
        assert abs(weights @ points**k - 1.0 / (k + 1)) < 1e-14


def test_quadrature_degree_out_of_range():
    with pytest.raises(ValueError):
        make_quadrature(13)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_rules_match_scipy_special(n):
    """Legendre and Jacobi, the two factors of every triangle rule (n <= 7); Legendre up to n = 12."""
    from scipy.special import roots_jacobi, roots_legendre

    x, w = roots_legendre(n)
    nodes, weights = gauss_legendre(n)
    np.testing.assert_allclose(nodes, (x + 1.0) / 2.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(weights, w / 2.0, rtol=0, atol=1e-14)
    if n <= MAX_QUADRATURE_DEGREE // 2 + 1:
        x, w = roots_jacobi(n, 1.0, 0.0)
        nodes, weights = gauss_jacobi(n)
        np.testing.assert_allclose(nodes, (x + 1.0) / 2.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(weights, w / 4.0, rtol=0, atol=1e-14)


def test_a_solve_does_not_import_scipy_special():
    import dpgtransport

    script = (
        "import sys\n"
        "from dpgtransport import cli\n"
        "cli.solve_level(cli.RunConfig(levels=(0,)), 0)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = str(Path(dpgtransport.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False"]


# -------------------------------------------------------------- DOF maps


def test_phi_dof_count_level0():
    pair = MeshPair(build_uniform_mesh(0), 0)
    assert build_dof_map(SpaceKind.BROKEN_COARSE, pair, 1).ndofs == 6


def test_theta_dof_count_level0():
    pair = MeshPair(build_uniform_mesh(0), 0)
    assert build_dof_map(SpaceKind.CONTINUOUS, pair, 2).ndofs == 9  # 4 vertices + 5 edges


def test_test_search_dof_count():
    pair = MeshPair(build_uniform_mesh(0), 1)
    # continuous P3 on a once-refined triangle: 6 vertices + 9 edges x 2 + 4 interior
    assert len(submesh_dofs(3, pair.level)[1]) == 28


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dof_count_formulas(level, degree):
    mesh = build_uniform_mesh(level)
    pair = MeshPair(mesh, 0)
    n = mesh.n_cells
    broken = build_dof_map(SpaceKind.BROKEN_COARSE, pair, degree)
    assert broken.ndofs == n * (degree + 1) * (degree + 2) // 2
    if degree == 2:
        n_edges = len(mesh_faces(mesh))
        cont = build_dof_map(SpaceKind.CONTINUOUS, pair, 2)
        assert cont.ndofs == mesh.n_vertices + n_edges


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("perturbed", [False, True])
def test_trace_space_lives_on_the_skeleton(perturbed, m):
    """Every theta DOF lies on an edge of each cell that holds it, there are
    V + (m - 1) E of them, and each reaches G_K."""
    mesh = perturbed_mesh(2) if perturbed else build_uniform_mesh(2)
    pair = MeshPair(mesh, 1)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, pair, m)
    assert theta_map.ndofs == mesh.n_vertices + (m - 1) * len(mesh_faces(mesh))

    offsets = trace_node_coords(mesh, theta_map)[theta_map.cell_dofs] - mesh.vertices[mesh.cells[:, :1]]
    x, y = np.moveaxis(np.einsum("cij,cnj->cni", np.linalg.inv(mesh.jacobians()), offsets), -1, 0)
    assert np.abs(np.minimum(np.minimum(x, y), 1.0 - x - y)).max() < 1e-12  # a barycentric coordinate is 0

    _, g = local_saddle_blocks(transport_form(m, BENCHMARK_BETA, 0.0), np.arange(mesh.n_cells), pair)
    theta_columns = g[:, :, lagrange_basis(m - 1).size :]
    assert theta_columns.shape[2] == theta_map.cell_dofs.shape[1]
    assert (np.abs(theta_columns).max(axis=1) > 1e-8 * np.abs(g).max()).all()


def _dict_numbering(mesh, degree):
    """Reference continuous numbering of the skeleton nodes: one cell and one node at a time, by first appearance."""
    nodes = lagrange_basis(degree).nodes[skeleton_nodes(degree)]
    index: dict[tuple[int, int], int] = {}
    coords = []
    cell_dofs = np.empty((mesh.n_cells, len(nodes)), dtype=int)
    for c in range(mesh.n_cells):
        v = mesh.vertices[mesh.cells[c]]
        jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
        for i, p in enumerate(nodes @ jac.T + v[0]):
            key = (round(p[0] * 1e10), round(p[1] * 1e10))
            if key not in index:
                index[key] = len(coords)
                coords.append(p)
            cell_dofs[c, i] = index[key]
    return cell_dofs, np.array(coords)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("level", range(1, 5))
def test_continuous_numbering_matches_first_appearance_reference(level, perturbed):
    """The nested-dissection numbering is the first-appearance reference up to a relabelling of its DOFs."""
    mesh = perturbed_mesh(level) if perturbed else build_uniform_mesh(level)
    pair = MeshPair(mesh, 0)
    for degree in range(1, 5):
        dof_map = build_dof_map(SpaceKind.CONTINUOUS, pair, degree)
        cell_dofs, coords = _dict_numbering(mesh, degree)
        assert dof_map.ndofs == len(coords)
        relabel = np.full(len(coords), -1)
        relabel[cell_dofs] = dof_map.cell_dofs
        np.testing.assert_array_equal(relabel[cell_dofs], dof_map.cell_dofs)
        np.testing.assert_array_equal(np.sort(relabel), np.arange(len(coords)))
        np.testing.assert_allclose(trace_node_coords(mesh, dof_map)[relabel], coords, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("cells", ["one", "level 0"])
@pytest.mark.parametrize("degree", range(1, 5))
def test_small_meshes_number_by_first_appearance(cells, degree):
    """A mesh of at most ND_LEAF_CELLS cells is one leaf: its numbering is the first-appearance one."""
    if cells == "one":
        mesh = TriMesh(REFERENCE_TRIANGLE, np.array([[0, 1, 2]]))
    else:
        mesh = build_uniform_mesh(0)
    assert mesh.n_cells <= ND_LEAF_CELLS
    dof_map = build_dof_map(SpaceKind.CONTINUOUS, MeshPair(mesh, 0), degree)
    np.testing.assert_array_equal(dof_map.cell_dofs, _dict_numbering(mesh, degree)[0])


def _numbering_meshes():
    for level in (2, 3, 5):
        yield f"uniform-{level}", build_uniform_mesh(level)
        yield f"perturbed-{level}", perturbed_mesh(level)
        yield f"jittered-{level}", jittered_mesh(level)


@pytest.mark.parametrize("m", range(1, 5))
def test_trace_numbering_is_a_bijection(m):
    """The numbers are range(V + (m - 1) E), each names one node wherever a cell holds it, and ndofs is a Python int."""
    for name, mesh in _numbering_meshes():
        dof_map = build_dof_map(SpaceKind.CONTINUOUS, MeshPair(mesh, 0), m)
        n_edges = int(mesh.edges.ids.max()) + 1
        assert type(dof_map.ndofs) is int, name
        assert dof_map.ndofs == mesh.n_vertices + (m - 1) * n_edges, name
        np.testing.assert_array_equal(np.unique(dof_map.cell_dofs), np.arange(dof_map.ndofs), err_msg=name)
        nodes = mesh.map_points(lagrange_basis(m).nodes[: 3 * m])  # one number, one node
        np.testing.assert_allclose(trace_node_coords(mesh, dof_map)[dof_map.cell_dofs], nodes, rtol=0.0, atol=1e-15)


def test_top_separator_is_numbered_after_both_halves():
    """At level 4 the first cut is the line y = 1/2: the DOFs on it come last, after every DOF inside either half."""
    mesh = build_uniform_mesh(4)
    dof_map = build_dof_map(SpaceKind.CONTINUOUS, MeshPair(mesh, 0), 2)
    below = mesh.vertices[mesh.cells].mean(axis=1)[:, 1] < 0.5
    in_below, in_above = np.zeros(dof_map.ndofs, dtype=bool), np.zeros(dof_map.ndofs, dtype=bool)
    in_below[dof_map.cell_dofs[below]] = True
    in_above[dof_map.cell_dofs[~below]] = True
    separator = np.flatnonzero(in_below & in_above)
    assert len(separator) == 17 + 16  # the vertices and edge midpoints on y = 1/2
    np.testing.assert_allclose(trace_node_coords(mesh, dof_map)[separator, 1], 0.5, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(separator, np.arange(dof_map.ndofs - len(separator), dof_map.ndofs))


def _row_keys(case):
    rng = np.random.default_rng(5)
    if case == "wide":  # a naive x * span + y composite overflows int64
        keys = rng.integers(-10**10, 10**10, size=(400, 2))
        assert float(np.ptp(keys[:, 0]) + 1) * float(np.ptp(keys[:, 1]) + 1) > 2.0**63
        return keys
    if case == "duplicates":
        pool = rng.integers(-10**10, 10**10, size=(30, 2))
        pool[:10, 0] = pool[10:20, 0]  # rows that share their first column
        return pool[rng.integers(0, len(pool), size=500)]
    if case == "single":
        return np.array([[-(10**10), 10**10]])
    if case == "four_columns":
        return rng.integers(-2, 3, size=(300, 4))
    if case == "signed_zeros":  # float keys compare by value, as in np.unique
        return rng.choice([-0.0, 0.0, 0.5, -1e-12, 1e-12], size=(200, 4))
    raise ValueError(case)


@pytest.mark.parametrize("case", ["wide", "duplicates", "single", "four_columns", "signed_zeros"])
def test_row_ids_match_unique_rows(case):
    keys = _row_keys(case)
    np.testing.assert_array_equal(row_ids(keys), np.unique(keys, axis=0, return_inverse=True)[1].ravel())
    for got, want in zip(first_appearance(keys), first_appearance_reference(keys)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("level", range(1, 6))
def test_first_appearance_matches_unique_rows_on_jittered_mesh(level):
    mesh = perturbed_mesh(level)
    keys = np.round(mesh.vertices[mesh.cells].reshape(-1, 2) * 1e10).astype(np.int64)
    for got, want in zip(first_appearance(keys), first_appearance_reference(keys)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("m", range(1, 5))
def test_shared_vertex_gets_one_dof_where_rounded_coordinates_disagree(m):
    """Vertex 1 is corner 0 of cell 0 and corner 2 of cell 1.  Mapped from cell
    1, its x is 0.1 + (0.46027149335 - 0.1), which falls on the other side of
    a 1e-10 rounding step than 0.46027149335 itself: a numbering keyed on
    rounded coordinates gives it two DOFs."""
    vertices = np.array([[0.1, 0.1], [0.46027149335, 0.2], [0.05, 0.6], [0.9, 0.05]])
    mesh = TriMesh(vertices, np.array([[1, 2, 0], [0, 3, 1]]))
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, MeshPair(mesh, 0), m)
    assert theta_map.ndofs == mesh.n_vertices + (m - 1) * len(mesh_faces(mesh))
    assert theta_map.cell_dofs[0, 0] == theta_map.cell_dofs[1, 2]


def test_continuous_space_edge_agreement():
    """A global continuous function is single-valued across interior edges."""
    mesh = build_uniform_mesh(1)
    pair = MeshPair(mesh, 0)
    dof_map = build_dof_map(SpaceKind.CONTINUOUS, pair, 2)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(dof_map.ndofs)
    basis = lagrange_basis(2)

    def eval_on_cell(cell, phys_points):
        v = mesh.vertices[mesh.cells[cell]]
        jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
        ref = (phys_points - v[0]) @ np.linalg.inv(jac).T
        return basis.eval(ref) @ coeffs[dof_map.cell_dofs[cell]]

    params = np.linspace(0.1, 0.9, 5)[:, None]
    for face in mesh_faces(mesh):
        if face.boundary:
            continue
        a, b = mesh.vertices[list(face.vertex_ids)]
        pts = a + params * (b - a)
        left = eval_on_cell(face.cells[0], pts)
        right = eval_on_cell(face.cells[1], pts)
        np.testing.assert_allclose(left, right, atol=1e-12)
