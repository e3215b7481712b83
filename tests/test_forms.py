import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_rhs, jittered_mesh, perturbed_mesh, skeleton_nodes
from dpgtransport.fem import gauss_legendre, lagrange_basis, make_quadrature
from dpgtransport.forms import (
    _load_rule,
    _moments,
    _weighted_sum,
    local_load,
    local_saddle_blocks,
    submesh_dofs,
    transport_form,
)
from dpgtransport.mesh import MeshPair, TriMesh, build_uniform_mesh, reference_subcells, refine_cell

_REF_MESH = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))


def _ref_pair(level=0):
    return MeshPair(_REF_MESH, level)


def _form(m, beta, reaction, test_degree):
    """`transport_form` with another test degree, as the estimator builds its enriched form."""
    return replace(transport_form(m, beta, reaction), test_degree=test_degree)


# ------------------------------------------------------------ local blocks


def test_value_value_p0_is_area():
    """Constant test and phi functions: (v, w) and (phi, c v) are both the area; B_K weights (v, w) by 1 + c^2 = 2.

    v = w = 1 is the sum of the P1 test basis: its coefficient vector is all ones.
    """
    b, g = local_saddle_blocks(_form(1, (0.6, 0.8), 1.0, 1), 0, _ref_pair())
    ones = np.ones(3)
    np.testing.assert_allclose(ones @ b @ ones, 2 * 0.5, atol=1e-14)
    np.testing.assert_allclose(ones @ g[:, :1], [0.5], atol=1e-14)


def test_grad_value_barycentric():
    """-int (beta . grad lambda_0) * 1 = +1/2 for beta=(1,0)."""
    _, g = local_saddle_blocks(_form(1, (1.0, 0.0), 0.0, 1), 0, _ref_pair())
    assert abs(g[0, 0] - 0.5) < 1e-14


def test_normal_vector_divergence_theorem():
    """For constant v = theta = 1 the closed boundary integral of beta . n vanishes."""
    _, g = local_saddle_blocks(_form(1, (1.0, 0.0), 0.0, 1), 0, _ref_pair())
    assert abs(g[:, 1:].sum()) < 1e-14  # the P1 test and theta bases each sum to 1


def test_p1_mass_matrix():
    """B_K on P1: the mass matrix plus |K| (beta . grad lambda_i)(beta . grad lambda_j)."""
    beta = np.array([0.6, 0.8])
    b, _ = local_saddle_blocks(_form(1, beta, 0.0, 1), 0, _ref_pair())
    mass = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    slopes = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ beta
    np.testing.assert_allclose(b, mass + 0.5 * np.outer(slopes, slopes), atol=1e-14)


def _broken_coefficients_of_polynomial(poly, degree, mesh_pair, cell):
    """Coefficient vector representing a global polynomial in the degree-`degree` space on `mesh_pair`.

    The space is nodal, so the coefficients are the polynomial's values at the
    space's cell-local nodes, in the space's own DOF order.
    """
    v = mesh_pair.coarse.vertices[mesh_pair.coarse.cells[cell]]
    jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
    return poly(submesh_dofs(degree, mesh_pair.level)[1] @ jac.T + v[0])


@pytest.mark.parametrize("degree,levels", [(2, 0), (3, 1), (3, 2), (3, 3), (4, 1), (5, 2)])
def test_submesh_dofs_are_the_distinct_lagrange_nodes(degree, levels):
    """One DOF per node of the continuous space: the P_(degree*2^levels) lattice."""
    table, nodes = submesh_dofs(degree, levels)
    n = degree * 2**levels
    assert len(nodes) == (n + 1) * (n + 2) // 2
    assert len(np.unique(np.round(nodes * n).astype(int), axis=0)) == len(nodes)
    basis = lagrange_basis(degree)
    for t, sub in enumerate(reference_subcells(levels)):
        jac = np.column_stack([sub[1] - sub[0], sub[2] - sub[0]])
        np.testing.assert_allclose(nodes[table[t]], basis.nodes @ jac.T + sub[0], atol=1e-14)
    first_seen = np.unique(table.ravel(), return_index=True)[1]
    assert np.all(np.diff(first_seen) > 0)  # numbered in order of first appearance
    if levels == 0:
        np.testing.assert_array_equal(table, [np.arange(basis.size)])


def test_broken_vs_whole_consistency():
    """Sub-cell splitting is invisible when the test function is one polynomial."""
    poly = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1] + p[:, 0] * p[:, 1]
    form = _form(2, (0.6, 0.8), 0.5, 3)
    b_whole, g_whole = local_saddle_blocks(form, 0, _ref_pair(0))
    b_broken, g_broken = local_saddle_blocks(form, 0, _ref_pair(1))
    v_whole = poly(lagrange_basis(3).nodes)
    v_broken = _broken_coefficients_of_polynomial(poly, 3, _ref_pair(1), 0)
    np.testing.assert_allclose(v_broken @ g_broken, v_whole @ g_whole, atol=1e-12)
    assert abs(v_broken @ b_broken @ v_broken - v_whole @ b_whole @ v_whole) < 1e-12


def test_fine_face_jump_cancellation():
    """The theta term against a single polynomial reduces to the coarse boundary."""
    poly = lambda p: 0.5 - p[:, 0] + 3.0 * p[:, 1] + p[:, 0] ** 2
    form = _form(2, (0.6, 0.8), 0.0, 2)
    _, whole = local_saddle_blocks(form, 0, _ref_pair(0))
    _, broken = local_saddle_blocks(form, 0, _ref_pair(2))
    v_whole = poly(lagrange_basis(2).nodes)
    v_broken = _broken_coefficients_of_polynomial(poly, 2, _ref_pair(2), 0)
    # columns 3: hold the P2 theta DOFs, after the 3 P1 phi DOFs
    np.testing.assert_allclose(v_broken @ broken[:, 3:], v_whole @ whole[:, 3:], atol=1e-12)


# --------------------------------------------------------------- validation


def test_direction_must_be_unit():
    for beta in [(1.0, 1.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            transport_form(2, beta, 0.0)


# --------------------------------------------------------------- load/blocks


def _loads(rhs_f, pair, degree):
    """The (n_cells, N) loads, the product of the factors of `local_load`."""
    coefficients, basis = local_load(rhs_f, pair, degree)
    return coefficients @ basis


def test_load_zero_rhs():
    for zero in (0.0, lambda p: np.zeros(len(p))):
        out = _loads(zero, _ref_pair(1), 2)
        np.testing.assert_array_equal(out, 0.0)


def test_load_constant_p0():
    """(1, v) for the constant v = 1, the sum of the P1 test basis, is the area."""
    for one in (1.0, lambda p: np.ones(len(p))):
        out = _loads(one, _ref_pair(), 1)
        np.testing.assert_allclose(out.sum(axis=1), [0.5], atol=1e-14)


def test_load_constant_p1():
    for one in (1.0, lambda p: np.ones(len(p))):
        out = _loads(one, _ref_pair(), 1)
        np.testing.assert_allclose(out, [[1.0 / 6.0] * 3], atol=1e-14)


# (degree, levels): the test-search spaces at test refinement 0..3, and the
# enriched spaces, one polynomial per coarse cell, on level 0
_CONSTANT_LOAD_SPACES = [(m + 1, (0, 1, 2, 3)) for m in range(1, 5)] + [(p, (0,)) for p in range(1, 6)]


_CONSTANT_LOAD_MESHES = {
    "uniform": lambda: build_uniform_mesh(2),
    "jittered": lambda: jittered_mesh(2),
    # vertices moved by 1e-13 H: two geometry classes, whose cells' areas differ by up to 4e-13
    "nudged": lambda: perturbed_mesh(2, fraction=1e-13),
}


@pytest.mark.parametrize("degree,levels", _CONSTANT_LOAD_SPACES)
@pytest.mark.parametrize("mesh", _CONSTANT_LOAD_MESHES)
@pytest.mark.parametrize("value", [1.0, -2.5, 0.0])
def test_constant_load_matches_the_callable(value, mesh, degree, levels):
    """A number as f gives the loads of the callable that returns it everywhere.

    The test-search spaces at test refinement 0..3 and the enriched spaces of
    degree 1..5, on the uniform mesh, the benchmark's jittered one, whose
    cells all differ in area, and a nudged uniform one, whose cells differ in
    area from the other cells of their geometry class.  The number's loads
    are one coefficient per cell times one basis row.  Some loads vanish
    exactly (the vertex functions of P2, for one), so each cell's loads are
    compared relative to its largest one.
    """
    for ell in levels:
        pair = MeshPair(_CONSTANT_LOAD_MESHES[mesh](), ell)
        expected = _loads(constant_rhs(value), pair, degree)
        coefficients, basis = local_load(value, pair, degree)
        assert coefficients.shape == (pair.coarse.n_cells, 1) and basis.shape == (1, expected.shape[1])
        loads = coefficients @ basis
        assert loads.shape == expected.shape
        scale = np.abs(expected).max(axis=1, keepdims=True)
        assert (np.abs(loads - expected) <= 1e-14 * scale).all()


def _quartic(p):
    x, y = p[:, 0], p[:, 1]
    return 1.0 + x - 2.0 * x * y + 3.0 * y**2 + x**2 * y**2


def _per_cell_loads(pair, degree):
    """The loads of the degree-`degree` space on `pair`.

    By a loop over cells and physical subcells, with the degree-12 rule.
    """
    ell = pair.level
    table, nodes = submesh_dofs(degree, ell)
    basis = lagrange_basis(degree)
    quad = make_quadrature(12)
    values = basis.eval(quad.points)
    expected = np.zeros((pair.coarse.n_cells, len(nodes)))
    for cell in range(pair.coarse.n_cells):
        for t, sub in enumerate(refine_cell(pair.coarse.vertices[pair.coarse.cells[cell]], ell)):
            jac = np.column_stack([sub[1] - sub[0], sub[2] - sub[0]])
            f = _quartic(quad.points @ jac.T + sub[0])
            np.add.at(expected[cell], table[t], abs(np.linalg.det(jac)) * (quad.weights * f) @ values)
    return expected


@pytest.mark.parametrize("ell", range(3))
@pytest.mark.parametrize("m", range(1, 5))
def test_load_matches_per_cell_quadrature(m, ell):
    """All cells at once against a loop over cells and physical subcells.

    A quartic f times a test function of degree <= 5 is integrated exactly by
    both the load rule and the degree-12 rule of the loop.
    """
    pair = MeshPair(perturbed_mesh(1), ell)
    degree = transport_form(m, (1.0, 0.0), 0.0).test_degree
    expected = _per_cell_loads(pair, degree)
    loads = _loads(_quartic, pair, degree)
    assert loads.shape == expected.shape
    assert np.abs(loads - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("p", range(1, 6))
def test_unbroken_load_matches_per_cell_quadrature(p):
    """The single-polynomial spaces of the estimator, against the same loop."""
    pair = MeshPair(perturbed_mesh(1), 0)
    expected = _per_cell_loads(pair, p)
    loads = _loads(_quartic, pair, p)
    assert loads.shape == expected.shape
    assert np.abs(loads - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("degree,level", [(3, 1), (5, 0)])
def test_load_calls_rhs_once_with_all_points(degree, level):
    pair = MeshPair(perturbed_mesh(2), level)
    calls = []

    def rhs_f(points):
        calls.append(points.shape)
        return _quartic(points)

    local_load(rhs_f, pair, degree)
    n_points = len(_load_rule(degree, level)[0])
    assert calls == [(pair.coarse.n_cells * n_points, 2)]


@pytest.mark.parametrize("degree, levels", [(1, 0), (3, 1), (5, 0), (4, 2)])
def test_load_rule_is_read_only(degree, levels):
    points, loads, column_sums = _load_rule(degree, levels)
    assert loads.shape == (len(points), len(submesh_dofs(degree, levels)[1]))
    np.testing.assert_array_equal(column_sums, loads.sum(axis=0))
    for a in (points, loads, column_sums):
        assert not a.flags.writeable


def test_saddle_blocks_p0():
    """The constant test function, the sum of the P1 test basis, against the P0 phi."""
    b, g = local_saddle_blocks(_form(1, (1.0, 0.0), 0.0, 1), 0, _ref_pair())
    ones = np.ones(3)
    np.testing.assert_allclose(ones @ b @ ones, 0.5, atol=1e-14)  # the gradient of a constant vanishes
    np.testing.assert_allclose(ones @ g[:, :1], [0.0], atol=1e-14)


def test_transport_forms_shapes_and_spd():
    beta = np.array([np.cos(0.3), np.sin(0.3)])
    form = transport_form(2, beta, 0.5)
    b, g = local_saddle_blocks(form, 0, _ref_pair(1))
    # continuous cubics on the 4 subcells: 6 vertex + 9 edges x 2 + 4 interior DOFs
    assert b.shape == (28, 28)
    assert g.shape == (28, 9)  # 3 phi + 6 theta trial DOFs
    np.testing.assert_allclose(b, b.T, atol=1e-13)
    assert np.linalg.eigvalsh(b).min() > 0.0


def _term_by_term(weights, terms):
    """sum_t weights[..., t] terms[t] by a Python loop over t, in the order t = 0, 1, ..."""
    total = weights[..., 0, None, None] * terms[0]
    for t in range(1, len(terms)):
        total += weights[..., t, None, None] * terms[t]
    return total


@pytest.mark.parametrize(
    "which,stack", [(0, (512,)), (1, (12,)), (0, ()), (1, ())], ids=["B-stack", "G-stack", "B-cell", "G-cell"]
)
def test_weighted_sum_adds_the_terms_in_order(which, stack):
    """B_K and G_K are the term-by-term sums bit for bit, and a stack's are its cells' alone."""
    terms = _moments(4, 1, 3)[which]  # m = 3, test-search degree 4 on one refinement
    weights = np.random.default_rng(which).standard_normal(stack + (len(terms),))
    total = _weighted_sum(weights, terms)
    np.testing.assert_array_equal(total, _term_by_term(weights, terms))
    for cell_weights, cell_total in zip(weights.reshape(-1, len(terms)), total.reshape(-1, *terms.shape[1:])):
        np.testing.assert_array_equal(_weighted_sum(cell_weights, terms), cell_total)


# ------------------------------------------------------- brute-force oracle


def _brute_force_blocks(form, cell, mesh_pair):
    """B_K and G_K by a loop over subcells and quadrature points in physical coordinates.

    Returns `(M, S, G_0, P)` with B_K = (1 + c^2) M + S, M the mass term and S
    the streamline term, and G_K = G_0 + c P.  The theta term is integrated
    over every edge of every subcell: on edges inside the coarse cell the
    two sides cancel for continuous test functions.  Its columns are the
    theta basis functions of the nodes on the cell's edges.
    """
    mesh = mesh_pair.coarse
    jac, v0 = mesh.jacobians()[cell], mesh.vertices[mesh.cells[cell]][0]
    beta = np.array(form.beta)
    levels = mesh_pair.level
    table, nodes = submesh_dofs(form.test_degree, levels)
    test = lagrange_basis(form.test_degree)
    phi, theta = lagrange_basis(form.degree - 1), lagrange_basis(form.degree)
    on_edges = skeleton_nodes(form.degree)
    quad = make_quadrature(2 * test.degree)  # exact for every product below
    edge = gauss_legendre(test.degree + 1)  # exact to degree 2 deg + 1
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def coarse_ref(x):
        return np.linalg.solve(jac, x - v0)[None]

    n = len(nodes)
    mass, stiff = np.zeros((n, n)), np.zeros((n, n))
    g0 = np.zeros((n, phi.size + len(on_edges)))
    p = np.zeros((n, phi.size))
    for t, sub in enumerate(reference_subcells(levels)):
        corners = sub @ jac.T + v0
        jac_s = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
        area = abs(np.linalg.det(jac_s))
        m_t, s_t = np.zeros((test.size, test.size)), np.zeros((test.size, test.size))
        for xi, w in zip(quad.points, quad.weights):
            v = test.eval(xi[None])[0]
            dv = test.grad(xi[None])[0] @ np.linalg.solve(jac_s, beta)  # beta . grad v
            u = phi.eval(coarse_ref(corners[0] + jac_s @ xi))[0]
            m_t += w * area * np.outer(v, v)
            s_t += w * area * np.outer(dv, dv)
            g0[table[t], : phi.size] -= w * area * np.outer(dv, u)
            p[table[t]] += w * area * np.outer(v, u)
        mass[np.ix_(table[t], table[t])] += m_t
        stiff[np.ix_(table[t], table[t])] += s_t
        for k in range(3):
            tangent = corners[(k + 1) % 3] - corners[k]
            length = np.hypot(*tangent)
            flux = beta @ np.array([tangent[1], -tangent[0]]) / length  # beta . outward normal
            for s, w in zip(*edge):
                v = test.eval((unit[k] + s * (unit[(k + 1) % 3] - unit[k]))[None])[0]
                u = theta.eval(coarse_ref(corners[k] + s * tangent))[0, on_edges]
                g0[table[t], phi.size :] += w * length * flux * np.outer(v, u)
    return mass, stiff, g0, p


@pytest.mark.parametrize("ell", range(3))
@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("perturbed", [False, True])
def test_local_saddle_blocks_match_brute_force_oracle(perturbed, m, ell):
    mesh = perturbed_mesh(1) if perturbed else build_uniform_mesh(1)
    # (degree, level): the test-search space on ell, and the enriched space,
    # one polynomial per cell, on level 0
    spaces = [(m + 1, ell)] + ([(5, 0)] if ell == 0 else [])
    # cells 0, 3, 6, 5: two lower triangles and two upper ones; at pi / 2 the
    # vertical edges are characteristic only up to rounding (cos = 6e-17)
    for cell, angle in zip((0, 3, 6, 5), (0.0, math.pi / 8, 2.0, math.pi / 2)):
        beta = (math.cos(angle), math.sin(angle))
        for degree, level in spaces:
            pair = MeshPair(mesh, level)
            mass, stiff, g0_ref, p_ref = _brute_force_blocks(_form(m, beta, 0.0, degree), cell, pair)
            for c in (0.0, 0.5, 1.0):  # 0.5 tells the weight 1 + c^2 from 1 + c
                b, g = local_saddle_blocks(_form(m, beta, c, degree), cell, pair)
                b_ref = (1.0 + c**2) * mass + stiff
                g_ref = g0_ref.copy()
                g_ref[:, : p_ref.shape[1]] += c * p_ref
                assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()
                assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
