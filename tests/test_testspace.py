import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgtransport import testspace
from dpgtransport.forms import local_saddle_blocks, transport_form
from dpgtransport.mesh import MeshPair, TriMesh, build_uniform_mesh
from dpgtransport.solve import NotPositiveDefiniteError
from dpgtransport.testspace import (
    cell_blocks,
    class_members,
    compute_coefficients,
    geometry_classes,
    near_optimal_local_matrix,
)

from conftest import BENCHMARK_BETA, perturbed_mesh


def test_scalar_coefficients():
    c = compute_coefficients(np.array([[2.0]]), np.array([[3.0]]))
    np.testing.assert_allclose(c, [[1.5]], atol=1e-14)


def test_identity_gram_returns_g():
    g = np.arange(6.0).reshape(3, 2)
    c = compute_coefficients(np.eye(3), g)
    np.testing.assert_allclose(c, g, atol=1e-14)


def test_two_by_two_hand_solve():
    b = np.array([[4.0, 2.0], [2.0, 3.0]])
    g = np.array([[2.0], [1.0]])
    c = compute_coefficients(b, g)
    np.testing.assert_allclose(c, [[0.5], [0.0]], atol=1e-14)


def test_indefinite_gram_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        compute_coefficients(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0], [1.0]]))


@given(n=st.integers(1, 12), m=st.integers(1, 6), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_defining_relation_random(n, m, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    b = r.T @ r + n * np.eye(n)
    g = rng.standard_normal((n, m))
    c = compute_coefficients(b, g)
    assert np.abs(b @ c - g).max() < 1e-10


def test_near_optimal_matrix_scalar():
    np.testing.assert_allclose(
        near_optimal_local_matrix(np.array([[2.0]]), np.array([[1.0]])), [[2.0]]
    )


def test_near_optimal_matrix_zero_g():
    g = np.zeros((4, 3))
    c = compute_coefficients(np.eye(4), g)
    np.testing.assert_array_equal(near_optimal_local_matrix(g, c), 0.0)


def test_near_optimal_matrix_against_dense_oracle():
    rng = np.random.default_rng(42)
    r = rng.standard_normal((4, 4))
    b = r.T @ r + 4 * np.eye(4)
    g = rng.standard_normal((4, 3))
    c = compute_coefficients(b, g)
    oracle = g.T @ np.linalg.solve(b, g)
    np.testing.assert_allclose(near_optimal_local_matrix(g, c), oracle, atol=1e-12)


# ------------------------------------------------------- geometry classes


def test_translated_cells_share_key():
    # lower triangles of adjacent squares are translates of each other
    classes = geometry_classes(build_uniform_mesh(1))[1]
    assert classes[0] == classes[2]
    assert classes[0] != classes[1]


def test_reflected_cell_gets_fresh_key():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    mesh = TriMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))  # cell 1 mirrors cell 0 in x = 0
    representatives, classes = geometry_classes(mesh)
    assert classes[0] != classes[1]
    np.testing.assert_array_equal(np.sort(representatives), [0, 1])


def test_translated_cells_get_identical_blocks():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    c0, a0 = cell_blocks(0, pair, form)
    c2, a2 = cell_blocks(2, pair, form)
    np.testing.assert_array_equal(c0, c2)
    np.testing.assert_array_equal(a0, a2)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_uniform_mesh_has_two_congruence_classes(level):
    mesh = build_uniform_mesh(level)
    representatives, classes = geometry_classes(mesh)
    np.testing.assert_array_equal(np.sort(representatives), [0, 1])  # the first lower and upper cell
    np.testing.assert_array_equal(classes[::2], classes[0])  # every lower triangle
    np.testing.assert_array_equal(classes[1::2], classes[1])  # every upper triangle
    members = class_members(classes)
    assert sorted(len(m) for m in members) == [mesh.n_cells // 2] * 2
    for k, cells in enumerate(members):
        assert cells[0] == representatives[k] and np.all(classes[cells] == k)
        assert np.all(np.diff(cells) > 0)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("level", range(1, 6))
def test_geometry_classes_match_unique_rows(level, perturbed):
    mesh = perturbed_mesh(level) if perturbed else build_uniform_mesh(level)
    keys = np.round(mesh.jacobians().reshape(mesh.n_cells, 4), testspace.KEY_DIGITS)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    representatives, classes = geometry_classes(mesh)
    np.testing.assert_array_equal(representatives, first)
    np.testing.assert_array_equal(classes, inverse.ravel())


def test_perturbed_mesh_has_one_class_per_cell():
    mesh = perturbed_mesh(2)
    representatives, classes = geometry_classes(mesh)
    np.testing.assert_array_equal(np.sort(representatives), np.arange(mesh.n_cells))
    np.testing.assert_array_equal(representatives[classes], np.arange(mesh.n_cells))


# ------------------------------------------------------ method properties


def test_defining_relation_on_mesh():
    """B_K C_K = G_K, the variational characterization, on every cell."""
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    for cell in range(pair.coarse.n_cells):
        b, g = local_saddle_blocks(form, cell, pair)
        c = compute_coefficients(b, g)
        assert np.abs(b @ c - g).max() < 1e-10


def test_energy_identity_and_psd():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    for cell in range(pair.coarse.n_cells):
        b, g = local_saddle_blocks(form, cell, pair)
        c = compute_coefficients(b, g)
        a = near_optimal_local_matrix(g, c)
        # (A_K)_ii is the test-norm energy of the i-th near-optimal function
        energies = np.einsum("ji,jk,ki->i", c, b, c)
        np.testing.assert_allclose(np.diag(a), energies, atol=1e-11)
        assert np.linalg.eigvalsh(a).min() > -1e-10


def test_cell_id_reported_on_failure(monkeypatch):
    pair = MeshPair(build_uniform_mesh(0), 0)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    b, g = local_saddle_blocks(form, 0, pair)
    singular = b.copy()
    singular[:, 0] = singular[0, :] = 0.0  # first test DOF has zero energy

    # the local solve must fail and the error must say which cell
    monkeypatch.setattr(testspace, "local_saddle_blocks", lambda *args: (singular, g))
    with pytest.raises(NotPositiveDefiniteError, match="cell 0"):
        cell_blocks(0, pair, form)
