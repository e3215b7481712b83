import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgtransport import testspace
from dpgtransport.forms import local_saddle_blocks, transport_form
from dpgtransport.mesh import MeshPair, TriMesh, build_uniform_mesh
from dpgtransport.solve import NotPositiveDefiniteError
from dpgtransport.testspace import (
    CoefficientCache,
    TestCoefficients as Coefficients,  # alias keeps pytest from collecting it
    cell_blocks,
    compute_coefficients,
    geometry_key,
    near_optimal_load,
    near_optimal_local_matrix,
)

from conftest import BENCHMARK_BETA


def test_scalar_coefficients():
    c = compute_coefficients(np.array([[2.0]]), np.array([[3.0]]))
    np.testing.assert_allclose(c.matrix, [[1.5]], atol=1e-14)


def test_identity_gram_returns_g():
    g = np.arange(6.0).reshape(3, 2)
    c = compute_coefficients(np.eye(3), g)
    np.testing.assert_allclose(c.matrix, g, atol=1e-14)


def test_two_by_two_hand_solve():
    b = np.array([[4.0, 2.0], [2.0, 3.0]])
    g = np.array([[2.0], [1.0]])
    c = compute_coefficients(b, g)
    np.testing.assert_allclose(c.matrix, [[0.5], [0.0]], atol=1e-14)


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
    assert np.abs(b @ c.matrix - g).max() < 1e-10


def test_near_optimal_matrix_scalar():
    c = Coefficients(np.array([[1.0]]))
    np.testing.assert_allclose(
        near_optimal_local_matrix(np.array([[2.0]]), np.array([[2.0]]), c), [[2.0]]
    )


def test_near_optimal_matrix_zero_g():
    g = np.zeros((4, 3))
    c = compute_coefficients(np.eye(4), g)
    np.testing.assert_array_equal(near_optimal_local_matrix(np.eye(4), g, c), 0.0)


def test_near_optimal_matrix_against_dense_oracle():
    rng = np.random.default_rng(42)
    r = rng.standard_normal((4, 4))
    b = r.T @ r + 4 * np.eye(4)
    g = rng.standard_normal((4, 3))
    c = compute_coefficients(b, g)
    oracle = g.T @ np.linalg.solve(b, g)
    np.testing.assert_allclose(near_optimal_local_matrix(b, g, c), oracle, atol=1e-12)


def test_near_optimal_load_cases():
    assert near_optimal_load(Coefficients(np.array([[1.5]])), np.array([0.5]))[0] == 0.75
    load = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(near_optimal_load(Coefficients(np.eye(3)), load), load)
    np.testing.assert_array_equal(
        near_optimal_load(Coefficients(np.zeros((3, 2))), np.zeros(3)), 0.0
    )


# ------------------------------------------------------------------- cache


def test_translated_cells_share_key():
    mesh = build_uniform_mesh(1)
    # lower triangles of adjacent squares are translates of each other
    assert geometry_key(mesh.jacobian(0)) == geometry_key(mesh.jacobian(2))
    assert geometry_key(mesh.jacobian(0)) != geometry_key(mesh.jacobian(1))


def test_reflected_cell_gets_fresh_key():
    tri = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    mirrored = TriMesh(np.array([[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.array([[0, 1, 2]]))
    assert geometry_key(tri.jacobian(0)) != geometry_key(mirrored.jacobian(0))


def test_translated_cells_hit_cache_with_identical_coefficients():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    cache = CoefficientCache()
    c0, a0 = cell_blocks(0, pair, form, cache)
    c2, a2 = cell_blocks(2, pair, form, cache)
    assert cache.misses == 1 and cache.hits == 1
    assert c0.matrix is c2.matrix  # served from the cache, not recomputed
    np.testing.assert_array_equal(a0, a2)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_uniform_mesh_has_two_congruence_classes(level):
    mesh = build_uniform_mesh(level)
    pair = MeshPair(mesh, 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    cache = CoefficientCache()
    for cell in range(mesh.n_cells):
        cell_blocks(cell, pair, form, cache)
    n = mesh.n_cells
    assert cache.misses == 2
    assert cache.hits == n - 2
    assert cache.hit_rate >= (n - 2) / n


def test_cache_disabled_gives_same_blocks():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    cache = CoefficientCache()
    for cell in range(pair.coarse.n_cells):
        _, cached = cell_blocks(cell, pair, form, cache)
        _, fresh = cell_blocks(cell, pair, form, None)
        assert np.abs(cached - fresh).max() < 1e-13


# ------------------------------------------------------ method properties


def test_defining_relation_on_mesh():
    """B_K C_K = G_K, the variational characterization, on every cell."""
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    for cell in range(pair.coarse.n_cells):
        b, g = local_saddle_blocks(form, cell, pair)
        c = compute_coefficients(b, g)
        assert np.abs(b @ c.matrix - g).max() < 1e-10


def test_energy_identity_and_psd():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    for cell in range(pair.coarse.n_cells):
        b, g = local_saddle_blocks(form, cell, pair)
        c = compute_coefficients(b, g)
        a = near_optimal_local_matrix(b, g, c)
        # (A_K)_ii is the test-norm energy of the i-th near-optimal function
        energies = np.einsum("ji,jk,ki->i", c.matrix, b, c.matrix)
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
        cell_blocks(0, pair, form, None)
