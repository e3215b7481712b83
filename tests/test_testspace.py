import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgtransport import solve, testspace
from dpgtransport.assembly import assemble
from dpgtransport.estimator import a_posteriori_error
from dpgtransport.fem import SpaceKind, build_dof_map
from dpgtransport.forms import BilinearForm, InnerProduct, local_load, local_saddle_blocks, transport_form
from dpgtransport.mesh import KEY_DIGITS, MeshPair, TriMesh, build_uniform_mesh
from dpgtransport.solve import NotPositiveDefiniteError
from dpgtransport.testspace import compute_coefficients

from conftest import BENCHMARK_BETA, constant_rhs, near_optimal_coefficients, no_load, perturbed_mesh


def _coefficients(b, g):
    """C_K = L_K^-T Z_K from the blocks of one cell."""
    return near_optimal_coefficients(*compute_coefficients(b, g, no_load(b), 0))


def _near_optimal_matrix(b, g):
    """A_K = Z_K^T Z_K from the blocks of one cell."""
    z = compute_coefficients(b, g, no_load(b), 0)[1]
    return z.T @ z


def test_scalar_coefficients():
    c = _coefficients(np.array([[2.0]]), np.array([[3.0]]))
    np.testing.assert_allclose(c, [[1.5]], atol=1e-14)


def test_identity_gram_returns_g():
    g = np.arange(6.0).reshape(3, 2)
    c = _coefficients(np.eye(3), g)
    np.testing.assert_allclose(c, g, atol=1e-14)


def test_two_by_two_hand_solve():
    b = np.array([[4.0, 2.0], [2.0, 3.0]])
    g = np.array([[2.0], [1.0]])
    c = _coefficients(b, g)
    np.testing.assert_allclose(c, [[0.5], [0.0]], atol=1e-14)


def test_indefinite_gram_rejected():
    with pytest.raises(NotPositiveDefiniteError):
        _coefficients(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0], [1.0]]))


@given(n=st.integers(1, 12), m=st.integers(1, 6), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_defining_relation_random(n, m, seed):
    """B_K C_K = G_K on a stack of three random SPD blocks."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((3, n, n))
    b = r.transpose(0, 2, 1) @ r + n * np.eye(n)
    g = rng.standard_normal((3, n, m))
    lower, z = compute_coefficients(b, g, no_load(b), np.arange(3))
    c = near_optimal_coefficients(lower, z)
    assert np.abs(b @ c - g).max() < 1e-10


def test_near_optimal_matrix_scalar():
    b = np.array([[2.0]])
    np.testing.assert_allclose(_near_optimal_matrix(b, np.array([[2.0]])), [[2.0]])


def test_near_optimal_matrix_zero_g():
    b = np.eye(4)
    np.testing.assert_array_equal(_near_optimal_matrix(b, np.zeros((4, 3))), 0.0)


def test_near_optimal_matrix_against_dense_oracle():
    rng = np.random.default_rng(42)
    r = rng.standard_normal((4, 4))
    b = r.T @ r + 4 * np.eye(4)
    g = rng.standard_normal((4, 3))
    oracle = g.T @ np.linalg.solve(b, g)
    np.testing.assert_allclose(_near_optimal_matrix(b, g), oracle, atol=1e-12)


# ------------------------------------------------------- geometry classes


def test_translated_cells_share_key():
    # lower triangles of adjacent squares are translates of each other
    classes = build_uniform_mesh(1).geometry_classes[1]
    assert classes[0] == classes[2]
    assert classes[0] != classes[1]


def test_reflected_cell_gets_fresh_key():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    mesh = TriMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]]))  # cell 1 mirrors cell 0 in x = 0
    representatives, classes = mesh.geometry_classes
    assert classes[0] != classes[1]
    np.testing.assert_array_equal(np.sort(representatives), [0, 1])


def test_translated_cells_get_identical_blocks():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    basis = local_load(1.0, pair, form.test_degree)[1]
    blocks = []
    for cell in (0, 2):
        lower, lifted = compute_coefficients(*local_saddle_blocks(form, cell, pair), basis, cell)
        z, z_load = lifted[:, : -len(basis)], lifted[:, -len(basis) :]
        blocks.append((near_optimal_coefficients(lower, z), z.T @ z, z_load.T @ z))  # C_K, A_K and F_K
    for first, second in zip(*blocks):
        np.testing.assert_array_equal(first, second)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_uniform_mesh_has_two_congruence_classes(level):
    mesh = build_uniform_mesh(level)
    representatives, classes = mesh.geometry_classes
    np.testing.assert_array_equal(np.sort(representatives), [0, 1])  # the first lower and upper cell
    np.testing.assert_array_equal(classes[::2], classes[0])  # every lower triangle
    np.testing.assert_array_equal(classes[1::2], classes[1])  # every upper triangle
    members = mesh.class_members
    assert mesh.class_members is members  # once per mesh
    assert not any(cells.flags.writeable for cells in members)
    assert sorted(len(m) for m in members) == [mesh.n_cells // 2] * 2
    for k, cells in enumerate(members):
        assert cells[0] == representatives[k] and np.all(classes[cells] == k)
        assert np.all(np.diff(cells) > 0)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("level", range(1, 6))
def test_geometry_classes_match_unique_rows(level, perturbed):
    mesh = perturbed_mesh(level) if perturbed else build_uniform_mesh(level)
    keys = np.round(mesh.jacobians().reshape(mesh.n_cells, 4), KEY_DIGITS)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    representatives, classes = mesh.geometry_classes
    np.testing.assert_array_equal(representatives, first)
    np.testing.assert_array_equal(classes, inverse.ravel())


def test_perturbed_mesh_has_one_class_per_cell():
    mesh = perturbed_mesh(2)
    representatives, classes = mesh.geometry_classes
    np.testing.assert_array_equal(np.sort(representatives), np.arange(mesh.n_cells))
    np.testing.assert_array_equal(representatives[classes], np.arange(mesh.n_cells))


# ------------------------------------------------------ method properties


def test_defining_relation_on_mesh():
    """B_K C_K = G_K, the variational characterization, on every cell."""
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    for cell in range(pair.coarse.n_cells):
        b, g = local_saddle_blocks(form, cell, pair)
        lower, z = compute_coefficients(b, g, no_load(b), cell)
        c = near_optimal_coefficients(lower, z)
        assert np.abs(b @ c - g).max() < 1e-10


def test_energy_identity_and_psd():
    pair = MeshPair(build_uniform_mesh(1), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    for cell in range(pair.coarse.n_cells):
        b, g = local_saddle_blocks(form, cell, pair)
        lower, z = compute_coefficients(b, g, no_load(b), cell)
        c, a = near_optimal_coefficients(lower, z), z.T @ z
        # (A_K)_ii is the test-norm energy of the i-th near-optimal function
        energies = np.einsum("ji,jk,ki->i", c, b, c)
        np.testing.assert_allclose(np.diag(a), energies, atol=1e-11)
        assert np.linalg.eigvalsh(a).min() > -1e-10


def _class_blocks(form, cells, pair):
    b, g = local_saddle_blocks(form, cells, pair)
    basis = local_load(1.0, pair, form.test_degree)[1]
    lower, lifted = compute_coefficients(b, g, basis, cells)
    return b, g, lower, lifted, lifted.mT @ lifted


@pytest.mark.parametrize("ell", range(3))
@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("perturbed", [False, True])
def test_class_blocks_do_not_depend_on_the_stack(perturbed, m, ell):
    """B, G, L, Y = L^-1 [G | basis^T] and H = Y^T Y of a class are bit-identical alone, in the full stack and shuffled.

    Y determines C = L^-T Z, Z its first columns, so C is too; A = Z^T Z and
    F are blocks of H, the Gram matrix that `assemble` condenses.
    """
    pair = MeshPair(perturbed_mesh(1) if perturbed else build_uniform_mesh(1), ell)
    form = transport_form(m, BENCHMARK_BETA, 0.5)
    representatives = pair.coarse.geometry_classes[0]
    stacked = _class_blocks(form, representatives, pair)
    order = np.random.default_rng(m + 10 * ell).permutation(len(representatives))
    shuffled = _class_blocks(form, representatives[order], pair)
    for k, cell in enumerate(representatives):
        single = _class_blocks(form, [cell], pair)
        scalar = _class_blocks(form, cell, pair)
        for full, mixed, one, alone in zip(stacked, shuffled, single, scalar):
            np.testing.assert_array_equal(one[0], full[k])
            np.testing.assert_array_equal(alone, full[k])
            np.testing.assert_array_equal(mixed[np.flatnonzero(order == k)[0]], full[k])


def _corrupt(method, target, level):
    """`method` (a block kernel of forms) with the block of the cell `target` made singular.

    Only blocks over a mesh pair of refinement `level` are changed: the
    test-search space's pair, or the enriched space's, of level 0.  A Gram
    matrix loses the energy of its first test DOF; G loses the first phi
    DOF, so row and column 0 of A vanish.
    """

    def corrupted(self, cells, pair):
        matrix = method(self, cells, pair)
        if pair.level == level:
            hit = np.ravel(cells) == target
            matrix[hit, :, 0] = 0.0
            if isinstance(self, InnerProduct):
                matrix[hit, 0, :] = 0.0
        return matrix

    return corrupted


def test_cell_id_reported_on_failure(monkeypatch):
    """A singular Gram matrix, phi block or enriched Gram matrix names its class's representative cell.

    The failing class is neither the first class nor in the first chunk,
    nor first in its own chunk.
    """
    pair = MeshPair(perturbed_mesh(2), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    dof_maps = build_dof_map(SpaceKind.BROKEN_COARSE, pair, 1), build_dof_map(SpaceKind.CONTINUOUS, pair, 2)
    target = pair.coarse.geometry_classes[0][7]
    monkeypatch.setattr(testspace, "CHUNK_BYTES", 30000)  # 3 classes per chunk in assembly, 5 in the estimator
    cases = [
        (InnerProduct, "local_gram", 1, "Gram matrix"),
        (BilinearForm, "local_matrix", 1, "phi block"),
        (InnerProduct, "local_gram", 0, "enriched Gram matrix"),
    ]
    for kernel, name, level, what in cases:
        with monkeypatch.context() as patch:
            patch.setattr(kernel, name, _corrupt(getattr(kernel, name), target, level))
            with pytest.raises(NotPositiveDefiniteError, match=rf"^{what} indefinite on cell {target}: matrix [1-9]"):
                assemble(form, pair, dof_maps, constant_rhs())
                a_posteriori_error(form, pair, dof_maps, np.zeros(sum(m.ndofs for m in dof_maps)), constant_rhs())


def test_local_solves_run_no_lu_larger_than_two_by_two(monkeypatch):
    """The local blocks are solved through their Cholesky factors, never by an LU or an explicit inverse.

    The only dense solve left is the stacked J^-1 beta of the cells' 2x2
    Jacobians.  A first run fills the caches of the reference-element bases
    and moments, which invert their Vandermonde matrices once.
    """
    pair = MeshPair(perturbed_mesh(2), 1)
    form = transport_form(3, BENCHMARK_BETA, 0.0)
    dof_maps = build_dof_map(SpaceKind.BROKEN_COARSE, pair, 2), build_dof_map(SpaceKind.CONTINUOUS, pair, 3)

    def run():
        assemble(form, pair, dof_maps, constant_rhs())
        a_posteriori_error(form, pair, dof_maps, np.ones(sum(m.ndofs for m in dof_maps)), constant_rhs())

    run()
    shapes = []

    def spy(function):
        def spied(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return function(a, *args, **kwargs)

        return spied

    monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", spy(np.linalg.inv))
    run()
    assert shapes, "the spy saw no call; J^-1 beta should have gone through it"
    assert all(shape[-2:] == (2, 2) for shape in shapes), shapes


def test_local_solves_take_one_column_per_load_basis_row(monkeypatch):
    """With a number as the source, each class's solves take one load column, not one per test function.

    At m = 3 and l = 1 the Gram solve (N = 45) is one triangular solve
    against G_K and the constant load: k + theta size + 1 = 6 + 9 + 1
    columns.  The solve with P (6 x 6) takes Q and the one phi load, 9 + 1,
    and the estimator's lift (N = 21) takes Gbar_K and the one load, 15 + 1.
    """
    pair = MeshPair(perturbed_mesh(2), 1)
    form = transport_form(3, BENCHMARK_BETA, 0.0)
    dof_maps = build_dof_map(SpaceKind.BROKEN_COARSE, pair, 2), build_dof_map(SpaceKind.CONTINUOUS, pair, 3)
    solve_each, solves = solve._solve_each, set()

    def spied(routine, lower, rhs, **options):
        solves.add((routine, np.shape(lower)[-1], np.shape(rhs)[-1]))
        return solve_each(routine, lower, rhs, **options)

    monkeypatch.setattr(solve, "_solve_each", spied)
    assemble(form, pair, dof_maps, 2.5)
    a_posteriori_error(form, pair, dof_maps, np.ones(sum(m.ndofs for m in dof_maps)), 2.5)
    assert solves == {(solve.dtrtrs, 45, 16), (solve.dpotrs, 6, 10), (solve.dtrtrs, 21, 16)}
