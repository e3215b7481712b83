import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    BENCHMARK_BETA,
    boundary_faces,
    constant_rhs,
    mesh_faces,
    no_load,
    outward_normal,
    perturbed_mesh,
    solve_transport,
    trace_node_coords,
)
from dpgtransport.assembly import (
    CHARACTERISTIC_TOL,
    GlobalSystem,
    apply_dirichlet,
    assemble,
    back_substitute,
    characteristic_theta_dofs,
    inflow_mask,
    pin_characteristic_dofs,
)
from dpgtransport import assembly, estimator, testspace
from dpgtransport.cli import RunConfig, solve_level
from dpgtransport.estimator import a_posteriori_error
from dpgtransport.fem import SpaceKind, build_dof_map
from dpgtransport.forms import local_load, local_saddle_blocks, transport_form
from dpgtransport.mesh import MeshPair, TriMesh, build_uniform_mesh
from dpgtransport.testspace import compute_coefficients


def _setup(level, ell, beta, m=2, mesh_builder=build_uniform_mesh, reaction=0.0):
    mesh_pair = MeshPair(mesh_builder(level), ell)
    form = transport_form(m, beta, reaction)
    phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, mesh_pair, m - 1)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, mesh_pair, m)
    return mesh_pair, form, phi_map, theta_map


def dense_oracle(mesh_pair, form, phi_map, theta_map, rhs_f):
    """Brute-force A and F: global scattered G against block-diagonal B."""
    n_phi = phi_map.ndofs
    n = n_phi + theta_map.ndofs
    blocks_b, blocks_g, gdofs = [], [], []
    coefficients, basis = local_load(rhs_f, mesh_pair, form.test_degree)
    loads = coefficients @ basis
    for cell in range(mesh_pair.coarse.n_cells):
        b_k, g_k = local_saddle_blocks(form, cell, mesh_pair)
        blocks_b.append(b_k)
        blocks_g.append(g_k)
        gdofs.append(
            np.concatenate([phi_map.cell_dofs[cell], n_phi + theta_map.cell_dofs[cell]])
        )
    m_total = sum(b.shape[0] for b in blocks_b)
    big_b = np.zeros((m_total, m_total))
    big_g = np.zeros((m_total, n))
    big_l = np.zeros(m_total)
    row = 0
    for b_k, g_k, l_k, dofs in zip(blocks_b, blocks_g, loads, gdofs):
        mk = b_k.shape[0]
        big_b[row : row + mk, row : row + mk] = b_k
        big_g[np.ix_(range(row, row + mk), dofs)] += g_k
        big_l[row : row + mk] = l_k
        row += mk
    solved = np.linalg.solve(big_b, np.column_stack([big_g, big_l]))
    a = big_g.T @ solved[:, :-1]
    f = big_g.T @ solved[:, -1]
    return a, f


def per_cell_matrix(mesh_pair, form, phi_map, theta_map):
    """The uncondensed A, one local solve per cell, each through the stacked kernel alone, scattered densely."""
    n_phi = phi_map.ndofs
    a = np.zeros((n_phi + theta_map.ndofs,) * 2)
    for cell in range(mesh_pair.coarse.n_cells):
        b_k, g_k = local_saddle_blocks(form, cell, mesh_pair)
        z_k = compute_coefficients(b_k, g_k, no_load(b_k), cell)[1]
        dofs = np.concatenate([phi_map.cell_dofs[cell], n_phi + theta_map.cell_dofs[cell]])
        a[np.ix_(dofs, dofs)] += z_k.T @ z_k  # A_K
    return a


def schur_complement(a, f, n_phi):
    """Dense trace system of the full (a, f), phi first: R - Q^T P^-1 Q and f_theta - Q^T P^-1 f_phi."""
    p, q, r = a[:n_phi, :n_phi], a[:n_phi, n_phi:], a[n_phi:, n_phi:]
    w = np.linalg.solve(p, np.column_stack([q, f[:n_phi]]))
    return r - q.T @ w[:, :-1], f[n_phi:] - q.T @ w[:, -1]


def test_zero_rhs_gives_zero_load():
    mesh_pair, form, phi_map, theta_map = _setup(1, 1, BENCHMARK_BETA)
    system = assemble(form, mesh_pair, (phi_map, theta_map), constant_rhs(0.0))
    np.testing.assert_array_equal(system.rhs, 0.0)
    np.testing.assert_array_equal(system.phi_load, 0.0)


def test_single_cell_mesh_matches_local_block():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]))
    mesh_pair = MeshPair(mesh, 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, mesh_pair, 1)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, mesh_pair, 2)
    system = assemble(form, mesh_pair, (phi_map, theta_map), constant_rhs())
    b_k, g_k = local_saddle_blocks(form, 0, mesh_pair)
    z_k = compute_coefficients(b_k, g_k, no_load(b_k), 0)[1]
    a_k = z_k.T @ z_k
    s_k, _ = schur_complement(a_k, np.zeros(len(a_k)), phi_map.ndofs)
    np.testing.assert_allclose(system.matrix.toarray(), s_k, atol=1e-14)


@pytest.mark.parametrize(
    "level,ell,mesh_builder",
    [(0, 0, build_uniform_mesh), (0, 1, build_uniform_mesh), (1, 1, build_uniform_mesh), (1, 1, perturbed_mesh)],
    ids=["0-0", "0-1", "1-1", "perturbed-1-1"],
)
def test_assembly_matches_dense_oracle(level, ell, mesh_builder):
    """A callable source, and a number, whose oracle takes the callable that returns it everywhere.

    At c = 0 a constant source loads no phi column: its Riesz lift is the
    constant, on which beta . grad vanishes.  So the number runs at c = 1 too.
    """
    callable_f = lambda p: 1.0 + p[:, 0] * p[:, 1]  # differs between the cells of one class
    for reaction in (0.0, 1.0):
        mesh_pair, form, phi_map, theta_map = _setup(
            level, ell, BENCHMARK_BETA, mesh_builder=mesh_builder, reaction=reaction
        )
        for rhs_f, oracle_f in ((callable_f, callable_f), (2.5, constant_rhs(2.5))):
            system = assemble(form, mesh_pair, (phi_map, theta_map), rhs_f)
            a, f = dense_oracle(mesh_pair, form, phi_map, theta_map, oracle_f)
            s, g = schur_complement(a, f, phi_map.ndofs)
            assert np.abs(system.matrix.toarray() - s).max() < 1e-11
            assert np.abs(system.rhs - g).max() < 1e-11


@pytest.mark.parametrize("level", range(3))
def test_assembled_matrix_symmetric(level):
    mesh_pair, form, phi_map, theta_map = _setup(level, 1, BENCHMARK_BETA)
    system = assemble(form, mesh_pair, (phi_map, theta_map), constant_rhs())
    # assemble relies on tocsr() summing duplicates and sorting indices; a fresh matrix
    # over the same arrays checks the arrays themselves, not the flag tocsr() set
    matrix = system.matrix
    assert matrix.has_canonical_format
    assert sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape).has_canonical_format

    def asymmetry(matrix):
        diff = matrix - matrix.T
        return np.abs(diff.data).max() if diff.nnz else 0.0

    scale = np.abs(system.matrix.data).max()
    assert asymmetry(system.matrix) <= 1e-11 * scale
    free = apply_dirichlet(system, inflow_mask(theta_map, mesh_pair.coarse, BENCHMARK_BETA)).free
    assert asymmetry(system.matrix[free][:, free]) <= 1e-11 * scale


def test_scatter_linearity():
    mesh_pair, form, phi_map, theta_map = _setup(1, 1, BENCHMARK_BETA)
    f1 = lambda p: p[:, 0]
    f2 = lambda p: np.cos(p[:, 1])
    both = lambda p: f1(p) + f2(p)
    rhs1 = assemble(form, mesh_pair, (phi_map, theta_map), f1).rhs
    rhs2 = assemble(form, mesh_pair, (phi_map, theta_map), f2).rhs
    rhs12 = assemble(form, mesh_pair, (phi_map, theta_map), both).rhs
    assert np.abs(rhs12 - (rhs1 + rhs2)).max() < 1e-13


# ------------------------------------------------------------- constraints


def _toy_system():
    """One cell with one phi DOF and two theta DOFs: A = [[1, 1, 0], [1, 3, 1], [0, 1, 2]], F = (1, 2, 1).

    Eliminating phi leaves S = [[2, 1], [1, 2]], g = (1, 1), W = [[1, 0]] and y = 1.
    """
    matrix = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    return GlobalSystem(
        matrix,
        np.array([1.0, 1.0]),
        free=np.ones(2, dtype=bool),
        coupling=np.array([[[1.0, 0.0]]]),
        classes=np.array([0]),
        phi_load=np.array([[1.0]]),
        gram_cond=1.0,
    )


def test_toy_system_is_the_schur_complement():
    a = np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    toy = _toy_system()
    s, g = schur_complement(a, np.array([1.0, 2.0, 1.0]), 1)
    np.testing.assert_array_equal(toy.matrix.toarray(), s)
    np.testing.assert_array_equal(toy.rhs, g)


def test_dirichlet_zero_value():
    before = _toy_system()
    after = apply_dirichlet(before, np.array([True, False]))
    np.testing.assert_array_equal(after.free, [False, True])
    assert after.matrix is before.matrix and after.rhs is before.rhs
    np.testing.assert_array_equal(before.free, [True, True])  # the input is not modified
    np.testing.assert_allclose(after.matrix[after.free][:, after.free].toarray(), [[2.0]])
    np.testing.assert_allclose(after.rhs[after.free], [1.0])
    # the full toy system with theta_0 = 0 eliminated: [[1, 0], [0, 2]] (phi, theta_1) = (1, 1)
    a = np.array([[1.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    s, g = schur_complement(a[np.ix_([0, 2], [0, 2])], np.array([1.0, 1.0]), 1)
    np.testing.assert_allclose(after.matrix[after.free][:, after.free].toarray(), s)
    np.testing.assert_allclose(after.rhs[after.free], g)


def test_dirichlet_no_marked_dofs():
    before = _toy_system()
    after = apply_dirichlet(before, np.array([False, False]))
    np.testing.assert_array_equal(after.free, [True, True])
    np.testing.assert_array_equal(after.matrix.toarray(), before.matrix.toarray())
    np.testing.assert_array_equal(after.rhs, before.rhs)


def test_dirichlet_mask_size_checked():
    with pytest.raises(ValueError):
        apply_dirichlet(_toy_system(), np.array([True]))
    with pytest.raises(ValueError):
        apply_dirichlet(_toy_system(), np.array([True, False, False]))  # sized to all DOFs


# ------------------------------------------------------------ inflow masks


def test_inflow_mask_benchmark_beta():
    mesh_pair, _, _, theta_map = _setup(1, 0, BENCHMARK_BETA)
    mask = inflow_mask(theta_map, mesh_pair.coarse, BENCHMARK_BETA)
    nodes = trace_node_coords(mesh_pair.coarse, theta_map)
    expected = (np.abs(nodes[:, 0]) < 1e-12) | (np.abs(nodes[:, 1]) < 1e-12)
    np.testing.assert_array_equal(mask, expected)


def test_inflow_mask_axis_aligned_beta():
    beta = np.array([1.0, 0.0])
    mesh_pair, _, _, theta_map = _setup(1, 0, beta)
    mask = inflow_mask(theta_map, mesh_pair.coarse, beta)
    nodes = trace_node_coords(mesh_pair.coarse, theta_map)
    expected = np.abs(nodes[:, 0]) < 1e-12
    np.testing.assert_array_equal(mask, expected)


def test_inflow_corner_marked_once():
    mesh_pair, _, _, theta_map = _setup(1, 0, BENCHMARK_BETA)
    mask = inflow_mask(theta_map, mesh_pair.coarse, BENCHMARK_BETA)
    nodes = trace_node_coords(mesh_pair.coarse, theta_map)
    corner = np.flatnonzero((np.abs(nodes[:, 0]) < 1e-12) & (np.abs(nodes[:, 1]) < 1e-12))
    assert len(corner) == 1 and mask[corner[0]]


# ------------------------------------------------------ characteristic DOFs


def test_no_characteristic_dofs_for_benchmark_beta():
    mesh_pair, _, _, theta_map = _setup(2, 0, BENCHMARK_BETA)
    assert len(characteristic_theta_dofs(theta_map, mesh_pair.coarse, BENCHMARK_BETA)) == 0


def test_characteristic_dofs_horizontal_beta():
    beta = np.array([1.0, 0.0])
    mesh_pair, _, _, theta_map = _setup(1, 0, beta)
    pinned = characteristic_theta_dofs(theta_map, mesh_pair.coarse, beta)
    nodes = trace_node_coords(mesh_pair.coarse, theta_map)
    # exactly the midpoints of horizontal edges: y on the grid, x off the grid
    on_grid = lambda t: np.abs(t * 2.0 - np.round(t * 2.0)) < 1e-12
    expected = np.flatnonzero(on_grid(nodes[:, 1]) & ~on_grid(nodes[:, 0]))
    np.testing.assert_array_equal(np.sort(pinned), np.sort(expected))


def test_characteristic_dofs_vertical_beta():
    beta = np.array([0.0, 1.0])
    mesh_pair, _, _, theta_map = _setup(1, 0, beta)
    pinned = characteristic_theta_dofs(theta_map, mesh_pair.coarse, beta)
    nodes = trace_node_coords(mesh_pair.coarse, theta_map)
    on_grid = lambda t: np.abs(t * 2.0 - np.round(t * 2.0)) < 1e-12
    expected = np.flatnonzero(on_grid(nodes[:, 0]) & ~on_grid(nodes[:, 1]))
    np.testing.assert_array_equal(np.sort(pinned), np.sort(expected))


def test_pinning_leaves_phi_block_untouched():
    beta = np.array([1.0, 0.0])
    mesh_pair, form, phi_map, theta_map = _setup(1, 0, beta)
    system = assemble(form, mesh_pair, (phi_map, theta_map), constant_rhs())
    pinned = pin_characteristic_dofs(system, theta_map, mesh_pair.coarse, beta)
    assert len(pinned.free) == theta_map.ndofs  # the mask is over theta only; phi is eliminated
    assert not pinned.free.all()
    assert pinned.matrix is system.matrix and pinned.rhs is system.rhs
    assert pinned.coupling is system.coupling and pinned.phi_load is system.phi_load
    # pinning restricts the trace system as symmetric elimination does the full one
    a, f = dense_oracle(mesh_pair, form, phi_map, theta_map, constant_rhs())
    keep = np.concatenate([np.ones(phi_map.ndofs, dtype=bool), pinned.free])
    s, g = schur_complement(a[np.ix_(keep, keep)], f[keep], phi_map.ndofs)
    free = pinned.free
    assert np.abs(pinned.matrix[free][:, free].toarray() - s).max() < 1e-11
    assert np.abs(pinned.rhs[free] - g).max() < 1e-11


# ------------------------------------------- restriction to the free DOFs


def eliminated_reference(mesh_pair, form, phi_map, theta_map, rhs_f, beta):
    """Dense solve of the uncondensed, symmetrically eliminated system: P A P + (I - P), P F.

    A and F come from the dense oracle; P zeroes the inflow and characteristic
    theta DOFs.  Returns the solution and the mask of the DOFs P keeps.
    """
    mesh = mesh_pair.coarse
    a, f = dense_oracle(mesh_pair, form, phi_map, theta_map, rhs_f)
    fixed = np.concatenate(
        [np.flatnonzero(inflow_mask(theta_map, mesh, beta)), characteristic_theta_dofs(theta_map, mesh, beta)]
    )
    keep = np.ones(len(f))
    keep[phi_map.ndofs + fixed] = 0.0
    matrix = keep[:, None] * a * keep + np.diag(1.0 - keep)
    return np.linalg.solve(matrix, keep * f), keep == 1.0


@pytest.mark.parametrize("angle", [np.pi / 8, 0.0], ids=["pi/8", "axis"])
def test_restricted_solve_matches_symmetric_elimination(angle):
    config = RunConfig(levels=(2,), beta_angle=angle)
    solution, row = solve_level(config, 2)
    beta = config.beta
    mesh_pair, form, phi_map, theta_map = _setup(2, config.test_refine, beta, m=config.degree)
    reference, free = eliminated_reference(mesh_pair, form, phi_map, theta_map, constant_rhs(config.rhs_const), beta)
    x = solution.solution
    assert row.converged and row.ndof == len(x) == len(reference)
    if angle == 0.0:  # beta = (1, 0) makes the horizontal edges characteristic
        assert len(characteristic_theta_dofs(solution.theta_map, solution.mesh_pair.coarse, config.beta)) > 0
    np.testing.assert_array_equal(x[~free], 0.0)
    assert np.abs(x - reference).max() <= 1e-8 * np.abs(reference).max()


@pytest.mark.parametrize("angle", [np.pi / 8, 0.0], ids=["pi/8", "axis"])
@pytest.mark.parametrize("reaction", [0.0, 1.0])
@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("mesh_builder", [build_uniform_mesh, perturbed_mesh], ids=["uniform", "perturbed"])
def test_condensed_solve_matches_dense_full_solve(mesh_builder, m, reaction, angle):
    """phi eliminated per class, the trace solved and phi recovered: the dense full solve."""
    beta = np.array([np.cos(angle), np.sin(angle)])
    rhs_f = lambda p: 1.0 + p[:, 0] * p[:, 1]
    run = solve_transport(2, 1, beta, m=m, rhs_f=rhs_f, mesh_builder=mesh_builder, reaction=reaction)
    assert run["cg"].converged
    reference, free = eliminated_reference(
        run["mesh_pair"], run["form"], run["phi_map"], run["theta_map"], rhs_f, beta
    )
    x = run["x"]
    np.testing.assert_array_equal(x[~free], 0.0)
    assert np.abs(x - reference).max() <= 1e-8 * np.abs(reference).max()


def test_back_substitution_recovers_phi_per_cell():
    mesh_pair, form, phi_map, theta_map = _setup(1, 1, BENCHMARK_BETA, mesh_builder=perturbed_mesh)
    rhs_f = lambda p: 1.0 + p[:, 0] * p[:, 1]
    system = assemble(form, mesh_pair, (phi_map, theta_map), rhs_f)
    theta = np.random.default_rng(4).standard_normal(theta_map.ndofs)
    x = back_substitute(system, (phi_map, theta_map), theta)
    a, f = dense_oracle(mesh_pair, form, phi_map, theta_map, rhs_f)
    n_phi = phi_map.ndofs
    # the phi rows of A x = F hold for any theta
    residual = a[:n_phi] @ x - f[:n_phi]
    assert np.abs(residual).max() < 1e-10 * np.abs(f[:n_phi]).max()
    np.testing.assert_array_equal(x[n_phi:], theta)


def half_perturbed_mesh(level):
    """`perturbed_mesh` with only its interior vertices at x < 1/2 moved: one-member and many-member classes."""
    mesh, moved = build_uniform_mesh(level), perturbed_mesh(level)
    vertices = mesh.vertices.copy()
    left = vertices[:, 0] < 0.5
    vertices[left] = moved.vertices[left]
    return TriMesh(vertices, mesh.cells)


@pytest.mark.parametrize(
    "mesh_builder,m,chunk_bytes",
    [
        (build_uniform_mesh, 2, 1),
        (perturbed_mesh, 3, 1),
        (perturbed_mesh, 3, 70000),
        (half_perturbed_mesh, 3, 70000),
    ],
    ids=["uniform-one-class", "perturbed-one-class", "perturbed-uneven", "half-perturbed-mixed-counts"],
)
def test_chunks_do_not_change_the_system(monkeypatch, mesh_builder, m, chunk_bytes):
    """Trace system, couplings, phi loads and every eta_K are the one-chunk ones, bit for bit.

    Where classes differ in their member counts, the one chunk applies the
    class operators in several groups, and so do some of the smaller chunks.
    The source is a callable, then a number.
    """
    mesh_pair, form, phi_map, theta_map = _setup(2, 1, BENCHMARK_BETA, m=m, mesh_builder=mesh_builder)
    dof_maps = (phi_map, theta_map)

    def run(rhs_f):
        system = assemble(form, mesh_pair, dof_maps, rhs_f)
        x = np.random.default_rng(8).standard_normal(phi_map.ndofs + theta_map.ndofs)
        return system, a_posteriori_error(form, mesh_pair, dof_maps, x, rhs_f).cell_indicators_sq

    sizes, member_counts = [], []

    def spy(*args):
        for chunk in testspace.class_chunks(*args):
            sizes.append(len(chunk[1]))
            member_counts.append({len(cells) for cells in chunk[2]})
            yield chunk

    for rhs_f in (lambda p: 1.0 + p[:, 0] * p[:, 1], 2.5):
        sizes.clear()
        member_counts.clear()
        with monkeypatch.context() as patch:
            patch.setattr(testspace, "CHUNK_BYTES", 2**40)
            whole, whole_eta = run(rhs_f)
            patch.setattr(testspace, "CHUNK_BYTES", chunk_bytes)
            patch.setattr(assembly, "class_chunks", spy)
            patch.setattr(estimator, "class_chunks", spy)
            chunked, chunked_eta = run(rhs_f)
        classes = len(whole.coupling)
        assert sum(sizes) == 2 * classes and len(sizes) > 2  # assembly's chunks, then the estimator's
        if chunk_bytes > 1:
            assert len(set(sizes)) > 2  # chunks of two sizes, and a shorter last one
        if len({len(cells) for cells in mesh_pair.coarse.class_members}) > 1:
            assert max(map(len, member_counts)) > 1  # some chunk groups its classes by member count
        assert (chunked.matrix != whole.matrix).nnz == 0
        for name in ("rhs", "coupling", "phi_load"):
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))
        np.testing.assert_array_equal(chunked_eta, whole_eta)


# ------------------------------------- geometric brute-force constraint oracle


def _nodes_on_segment(nodes, a, b, tol=1e-10):
    t = b - a
    length = np.hypot(*t)
    rel = nodes - a
    cross = np.abs(rel[:, 0] * t[1] - rel[:, 1] * t[0]) / length
    proj = (rel @ t) / length**2
    return (cross <= tol) & (proj >= -tol) & (proj <= 1.0 + tol)


def reference_inflow_mask(theta_map, mesh, beta):
    """Every boundary face against every trace node, normals from the face table."""
    mask = np.zeros(theta_map.ndofs, dtype=bool)
    nodes = trace_node_coords(mesh, theta_map)
    for face in boundary_faces(mesh):
        if np.dot(beta, outward_normal(mesh, face, face.cells[0])) < -CHARACTERISTIC_TOL:
            a, b = mesh.vertices[list(face.vertex_ids)]
            mask |= _nodes_on_segment(nodes, a, b)
    return mask


def reference_characteristic_dofs(theta_map, mesh, beta):
    """Trace nodes on no face with |beta . n| > tol, by a geometric search."""
    has_live_edge = np.zeros(theta_map.ndofs, dtype=bool)
    nodes = trace_node_coords(mesh, theta_map)
    for face in mesh_faces(mesh):
        a, b = mesh.vertices[list(face.vertex_ids)]
        tangent = (b - a) / np.hypot(*(b - a))
        if abs(beta[0] * tangent[1] - beta[1] * tangent[0]) > CHARACTERISTIC_TOL:
            has_live_edge |= _nodes_on_segment(nodes, a, b)
    return np.flatnonzero(~has_live_edge)


# pi/4 makes the uniform mesh's diagonals characteristic.
ORACLE_ANGLES = (0.0, np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi, 1.0)


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("level", range(1, 5))
def test_constraints_match_geometric_oracle(level, perturbed):
    mesh = perturbed_mesh(level) if perturbed else build_uniform_mesh(level)
    pair = MeshPair(mesh, 0)
    for m in range(1, 5):
        theta_map = build_dof_map(SpaceKind.CONTINUOUS, pair, m)
        for angle in ORACLE_ANGLES:
            beta = np.array([np.cos(angle), np.sin(angle)])
            np.testing.assert_array_equal(
                inflow_mask(theta_map, mesh, beta), reference_inflow_mask(theta_map, mesh, beta)
            )
            np.testing.assert_array_equal(
                characteristic_theta_dofs(theta_map, mesh, beta),
                reference_characteristic_dofs(theta_map, mesh, beta),
            )


def test_constraints_need_the_continuous_trace_space():
    mesh_pair, _, phi_map, _ = _setup(1, 0, BENCHMARK_BETA)
    with pytest.raises(ValueError):
        inflow_mask(phi_map, mesh_pair.coarse, BENCHMARK_BETA)
