import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgtransport.solve import (
    PANEL_SIZE,
    SYMMETRY_TOL,
    NotPositiveDefiniteError,
    backward_error,
    cg_solve,
    cholesky_factor,
    cholesky_solve,
    triangular_solve,
)

from conftest import BENCHMARK_BETA, jittered_mesh, solve_transport, use_wrong_trace_factor
from dpgtransport.cli import ROUNDING_FACTOR, RunConfig, solve_level
from dpgtransport.mesh import build_uniform_mesh

EPS = np.finfo(float).eps


# ----------------------------------------------------------------- Cholesky


def test_factor_scalar():
    np.testing.assert_allclose(cholesky_factor(np.array([[4.0]])), [[2.0]])


def test_factor_identity():
    np.testing.assert_allclose(cholesky_factor(np.eye(3)), np.eye(3), atol=1e-15)


def test_factor_two_by_two():
    factor = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(factor, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], atol=1e-14)


def test_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_factor_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


@given(n=st.integers(1, 50), seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_factor_reconstructs_random_spd(n, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    a = r.T @ r + n * np.eye(n)
    lower = cholesky_factor(a)
    assert np.abs(lower @ lower.T - a).max() < 1e-11 * np.abs(a).max()
    assert np.diag(lower).min() > 0.0


def _random_spd(rng, n):
    r = rng.standard_normal((n, n))
    return r.T @ r + n * np.eye(n)


def test_stacked_factor_matches_each_matrix_alone():
    rng = np.random.default_rng(5)
    stack = np.stack([_random_spd(rng, 6) for _ in range(7)])
    lower = cholesky_factor(stack)
    assert lower.shape == stack.shape
    for matrix, factor in zip(stack, lower):
        np.testing.assert_array_equal(cholesky_factor(matrix), factor)
        np.testing.assert_array_equal(cholesky_factor(matrix[None])[0], factor)
    np.testing.assert_array_equal(cholesky_factor(stack.reshape(7, 1, 6, 6)), lower.reshape(7, 1, 6, 6))


def test_stacked_solve_matches_each_matrix_alone():
    rng = np.random.default_rng(6)
    stack = np.stack([_random_spd(rng, 5) for _ in range(4)])
    rhs = rng.standard_normal((4, 5, 3))
    x = cholesky_solve(cholesky_factor(stack), rhs)
    assert np.abs(stack @ x - rhs).max() < 1e-12
    for matrix, b, xk in zip(stack, rhs, x):
        np.testing.assert_array_equal(cholesky_solve(cholesky_factor(matrix), b), xk)


def test_stacked_factor_names_first_asymmetric_matrix():
    stack = np.stack([np.eye(3)] * 5)
    stack[2, 0, 1] = stack[4, 1, 2] = 0.5
    with pytest.raises(ValueError, match=r"^matrix 2 is not symmetric"):
        cholesky_factor(stack)


def test_stacked_factor_accepts_asymmetry_below_the_tolerance():
    """A stack that is not exactly symmetric factors if each matrix is symmetric to SYMMETRY_TOL."""
    rng = np.random.default_rng(7)
    stack = np.stack([_random_spd(rng, 5) for _ in range(3)])
    exact = cholesky_factor(stack)
    scale = np.abs(stack[1]).max()
    stack[1, 0, 3] += 0.5 * SYMMETRY_TOL * scale  # the factor reads the lower triangle only
    assert (stack != stack.mT).any()
    np.testing.assert_array_equal(cholesky_factor(stack), exact)
    stack[1, 0, 3] += 2.0 * SYMMETRY_TOL * scale
    with pytest.raises(ValueError, match=r"^matrix 1 is not symmetric"):
        cholesky_factor(stack)


@pytest.mark.parametrize(
    "broken",
    [
        np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # LAPACK rejects it
        np.diag([1.0, 1e-16, 1.0]),  # LAPACK factors it, but pivot 1 is below the floor
        np.diag([1.0, 1.0, np.nan]),
    ],
    ids=["indefinite", "pivot-floor", "nan"],
)
def test_stacked_factor_names_first_failing_matrix(broken):
    stack = np.stack([2.0 * np.eye(3)] * 6)
    stack[3] = stack[5] = broken
    with pytest.raises(NotPositiveDefiniteError, match="^matrix 3 is not positive definite") as failure:
        cholesky_factor(stack)
    assert failure.value.index == 3


def test_stacked_factor_names_first_failure_of_either_kind():
    """A pivot-floor failure before a matrix LAPACK rejects is still the one named."""
    stack = np.stack([2.0 * np.eye(3)] * 6)
    stack[3] = np.diag([1.0, 1e-16, 1.0])
    stack[5] = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match="^matrix 3 is not positive definite") as failure:
        cholesky_factor(stack)
    assert failure.value.index == 3


def test_solve_identity_factor():
    factor = cholesky_factor(np.eye(3))
    rhs = np.array([[1.0], [-2.0], [5.0]])
    np.testing.assert_allclose(cholesky_solve(factor, rhs), rhs, atol=1e-15)


def test_solve_scalar():
    factor = cholesky_factor(np.array([[4.0]]))
    np.testing.assert_allclose(cholesky_solve(factor, np.array([[8.0]])), [[2.0]])


def test_solve_two_by_two():
    factor = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(cholesky_solve(factor, np.array([[10.0], [7.0]])), [[2.0], [1.0]], atol=1e-14)


def test_solve_rejects_wrong_size():
    factor = cholesky_factor(np.eye(2))
    with pytest.raises(ValueError, match="do not match"):
        cholesky_solve(factor, np.ones((3, 1)))


def test_solve_rejects_vector_rhs_for_a_stack():
    """Right-hand sides are (N, K) matrices: a vector is refused, for a stack and for a single factor."""
    factors = cholesky_factor(np.stack([np.eye(3)] * 3))
    for solve_with in (cholesky_solve, triangular_solve):
        for lower in (factors, factors[0]):
            with pytest.raises(ValueError, match="do not match"):
                solve_with(lower, np.ones(3))
    np.testing.assert_array_equal(cholesky_solve(factors, np.ones((3, 3, 1))), np.ones((3, 3, 1)))


def test_solve_matrix_rhs():
    rng = np.random.default_rng(3)
    r = rng.standard_normal((5, 5))
    a = r.T @ r + 5 * np.eye(5)
    rhs = rng.standard_normal((5, 4))
    factor = cholesky_factor(a)
    np.testing.assert_allclose(a @ cholesky_solve(factor, rhs), rhs, atol=1e-11)


def test_solve_layout_does_not_change_the_result():
    """A transposed rhs view and a non-contiguous factor solve bit for bit like their contiguous copies."""
    rng = np.random.default_rng(7)
    stack = np.stack([_random_spd(rng, 6) for _ in range(5)])
    lower = cholesky_factor(stack)
    rhs_t = rng.standard_normal((5, 4, 6))
    rhs = rhs_t.mT  # (5, 6, 4), not contiguous
    wide = np.zeros((5, 6, 9))
    wide[:, :, 2:8] = lower
    factor = wide[:, :, 2:8]  # the factors inside a wider array
    assert not rhs.flags.c_contiguous and not factor.flags.c_contiguous
    expected = cholesky_solve(lower, np.ascontiguousarray(rhs))
    np.testing.assert_array_equal(cholesky_solve(factor, rhs), expected)
    np.testing.assert_array_equal(cholesky_solve(np.asfortranarray(lower), rhs), expected)
    np.testing.assert_array_equal(
        triangular_solve(factor, rhs), triangular_solve(lower, np.ascontiguousarray(rhs))
    )


@pytest.mark.parametrize("solve", [cholesky_solve, triangular_solve])
def test_solve_rejects_stacks_of_different_lengths(solve):
    factors = cholesky_factor(np.stack([2.0 * np.eye(3)] * 4))
    for rhs in (np.ones((3, 3, 2)), np.ones((5, 3, 2)), np.ones((3, 2))):
        with pytest.raises(ValueError, match="do not match"):
            solve(factors, rhs)


@pytest.mark.parametrize("solve", [cholesky_solve, triangular_solve])
def test_solve_empty_stack(solve):
    x = solve(np.empty((0, 4, 4)), np.empty((0, 4, 3)))
    assert x.shape == (0, 4, 3)


def test_triangular_solve_matches_each_matrix_alone():
    rng = np.random.default_rng(8)
    stack = np.stack([_random_spd(rng, 5) for _ in range(4)])
    lower = cholesky_factor(stack)
    rhs = rng.standard_normal((4, 5, 3))
    x = triangular_solve(lower, rhs)
    assert np.abs(lower @ x - rhs).max() < 1e-12
    for factor, b, xk in zip(lower, rhs, x):
        np.testing.assert_array_equal(triangular_solve(factor, b), xk)


def test_triangular_solve_names_the_routine_and_the_singular_factor():
    lower = np.stack([np.eye(3)] * 4)
    lower[2, 1, 1] = 0.0  # trtrs's info is the 1-based position of the zero on the diagonal
    with pytest.raises(ValueError, match=r"^dtrtrs failed on matrix 2 \(info 2\)$"):
        triangular_solve(lower, np.ones((4, 3, 2)))


# ----------------------------------------------------------------------- CG


def test_cg_identity_one_iteration():
    b = np.array([3.0, -1.0, 2.0])
    x, report = cg_solve(sp.identity(3, format="csr"), b)
    np.testing.assert_allclose(x, b, atol=1e-13)
    assert report.iterations == 1
    assert report.converged


def test_cg_diagonal_system():
    a = sp.diags([1.0, 2.0, 4.0]).tocsr()
    x, report = cg_solve(a, np.array([1.0, 2.0, 4.0]))
    np.testing.assert_allclose(x, np.ones(3), atol=1e-12)
    assert report.converged


def test_cg_zero_rhs():
    x, report = cg_solve(sp.identity(4, format="csr"), np.zeros(4))
    np.testing.assert_array_equal(x, 0.0)
    assert report.iterations == 0 and report.converged


def test_cg_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        cg_solve(sp.diags([1.0, 0.0]).tocsr(), np.ones(2))


def test_cg_convergence_implies_small_residual():
    rng = np.random.default_rng(11)
    r = rng.standard_normal((30, 30))
    a = sp.csr_matrix(r.T @ r + 30 * np.eye(30))
    rhs = rng.standard_normal(30)
    x, report = cg_solve(a, rhs, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(a @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _report_systems():
    """(matrix, rhs) pairs: a free trace system, and a dense SPD system of condition number 4.2e3."""
    system = solve_transport(3, 1, BENCHMARK_BETA)["system"]
    free = system.free
    rng = np.random.default_rng(3)
    r = rng.standard_normal((40, 40))
    dense = sp.csr_matrix(r.T @ r + 1e-6 * np.eye(40))
    return [(system.matrix[free][:, free], system.rhs[free]), (dense, rng.standard_normal(40))]


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15, 1e-20])
def test_cg_report_is_the_true_residual_of_the_returned_solution(tol):
    for a, rhs in _report_systems():
        x, report = cg_solve(a, rhs, tol=tol)
        assert report.residual_norm == np.linalg.norm(rhs - a @ x)
        assert report.converged == (report.residual_norm <= tol * np.linalg.norm(rhs))


def test_cg_stops_by_itself_below_the_rounding_floor():
    for a, rhs in _report_systems():
        _, report = cg_solve(a, rhs, tol=1e-20)  # below the rounding floor
        assert report.iterations == 1
        assert not report.converged


def test_backward_error_matches_its_dense_definition():
    for a, rhs in _report_systems():
        x, report = cg_solve(a, rhs)
        r = rhs - a @ x
        dense = np.abs(r) / (np.abs(a.toarray()) @ np.abs(x) + np.abs(rhs))
        assert report.backward_error == backward_error(a, x, rhs, r)
        assert report.backward_error == pytest.approx(dense.max(), rel=1e-12, abs=0.0)


def test_backward_error_of_an_exact_solution_is_zero():
    a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
    x = np.array([1.0, 1.0, 0.0])  # the zero row of |A||x| + |b| counts as 0, not NaN
    assert backward_error(a, x, a @ x, np.zeros(3)) == 0.0


@pytest.mark.parametrize("level", range(2, 7))
def test_sweep_solves_are_exact_up_to_rounding(level):
    """The trace solve of every sweep level is the exact solution of a system within k eps of the assembled one."""
    _, row = solve_level(RunConfig(), level)
    assert 0.0 < row.backward_error <= ROUNDING_FACTOR * EPS
    assert row.solved


@pytest.mark.parametrize("mesh_builder", [build_uniform_mesh, jittered_mesh], ids=["uniform", "jitter"])
def test_one_factor_solve_is_backward_stable(mesh_builder):
    """One factor solve leaves omega <= ROUNDING_FACTOR eps for m = 1..4, test refinement 0-1, four directions and two c."""
    for m, test_refine, angle, reaction in itertools.product(
        range(1, 5), (0, 1), (0.0, math.pi / 8, math.pi / 2, 2.5), (0.0, 1e4)
    ):
        beta = np.array([math.cos(angle), math.sin(angle)])
        report = solve_transport(3, test_refine, beta, m=m, mesh_builder=mesh_builder, reaction=reaction)["cg"]
        assert report.iterations == 1, (m, test_refine, angle, reaction)
        assert report.backward_error <= ROUNDING_FACTOR * EPS, (m, test_refine, angle, reaction)


def test_wrong_factor_has_a_backward_error_far_above_rounding(monkeypatch):
    use_wrong_trace_factor(monkeypatch)
    system = solve_transport(3, 1, BENCHMARK_BETA)["system"]
    free = system.free
    _, report = cg_solve(system.matrix[free][:, free], system.rhs[free])
    assert report.iterations == 1 and not report.converged
    assert report.backward_error > 1e6 * ROUNDING_FACTOR * EPS


def test_cg_raises_on_nan():
    a, rhs = _report_systems()[0]
    rhs = rhs.copy()
    rhs[0] = np.nan
    with pytest.raises(FloatingPointError):
        cg_solve(a, rhs)


def test_cg_rejects_singular_matrix():
    with pytest.raises(NotPositiveDefiniteError):
        cg_solve(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])), np.array([1.0, 2.0]))


def test_cg_matches_dense_oracle_on_transport_system():
    run = solve_transport(2, 1, BENCHMARK_BETA)
    system = run["system"]
    free = system.free
    dense = np.linalg.solve(system.matrix[free][:, free].toarray(), system.rhs[free])
    theta = run["x"][run["phi_map"].ndofs :]
    assert np.abs(theta[free] - dense).max() < 1e-8
    np.testing.assert_array_equal(theta[~free], 0.0)


@pytest.mark.parametrize(
    "angle,reaction", [(math.pi / 8, 0.0), (0.0, 1.0)], ids=["sweep", "axis"]
)
def test_trace_system_is_solved_by_one_factor_solve(angle, reaction):
    """The sparse LU of the trace system is exact up to rounding: one solve with it meets --tol."""
    _, row = solve_level(RunConfig(levels=(4,), beta_angle=angle, reaction=reaction), 4)
    assert row.converged
    assert row.iterations == 1


@pytest.mark.parametrize(
    "angle,reaction",
    [(math.pi / 8, 0.0), (0.0, 1.0), (math.pi / 2, 1.0)],
    ids=["sweep", "axis", "vertical"],
)
def test_trace_numbering_fills_no_more_than_minimum_degree(angle, reaction):
    """At level 6 the factor in the trace DOFs' own order has at most the fill of SuperLU's minimum degree."""
    system = solve_transport(6, 1, np.array([math.cos(angle), math.sin(angle)]), reaction=reaction)["system"]
    a = sp.csc_matrix(system.matrix[system.free][:, system.free])

    def fill(ordering):
        factor = splu(a, permc_spec=ordering, panel_size=PANEL_SIZE, options=dict(SymmetricMode=True, DiagPivotThresh=0.0))
        return factor.L.nnz + factor.U.nnz

    assert fill("NATURAL") <= fill("MMD_AT_PLUS_A")


@pytest.mark.parametrize("level", range(4))
def test_cg_converges_on_benchmark_levels(level):
    run = solve_transport(level, 1, BENCHMARK_BETA)
    assert run["cg"].converged
    assert run["cg"].iterations == 1
