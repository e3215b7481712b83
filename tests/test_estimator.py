import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import BENCHMARK_BETA, constant_rhs, perturbed_mesh, solve_transport
from dpgtransport import estimator
from dpgtransport.estimator import a_posteriori_error, exact_transport_solution, l2_error
from dpgtransport.fem import lagrange_basis, make_quadrature
from dpgtransport.forms import local_load, local_saddle_blocks
from dpgtransport.mesh import MeshPair, build_uniform_mesh
from dpgtransport.solve import cholesky_factor, cholesky_solve


def _estimate(run, enrich=5):
    return a_posteriori_error(
        run["form"],
        run["mesh_pair"],
        (run["phi_map"], run["theta_map"]),
        run["x"],
        run["rhs_f"],
        enrich,
    )


def _dense_eta_oracle(run, enrich=5):
    """Independent per-cell evaluation of rho^T Bbar^{-1} rho via dense LU.

    The enriched space is one polynomial per coarse cell: its pair is built
    here on level 0, whatever the run's test refinement.
    """
    mesh_pair = MeshPair(run["mesh_pair"].coarse, 0)
    phi_map, theta_map = run["phi_map"], run["theta_map"]
    n_phi = phi_map.ndofs
    enriched = replace(run["form"], test_degree=enrich)
    coefficients, basis = local_load(run["rhs_f"], mesh_pair, enrich)
    loads = coefficients @ basis
    total = 0.0
    for cell in range(mesh_pair.coarse.n_cells):
        b, g = local_saddle_blocks(enriched, cell, mesh_pair)
        u = np.concatenate(
            [
                run["x"][phi_map.cell_dofs[cell]],
                run["x"][n_phi + theta_map.cell_dofs[cell]],
            ]
        )
        rho = g @ u - loads[cell]
        total += rho @ np.linalg.solve(b, rho)
    return math.sqrt(total)


def test_zero_data_gives_zero_eta():
    run = solve_transport(1, 1, BENCHMARK_BETA, rhs_f=constant_rhs(0.0))
    assert np.abs(run["x"]).max() < 1e-12  # zero rhs, zero inflow
    breakdown = _estimate(run)
    assert breakdown.eta < 1e-12
    assert np.all(breakdown.cell_indicators_sq >= -1e-14)


def test_scalar_indicator_algebra():
    # rho=(2), Bbar=[[4]] -> eta_K^2 = 1
    rho = np.array([[2.0]])
    factor = cholesky_factor(np.array([[4.0]]))
    assert (rho.T @ cholesky_solve(factor, rho)).item() == pytest.approx(1.0)


def test_eta_matches_dense_oracle():
    """A callable source, and a number, whose oracle takes the callable that returns it everywhere."""
    callable_f = lambda p: 1.0 + p[:, 0] * p[:, 1]  # differs between the cells of one class
    for mesh_builder in (build_uniform_mesh, perturbed_mesh):  # two classes, one class per cell
        for rhs_f, oracle_f in ((callable_f, callable_f), (2.5, constant_rhs(2.5))):
            run = solve_transport(1, 1, BENCHMARK_BETA, rhs_f=rhs_f, mesh_builder=mesh_builder)
            eta = _estimate(run).eta
            oracle = _dense_eta_oracle({**run, "rhs_f": oracle_f})
            assert abs(eta - oracle) <= 1e-10 * oracle


def test_indicators_nonnegative_and_sum_to_eta():
    run = solve_transport(2, 1, BENCHMARK_BETA)
    breakdown = _estimate(run)
    assert np.all(breakdown.cell_indicators_sq >= -1e-14)
    total = math.sqrt(np.sort(breakdown.cell_indicators_sq)[::-1].sum())
    assert abs(total - breakdown.eta) <= 1e-13 * breakdown.eta


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("reaction", [1e2, 1e4, 1e8])
def test_efficiency_holds_at_large_reaction(reaction, level):
    """eta / err stays in criterion 7's band [0.5, 20] for beta = (1, 0) and large c.

    The reference is phi = (1 - e^(-c x)) / c.  The test norm's mass weight
    1 + c^2 keeps eta of the size of the error; with the weight 1 the
    efficiency read 23-174 at c = 1e4 and 5e5-2e6 at c = 1e8.
    """
    run = solve_transport(level, 1, (1.0, 0.0), reaction=reaction)
    phi_map = run["phi_map"]
    decay = lambda p: -np.expm1(-reaction * p[..., 0]) / reaction
    err = l2_error(run["x"][: phi_map.ndofs], decay, run["mesh_pair"], phi_map)
    assert 0.5 <= _estimate(run).eta / err <= 20.0


def test_eta_scales_linearly_with_data():
    """The scaled source is a callable, then a number."""
    s = 3.5
    run = solve_transport(1, 1, BENCHMARK_BETA)
    eta = _estimate(run).eta
    for scaled_f in (constant_rhs(s), s):
        scaled = dict(run)
        scaled["x"] = s * run["x"]
        scaled["rhs_f"] = scaled_f
        eta_s = _estimate(scaled).eta
        assert abs(eta_s - s * eta) <= 1e-10 * eta_s


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_solution_rejected(bad):
    run = solve_transport(1, 1, BENCHMARK_BETA)
    x = run["x"].copy()
    x[-1] = bad
    with pytest.raises(ValueError, match="not finite"):
        a_posteriori_error(run["form"], run["mesh_pair"], (run["phi_map"], run["theta_map"]), x, run["rhs_f"])


def test_solution_size_checked():
    run = solve_transport(1, 1, BENCHMARK_BETA)
    with pytest.raises(ValueError):
        a_posteriori_error(
            run["form"],
            run["mesh_pair"],
            (run["phi_map"], run["theta_map"]),
            run["x"][:-1],
            run["rhs_f"],
        )


# ------------------------------------------------------------ exact solution


def test_exact_solution_on_inflow_boundary():
    for y in [0.0, 0.3, 1.0]:
        assert exact_transport_solution((0.0, y), BENCHMARK_BETA) == 0.0


def test_exact_solution_kink_line():
    x = 0.4
    y = x * math.tan(math.pi / 8)
    value = exact_transport_solution((x, y), BENCHMARK_BETA)
    assert value == pytest.approx(x / math.cos(math.pi / 8), abs=1e-14)


def test_exact_solution_at_corner():
    value = exact_transport_solution((1.0, 1.0), BENCHMARK_BETA)
    assert value == pytest.approx(1.0 / math.cos(math.pi / 8), abs=1e-12)
    assert value == pytest.approx(1.08239, abs=1e-5)


def test_exact_solution_requires_positive_beta():
    with pytest.raises(ValueError):
        exact_transport_solution((0.5, 0.5), np.array([1.0, 0.0]))


# --------------------------------------------------------------------- error


def test_l2_error_exact_for_representable_solution():
    run = solve_transport(1, 0, BENCHMARK_BETA)
    phi_map, mesh_pair = run["phi_map"], run["mesh_pair"]
    exact = lambda p: 2.0 * p[..., 0] - p[..., 1] + 0.25
    # interpolate the linear exact solution into the broken P1 space
    basis = lagrange_basis(1)
    coeffs = np.empty(phi_map.ndofs)
    for cell in range(mesh_pair.coarse.n_cells):
        v = mesh_pair.coarse.vertices[mesh_pair.coarse.cells[cell]]
        jac = np.column_stack([v[1] - v[0], v[2] - v[0]])
        coeffs[phi_map.cell_dofs[cell]] = exact(basis.nodes @ jac.T + v[0])
    assert l2_error(coeffs, exact, mesh_pair, phi_map) <= 1e-11


def test_l2_error_of_zero_against_ramp():
    run = solve_transport(2, 0, BENCHMARK_BETA)
    phi_map, mesh_pair = run["phi_map"], run["mesh_pair"]
    err = l2_error(np.zeros(phi_map.ndofs), lambda p: p[..., 0], mesh_pair, phi_map)
    assert err == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


def _ramp(p):
    return exact_transport_solution(p, BENCHMARK_BETA)


@pytest.mark.parametrize("chunk_cells", [1, 300, 2048], ids=["one-cell", "short-last", "one-chunk"])
def test_l2_error_does_not_depend_on_its_chunking(benchmark_sweep, monkeypatch, chunk_cells):
    """Level 5 (2048 cells): the default budget's chunks of 455 cells, then chunks of 1, of 300 (a last one of 248) and one chunk."""
    run = benchmark_sweep["runs"][5]["run"]
    phi_map, mesh_pair = run["phi_map"], run["mesh_pair"]
    assert mesh_pair.coarse.n_cells == 2048
    default = l2_error(run["x"][: phi_map.ndofs], _ramp, mesh_pair, phi_map)
    calls = []

    def exact(p):
        calls.append(len(p))
        return _ramp(p)

    monkeypatch.setattr(estimator, "CHUNK_BYTES", chunk_cells * make_quadrature(10).points.nbytes)
    chunked = l2_error(run["x"][: phi_map.ndofs], exact, mesh_pair, phi_map)
    assert len(calls) == -(-2048 // chunk_cells) and calls[-1] == 2048 - chunk_cells * (len(calls) - 1)
    assert abs(chunked - default) <= 1e-15 * default


def test_l2_error_memory_stays_bounded(benchmark_sweep):
    """At level 6 (8192 cells) the chunks keep the traced peak under 2 MiB; all 36 points of every cell took 13.5."""
    run = benchmark_sweep["runs"][6]["run"]
    args = (run["x"][: run["phi_map"].ndofs], _ramp, run["mesh_pair"], run["phi_map"])
    l2_error(*args)  # the basis and the rule are cached on first use
    tracemalloc.start()
    try:
        assert l2_error(*args) == benchmark_sweep["runs"][6]["l2_error"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_l2_error_size_checked():
    run = solve_transport(1, 0, BENCHMARK_BETA)
    with pytest.raises(ValueError):
        l2_error(np.zeros(3), lambda p: p[..., 0], run["mesh_pair"], run["phi_map"])
