"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Beside them sit regression tests for configurations the criteria do not reach:
axis-aligned flow, m >= 3 on a refined test-search mesh, and the order of the
method on a smooth solution.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from conftest import (
    BENCHMARK_BETA,
    constant_rhs,
    jittered_mesh,
    near_optimal_coefficients,
    no_load,
    solve_transport,
)
from dpgtransport import (
    MeshPair,
    SpaceKind,
    a_posteriori_error,
    assemble,
    build_dof_map,
    build_uniform_mesh,
    cholesky_factor,
    exact_transport_solution,
    l2_error,
    local_saddle_blocks,
    transport_form,
)
from dpgtransport.cli import ErrorReport, RunConfig, export_csv, export_vtk, solve_level
from dpgtransport.testspace import compute_coefficients
from test_assembly import dense_oracle, per_cell_matrix, schur_complement
from test_estimator import _dense_eta_oracle, _estimate


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_convergence_rate(benchmark_sweep, capsys):
    levels = sorted(benchmark_sweep["runs"])
    errors = np.array([benchmark_sweep["runs"][lv]["l2_error"] for lv in levels])
    hs = np.array([2.0**-lv for lv in levels])
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    ratios = errors[1:] / errors[:-1]
    elapsed = benchmark_sweep["elapsed"]
    ok = (
        0.85 <= slope <= 1.15
        and all(0.40 <= r <= 0.60 for r in ratios[-2:])
        and elapsed < 120.0
    )
    _verdict(
        capsys,
        "criterion 1 (convergence rate)",
        ok,
        f"slope={slope:.4f} (band [0.85,1.15]), finest ratios={np.round(ratios[-2:], 4).tolist()}"
        f" (band [0.40,0.60]), sweep took {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_test_refinement_insensitivity(benchmark_sweep, capsys):
    levels = range(2, 6)
    errors = {}
    for level in levels:
        per_ell = {1: benchmark_sweep["runs"][level]["l2_error"]}
        for ell in (0, 2):
            run = solve_transport(level, ell, BENCHMARK_BETA)
            exact = lambda p: np.minimum(
                p[..., 0] / BENCHMARK_BETA[0], p[..., 1] / BENCHMARK_BETA[1]
            )
            per_ell[ell] = l2_error(
                run["x"][: run["phi_map"].ndofs], exact, run["mesh_pair"], run["phi_map"]
            )
        errors[level] = per_ell
    spreads = {
        level: (max(e.values()) - min(e.values())) / min(e.values())
        for level, e in errors.items()
    }
    ok = all(s <= 0.05 for s in spreads.values())
    detail = ", ".join(f"level {lv}: spread {s:.1%}" for lv, s in spreads.items())
    _verdict(
        capsys,
        "criterion 2 (test-refinement insensitivity, 5% band)",
        ok,
        detail + " — levels 2-5, refinement levels {0,1,2}",
    )


def test_criterion_3_manufactured_exactness(capsys):
    beta = np.array([1.0, 0.0])
    errs = []
    for level in range(1, 5):
        run = solve_transport(level, 0, beta)
        errs.append(
            l2_error(
                run["x"][: run["phi_map"].ndofs],
                lambda p: p[..., 0],
                run["mesh_pair"],
                run["phi_map"],
            )
        )
    ok = all(e <= 1e-9 for e in errs)
    _verdict(
        capsys,
        "criterion 3 (manufactured exactness, beta=(1,0))",
        ok,
        f"L2 errors levels 1-4: {[f'{e:.2e}' for e in errs]} (tol 1e-9)",
    )


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("axis", [0, 1])
def test_axis_aligned_exactness_on_refined_test_space(axis, ell):
    """phi = x (resp. y) solves beta=(1,0) (resp. (0,1)) with f=1 exactly at every l."""
    beta = np.eye(2)[axis]
    errs = []
    for level in range(1, 4):
        run = solve_transport(level, ell, beta)
        errs.append(
            l2_error(
                run["x"][: run["phi_map"].ndofs],
                lambda p: p[..., axis],
                run["mesh_pair"],
                run["phi_map"],
            )
        )
    assert all(e <= 1e-9 for e in errs), f"L2 errors levels 1-3: {errs}"


@pytest.mark.parametrize("m", [3, 4])
def test_higher_degree_converges_on_refined_test_space(m):
    """m = 3, 4 at l = 1: the error falls with the level on the benchmark problem."""
    exact = lambda p: exact_transport_solution(p, BENCHMARK_BETA)
    errs = []
    for level in range(2, 5):
        run = solve_transport(level, 1, BENCHMARK_BETA, m=m)
        errs.append(
            l2_error(run["x"][: run["phi_map"].ndofs], exact, run["mesh_pair"], run["phi_map"])
        )
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(r <= 0.6 for r in ratios) and errs[-1] < 5e-3, f"L2 errors levels 2-4: {errs}"


def _smooth_solution(p):
    """phi = x y e^(x + y): smooth, and zero on the inflow sides x = 0 and y = 0 of every beta in the first quadrant."""
    return p[..., 0] * p[..., 1] * np.exp(p[..., 0] + p[..., 1])


def _smooth_source(beta, reaction):
    """f = beta . grad(phi) + c phi for `_smooth_solution`."""

    def rhs_f(p):
        x, y = p[..., 0], p[..., 1]
        return (beta[0] * y * (1.0 + x) + beta[1] * x * (1.0 + y) + reaction * x * y) * np.exp(x + y)

    return rhs_f


@pytest.mark.parametrize("mesh_builder", [build_uniform_mesh, jittered_mesh], ids=["uniform", "jittered"])
@pytest.mark.parametrize("reaction", [0.0, 1.0])
@pytest.mark.parametrize("m", range(1, 5))
def test_order_of_the_method_on_a_smooth_solution(m, reaction, mesh_builder):
    """Levels 1-5 at l = 1: the finest-pair rate is at least m - 0.1, and eta / err stays in criterion 7's band."""
    rhs_f = _smooth_source(BENCHMARK_BETA, reaction)
    errors, etas = [], []
    for level in range(1, 6):
        run = solve_transport(level, 1, BENCHMARK_BETA, m=m, rhs_f=rhs_f, mesh_builder=mesh_builder, reaction=reaction)
        assert run["cg"].converged
        maps = run["phi_map"], run["theta_map"]
        errors.append(l2_error(run["x"][: maps[0].ndofs], _smooth_solution, run["mesh_pair"], maps[0]))
        etas.append(a_posteriori_error(run["form"], run["mesh_pair"], maps, run["x"], rhs_f).eta)
    rate = np.log2(errors[-2] / errors[-1])
    efficiency = np.array(etas) / np.array(errors)
    detail = f"rate {rate:.3f}, errors {np.array(errors)}, eta / err {efficiency}"
    assert rate >= m - 0.1, detail
    assert ((0.5 <= efficiency) & (efficiency <= 20.0)).all(), detail


def test_criterion_4_spd_structure(capsys):
    """The restricted trace matrix that CG solves is symmetric and SPD.

    Below 2000 DOFs the restricted full system is also checked: it is SPD,
    and its dense Schur complement onto theta is the trace matrix.  Above,
    the sparse LU pivots show definiteness: CG converging does not, since
    with the exact factor as preconditioner it takes one step on any
    nonsingular matrix.
    """
    details = []
    ok = True
    for level in range(5):
        run = solve_transport(level, 1, BENCHMARK_BETA)
        system = run["system"]
        free = system.free
        a = system.matrix[free][:, free]
        diff = a - a.T
        asym = np.abs(diff.data).max() if diff.nnz else 0.0
        rel = asym / np.abs(a.data).max()
        sym_ok = rel <= 1e-11
        if len(run["x"]) <= 2000:
            full = per_cell_matrix(run["mesh_pair"], run["form"], run["phi_map"], run["theta_map"])
            keep = np.concatenate([np.ones(run["phi_map"].ndofs, dtype=bool), free])
            full = full[np.ix_(keep, keep)]
            schur, _ = schur_complement(full, np.zeros(len(full)), run["phi_map"].ndofs)
            schur_rel = np.abs(a.toarray() - schur).max() / np.abs(a.data).max()
            try:
                cholesky_factor(a.toarray())
                cholesky_factor(full)
                pd_ok, how = schur_rel <= 1e-11, f"Cholesky of S and A, |S - schur(A)| {schur_rel:.1e}"
            except Exception:
                pd_ok, how = False, "Cholesky FAILED"
        else:  # a symmetric matrix is SPD exactly when its LU pivots, taken on the diagonal, are positive
            lu = splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True, DiagPivotThresh=0.0))
            pivots = lu.U.diagonal()
            pd_ok, how = run["cg"].converged and pivots.min() > 0.0, f"CG@1e-12, min LU pivot {pivots.min():.1e}"
        ok = ok and sym_ok and pd_ok
        details.append(f"L{level}: sym {rel:.1e}, {how} {'ok' if pd_ok else 'failed'}")
    _verdict(capsys, "criterion 4 (SPD structure, levels 0-4)", ok, "; ".join(details))


def test_criterion_5_local_solve_oracle(capsys):
    details = []
    ok = True
    for level in (0, 1):  # 2-cell and 8-cell meshes
        mesh_pair = MeshPair(build_uniform_mesh(level), 1)
        form = transport_form(2, BENCHMARK_BETA, 0.0)
        phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, mesh_pair, 1)
        theta_map = build_dof_map(SpaceKind.CONTINUOUS, mesh_pair, 2)
        rhs_f = constant_rhs()
        system = assemble(form, mesh_pair, (phi_map, theta_map), rhs_f)
        a, f = dense_oracle(mesh_pair, form, phi_map, theta_map, rhs_f)
        s, g = schur_complement(a, f, phi_map.ndofs)
        da = np.abs(system.matrix.toarray() - s).max()
        df = np.abs(system.rhs - g).max()
        ok = ok and da <= 1e-11 and df <= 1e-11
        details.append(f"{mesh_pair.coarse.n_cells} cells: |dA|={da:.1e}, |dF|={df:.1e}")
    _verdict(
        capsys, "criterion 5 (dense local-solve oracle, tol 1e-11)", ok, "; ".join(details)
    )


def test_criterion_6_defining_relation(capsys):
    mesh_pair = MeshPair(build_uniform_mesh(2), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    cells = np.arange(mesh_pair.coarse.n_cells)
    b, g = local_saddle_blocks(form, cells, mesh_pair)
    lower, z = compute_coefficients(b, g, no_load(b), cells)
    c = near_optimal_coefficients(lower, z)  # C_K = L_K^-T Z_K
    worst = np.abs(b @ c - g).max()
    ok = worst <= 1e-10
    _verdict(
        capsys,
        "criterion 6 (defining relation B_K C_K = G_K, level 2)",
        ok,
        f"max residual over all cells: {worst:.2e} (tol 1e-10)",
    )


def test_criterion_7_estimator_sanity(benchmark_sweep, capsys):
    levels = sorted(benchmark_sweep["runs"])
    etas = [benchmark_sweep["runs"][lv]["eta"] for lv in levels]
    errors = [benchmark_sweep["runs"][lv]["l2_error"] for lv in levels]
    efficiencies = [eta / err for eta, err in zip(etas, errors)]
    run2 = benchmark_sweep["runs"][2]["run"]
    oracle = _dense_eta_oracle(run2)
    oracle_rel = abs(_estimate(run2).eta - oracle) / oracle
    positive = all(eta > 0.0 for eta in etas)
    monotone = all(a > b for a, b in zip(etas, etas[1:]))
    band = all(0.5 <= e <= 20.0 for e in efficiencies)
    ok = positive and monotone and band and oracle_rel <= 1e-10
    _verdict(
        capsys,
        "criterion 7 (estimator sanity)",
        ok,
        f"eta positive: {positive}, monotone: {monotone}, "
        f"oracle rel diff {oracle_rel:.1e} (tol 1e-10), "
        f"efficiency {min(efficiencies):.2f}..{max(efficiencies):.2f} (band [0.5,20])",
    )


def test_criterion_8_cache_transparency(capsys):
    """One local solve and condensation per geometry class give the trace matrix of one solve per cell."""
    mesh_pair = MeshPair(build_uniform_mesh(3), 1)
    form = transport_form(2, BENCHMARK_BETA, 0.0)
    phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, mesh_pair, 1)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, mesh_pair, 2)
    system = assemble(form, mesh_pair, (phi_map, theta_map), constant_rhs())
    per_cell = per_cell_matrix(mesh_pair, form, phi_map, theta_map)
    per_cell, _ = schur_complement(per_cell, np.zeros(phi_map.ndofs + theta_map.ndofs), phi_map.ndofs)
    diff = np.abs(system.matrix.toarray() - per_cell).max()
    n = mesh_pair.coarse.n_cells
    shared = (n - len(mesh_pair.coarse.geometry_classes[0])) / n
    ok = diff <= 1e-13 and shared >= (n - 2) / n
    _verdict(
        capsys,
        "criterion 8 (geometry-class transparency)",
        ok,
        f"max |S_classes - S_per_cell| = {diff:.1e} (tol 1e-13), "
        f"share of cells served by another cell's solve {shared:.4f} >= {(n - 2) / n:.4f}",
    )


def test_criterion_9_output_determinism(tmp_path, capsys):
    config = RunConfig(levels=(1, 2), test_refine=1)

    def one_run(tag):
        rows, solution = [], None
        for level in sorted(config.levels):
            solution, row = solve_level(config, level)
            rows.append(row)
        report = ErrorReport(rows)
        csv_path = tmp_path / f"{tag}.csv"
        vtk_path = tmp_path / f"{tag}.vtk"
        export_csv(report, str(csv_path))
        n_phi = solution.phi_map.ndofs
        export_vtk(
            solution.solution[:n_phi],
            solution.solution[n_phi:],
            solution.mesh_pair,
            solution.phi_map,
            solution.theta_map,
            str(vtk_path),
        )
        return report, csv_path, vtk_path

    report_a, csv_a, vtk_a = one_run("a")
    report_b, csv_b, vtk_b = one_run("b")

    vtk_ok = vtk_a.read_bytes() == vtk_b.read_bytes()

    def strip_seconds(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    csv_ok = strip_seconds(csv_a) == strip_seconds(csv_b)

    reexport = tmp_path / "a2.csv"
    export_csv(report_a, str(reexport))
    reexport_ok = csv_a.read_bytes() == reexport.read_bytes()

    ok = vtk_ok and csv_ok and reexport_ok
    _verdict(
        capsys,
        "criterion 9 (CSV/VTK determinism)",
        ok,
        f"VTK byte-identical: {vtk_ok}; CSV identical apart from wall-time column: {csv_ok}; "
        f"re-export byte-identical: {reexport_ok}",
    )
