import json
import math

import numpy as np
import pytest

from conftest import (
    BENCHMARK_BETA,
    no_load,
    perturbed_mesh,
    solve_transport,
    trace_node_coords,
    use_wrong_trace_factor,
)
from dpgtransport import cli
from dpgtransport.cli import (
    ErrorReport,
    ReportRow,
    RunConfig,
    build_parser,
    config_from_args,
    export_csv,
    export_vtk,
    main,
    parse_levels,
    solve_level,
)
from dpgtransport.estimator import exact_transport_solution
from dpgtransport.fem import SpaceKind, build_dof_map, lagrange_basis
from dpgtransport.forms import local_saddle_blocks, transport_form
from dpgtransport.mesh import MeshPair, build_uniform_mesh
from dpgtransport.testspace import compute_coefficients

CSV_HEADER = "level,H,ndof,l2_error,eta,efficiency,iterations,seconds"


# ------------------------------------------------------------------- config


def test_parse_levels_range():
    assert parse_levels("2:6") == (2, 3, 4, 5, 6)


def test_parse_levels_list():
    assert parse_levels("2,3,5") == (2, 3, 5)


def test_parse_levels_single():
    assert parse_levels("4") == (4,)


def test_default_config_matches_benchmark():
    config = config_from_args(build_parser().parse_args([]))
    assert config.levels == (2, 3, 4, 5, 6)
    assert config.test_refine == 1
    assert config.degree == 2
    assert config.beta_angle == pytest.approx(math.pi / 8)
    assert config.reaction == 0.0
    assert config.rhs_const == 1.0
    np.testing.assert_allclose(
        config.beta, [math.cos(math.pi / 8), math.sin(math.pi / 8)], atol=1e-15
    )


def test_parser_defaults_are_run_config_defaults():
    assert config_from_args(build_parser().parse_args([])) == RunConfig()


# Explicit ids, so that inserting or removing a case renames no other case; the
# kwargsN cases keep the names that test lists already record for them.
REJECTED_CONFIGS = {
    "kwargs0": {"levels": ()},
    "kwargs1": {"levels": (-1,)},
    "kwargs2": {"degree": 0},
    "kwargs3": {"degree": 5},
    "kwargs4": {"test_refine": 4},
    "kwargs5": {"test_refine": -1},
    "kwargs6": {"tol": 0.0},
    "kwargs7": {"tol": 1.0},
    "kwargs8": {"tol": 2.0},
    "kwargs9": {"tol": math.inf},
    "kwargs10": {"tol": math.nan},
    "kwargs11": {"reaction": -5.0},
    "kwargs12": {"reaction": math.inf},
    "kwargs13": {"reaction": math.nan},
    "kwargs14": {"reaction": 1e9},
    "kwargs15": {"reaction": 1e151},
    "kwargs16": {"beta_angle": math.nan},
    "kwargs17": {"beta_angle": math.inf},
    "kwargs18": {"rhs_const": math.nan},
    "kwargs19": {"rhs_const": math.inf},
    "kwargs20": {"rhs_const": -math.inf},
    "levels-repeated": {"levels": (2, 2)},
}


@pytest.mark.parametrize("kwargs", REJECTED_CONFIGS.values(), ids=REJECTED_CONFIGS)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs).validate()


def test_flag_round_trip():
    argv = ["--levels", "1,3", "--degree", "3", "--test-refine", "2", "--reaction", "0.5"]
    argv += ["--beta-angle", "0.25", "--rhs-const", "2", "--tol", "1e-8"]
    argv += ["--csv", "a.csv", "--vtk", "b.vtk"]
    config = config_from_args(build_parser().parse_args(argv))
    assert config == RunConfig((1, 3), 2, 3, 0.25, 0.5, 2.0, "a.csv", "b.vtk", 1e-8)


# ---------------------------------------------------------------------- runs


def test_zero_rhs_gives_zero_errors():
    config = RunConfig(levels=(0, 1, 2), rhs_const=0.0)
    assert all(solve_level(config, level)[1].l2_error <= 1e-10 for level in config.levels)


def test_report_rows_ordered_by_level(tmp_path):
    path = tmp_path / "out.csv"
    assert main(["--levels", "2,0,1", "--test-refine", "0", "--csv", str(path)]) == 0  # 0: all converged
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [0, 1, 2]
    assert all(float(row[1]) == 2.0 ** -int(row[0]) for row in rows)


def test_solve_level_reports_nan_without_reference():
    config = RunConfig(levels=(1,), reaction=0.7, test_refine=0)
    _, row = solve_level(config, 1)
    assert math.isnan(row.l2_error)
    assert row.eta > 0.0


@pytest.mark.parametrize("perturbed", [False, True])
def test_report_row_counts_classes_and_bounds_gram_conditioning(monkeypatch, perturbed):
    if perturbed:
        monkeypatch.setattr(cli, "build_uniform_mesh", perturbed_mesh)
    for level in (1, 2, 3):
        config = RunConfig(levels=(level,))
        solution, row = solve_level(config, level)
        n_cells = 2 * 4**level
        assert row.classes == (n_cells if perturbed else 2)
        assert math.isfinite(row.gram_cond) and row.gram_cond >= 1.0
        # the largest (max diag L / min diag L)^2 over the classes, a lower bound on cond(B_K)
        pair = solution.mesh_pair
        cells = pair.coarse.geometry_classes[0]
        b, g = local_saddle_blocks(transport_form(config.degree, config.beta, config.reaction), cells, pair)
        diagonal = np.diagonal(compute_coefficients(b, g, no_load(b), cells)[0], axis1=1, axis2=2)
        assert row.gram_cond == ((diagonal.max(axis=1) / diagonal.min(axis=1)) ** 2).max()
        assert row.gram_cond <= np.linalg.cond(b).max()


# ---------------------------------------------------------------------- CSV


def test_csv_empty_report(tmp_path):
    path = tmp_path / "out.csv"
    export_csv(ErrorReport(), str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_one_row(tmp_path):
    path = tmp_path / "out.csv"
    row = ReportRow(2, 0.25, 123, 1.5e-2, 3.0e-2, 2.0, 10, 0.5)
    export_csv(ErrorReport([row]), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,0.25,123,0.015,0.03,2.0,10,0.5"


def test_csv_reexport_byte_identical(tmp_path):
    config = RunConfig(levels=(1, 2), test_refine=0)
    report = ErrorReport([solve_level(config, level)[1] for level in config.levels])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(report, str(a))
    export_csv(report, str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------- VTK


def _vtk_for_constant(tmp_path, value):
    config = RunConfig(levels=(0,), test_refine=0)
    solution, _ = solve_level(config, 0)
    n_phi = solution.phi_map.ndofs
    path = tmp_path / "out.vtk"
    export_vtk(
        np.full(n_phi, value),
        np.zeros(solution.theta_map.ndofs),
        solution.mesh_pair,
        solution.phi_map,
        solution.theta_map,
        str(path),
    )
    return path.read_text().splitlines()


def test_vtk_two_cell_mesh_layout(tmp_path):
    lines = _vtk_for_constant(tmp_path, 1.0)
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 6 double"  # 2 cells x 3 duplicated corners
    cells_at = lines.index("CELLS 2 8")
    assert lines[cells_at + 1 :cells_at + 3] == ["3 0 1 2", "3 3 4 5"]
    types_at = lines.index("CELL_TYPES 2")
    assert lines[types_at + 1 : types_at + 3] == ["5", "5"]


def test_vtk_constant_field_values(tmp_path):
    lines = _vtk_for_constant(tmp_path, 1.0)
    phi_at = lines.index("SCALARS phi double")
    assert lines[phi_at + 1] == "LOOKUP_TABLE default"
    assert lines[phi_at + 2 : phi_at + 8] == ["1.0"] * 6


def _reference_vtk(phi_coefficients, theta_coefficients, mesh_pair, phi_map, theta_map) -> bytes:
    """The VTK text with one `repr` call per point, value and line.

    theta at a corner is the coefficient of the cell's skeleton node that lies
    there, found by its coordinates.
    """
    mesh = mesh_pair.coarse
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    points = mesh.vertices[mesh.cells].reshape(-1, 2)
    phi_vals = (phi_coefficients[phi_map.cell_dofs] @ lagrange_basis(phi_map.degree).eval(corners).T).ravel()
    n = mesh.n_cells
    nodes = trace_node_coords(mesh, theta_map)[theta_map.cell_dofs]  # (n, local size, 2)
    at_corner = np.abs(nodes[:, None] - points.reshape(n, 3, 1, 2)).max(axis=-1) < 1e-12  # (n, 3, local size)
    assert (at_corner.sum(axis=-1) == 1).all()
    theta_vals = theta_coefficients[np.take_along_axis(theta_map.cell_dofs, at_corner.argmax(axis=-1), axis=1)].ravel()
    lines = ["# vtk DataFile Version 2.0", "dpgtransport solution", "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {len(points)} double")
    lines += [f"{float(p[0])!r} {float(p[1])!r} 0.0" for p in points]
    lines.append(f"CELLS {n} {4 * n}")
    lines += [f"3 {3 * c} {3 * c + 1} {3 * c + 2}" for c in range(n)]
    lines.append(f"CELL_TYPES {n}")
    lines += ["5"] * n
    lines += [f"POINT_DATA {len(points)}", "SCALARS phi double", "LOOKUP_TABLE default"]
    lines += [repr(float(v)) for v in phi_vals]
    lines += ["SCALARS theta double", "LOOKUP_TABLE default"]
    lines += [repr(float(v)) for v in theta_vals]
    return ("\n".join(lines) + "\n").encode()


SIGNED_ZEROS = np.array([-0.0, 0.0, 1.5, -0.0, 0.1 + 0.2, 1.5, 0.0, -2.5e-300, 0.3])


@pytest.mark.parametrize("vectors", ["solver", "random", "signed_zeros"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("perturbed", [False, True])
def test_vtk_bytes_match_one_repr_per_line(tmp_path, monkeypatch, perturbed, m, vectors):
    monkeypatch.setattr(cli, "VTK_CHUNK", 7)  # chunk boundaries fall inside each field
    builder = perturbed_mesh if perturbed else build_uniform_mesh
    if vectors == "solver":
        run = solve_transport(2, 1, BENCHMARK_BETA, m=m, mesh_builder=builder)
        pair, phi_map, theta_map = run["mesh_pair"], run["phi_map"], run["theta_map"]
        phi, theta = run["x"][: phi_map.ndofs], run["x"][phi_map.ndofs :]
    else:
        pair = MeshPair(builder(2), 0)
        phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, pair, m - 1)
        theta_map = build_dof_map(SpaceKind.CONTINUOUS, pair, m)
        if vectors == "random":
            rng = np.random.default_rng(m)
            phi, theta = rng.standard_normal(phi_map.ndofs), rng.standard_normal(theta_map.ndofs)
        else:
            phi = np.resize(SIGNED_ZEROS, phi_map.ndofs)
            theta = np.resize(SIGNED_ZEROS[::-1], theta_map.ndofs)
    path = tmp_path / "out.vtk"
    export_vtk(phi, theta, pair, phi_map, theta_map, str(path))
    assert path.read_bytes() == _reference_vtk(phi, theta, pair, phi_map, theta_map)


# --------------------------------------------------------------------- main


def test_main_smoke(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    vtk_path = tmp_path / "run.vtk"
    code = main(
        ["--levels", "0:1", "--test-refine", "0", "--csv", str(csv_path), "--vtk", str(vtk_path)]
    )
    assert code == 0
    assert csv_path.exists() and vtk_path.exists()
    out = capsys.readouterr().out
    assert "level=0" in out and "level=1" in out


@pytest.mark.parametrize("flag", ["--csv", "--vtk"])
def test_main_reports_unwritable_output(flag, tmp_path, capsys):
    """The levels are solved and printed; the export fails with one error line and exit code 1."""
    path = tmp_path / "missing" / "out"
    assert main(["--levels", "1", "--test-refine", "0", flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert "level=1" in captured.out
    assert captured.err.count("error:") == 1 and captured.err.startswith("error:")
    assert str(path) in captured.err


def test_main_reports_solver_failure(monkeypatch, capsys):
    """A wrong trace factor, refined once, leaves a backward error far above rounding: exit code 2."""
    use_wrong_trace_factor(monkeypatch)
    assert main(["--levels", "2"]) == 2
    assert "[solver did not converge]" in capsys.readouterr().out


def test_main_accepts_a_right_answer_below_its_tolerance(capsys):
    """A tolerance below the rounding of the true residual is not met, but the backward error is at rounding: exit code 0."""
    assert main(["--levels", "2", "--tol", "1e-16"]) == 0
    out = capsys.readouterr().out
    assert "--tol not met" in out and "[solver did not converge]" not in out


def test_solved_below_its_tolerance_is_a_json_bool():
    """A level that misses --tol but is solved at rounding reports a Python bool, which JSON accepts."""
    _, row = solve_level(RunConfig(levels=(2,), tol=1e-16), 2)
    assert row.converged is False
    assert row.solved is True
    assert json.dumps(row.solved) == "true"


def test_main_rejects_bad_degree(capsys):
    assert main(["--degree", "9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_rejects_negative_reaction(capsys):
    assert main(["--levels", "3", "--reaction", "-5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_largest_reaction_still_solves():
    """c = MAX_REACTION passes validate, solves, and gives theta to 1e-7 against -expm1(-c t)/c.

    The condensed load F_theta - F_phi W_K cancels by about c eps, so theta's
    error grows with c: its median relative error over the trace nodes whose
    exact value exceeds 0.5/c read 9.5e-9 at c = 1e8 and 6.4e-7 at 1e10
    (level 5, m = 4, beta angle 0.7), and theta was 0 at c = 1e150.
    """
    config = RunConfig(levels=(5,), degree=4, beta_angle=0.7, reaction=cli.MAX_REACTION)
    config.validate()
    solution, row = solve_level(config, 5)
    assert row.solved and math.isfinite(row.eta)
    c = config.reaction
    travel = exact_transport_solution(trace_node_coords(solution.mesh_pair.coarse, solution.theta_map), config.beta)
    exact = -np.expm1(-c * travel) / c
    theta = solution.solution[solution.phi_map.ndofs :]
    far = exact > 0.5 / c
    assert far.sum() > 0.9 * len(far)
    assert np.median(np.abs(theta[far] - exact[far]) / exact[far]) <= 1e-7


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--tol", "inf"),
        ("--tol", "2"),
        ("--tol", "nan"),
        ("--beta-angle", "nan"),
        ("--rhs-const", "nan"),
        ("--rhs-const", "inf"),
        ("--reaction", "inf"),
        ("--reaction", "1e9"),  # above MAX_REACTION: the condensed load would cancel
        ("--reaction", "1e155"),  # c^2 would overflow in P = G_phi^T B^-1 G_phi
        ("--levels", "2,2"),  # would solve level 2 twice and write two identical rows
    ],
)
def test_main_rejects_non_finite_or_out_of_range_input(flag, value, capsys):
    """Caught by validate before any level runs: exit code 1 and one error line."""
    assert main(["--levels", "2", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and captured.err.startswith("error:")


def test_main_rejects_reversed_level_range(capsys):
    """An empty range is named as such, not as a negative level."""
    assert main(["--levels", "6:2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level range 6:2 is empty: its end is below its start\n"


def test_main_rejects_bad_levels(capsys):
    assert main(["--levels=-2:1"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["--degree", "x"], ["--bogus", "1"], ["--levels"], ["--enrich", "4"]],
    ids=["bad-int", "unknown-flag", "missing-value", "removed-enrich"],
)
def test_main_rejects_malformed_flags(argv, capsys):
    """argparse's errors are bad input: exit code 1 and one error line, not argparse's exit 2 and usage block."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    assert "--reaction" in capsys.readouterr().out
