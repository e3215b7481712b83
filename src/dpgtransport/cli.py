"""Convergence-study driver: sweep mesh levels, emit CSV tables and VTK fields.

`solve_on_mesh` runs a level's pipeline, DOF maps to phi; `solve_level` adds the L2 error, the estimator and the row.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import GlobalSystem, apply_dirichlet, assemble, back_substitute, inflow_mask, pin_characteristic_dofs
from .estimator import DEFAULT_ENRICHMENT_DEGREE, a_posteriori_error, exact_transport_solution, l2_error
from .fem import MAX_BASIS_DEGREE, DofMap, SpaceKind, build_dof_map, lagrange_basis
from .forms import TransportForm, transport_form
from .mesh import REFERENCE_TRIANGLE, MeshPair, build_uniform_mesh
from .solve import CgReport, cg_solve

MAX_TEST_REFINE = 3  # cost guard
VTK_CHUNK = 4096  # values (corners, phi values or CELLS point ids) per string that export_vtk writes
# k: a level whose trace solve has a backward error of at most k eps is solved
# as exactly as its data allow, even above --tol.  Measured after the one
# factor solve: at most 4.4 eps (m = 1-4, test refinement 0-3, c up to 1e12,
# six directions; uniform meshes to level 8, jittered meshes to level 7).
ROUNDING_FACTOR = 16
MAX_REACTION = 1e150  # the test norm's mass weight 1 + c^2 must stay finite


@dataclass(frozen=True)
class RunConfig:
    levels: tuple[int, ...] = (2, 3, 4, 5, 6)
    test_refine: int = 1
    degree: int = 2  # trial parameter m
    beta_angle: float = math.pi / 8
    reaction: float = 0.0
    rhs_const: float = 1.0
    enrich_degree: int = DEFAULT_ENRICHMENT_DEGREE
    csv_path: str | None = None
    vtk_path: str | None = None
    tol: float = 1e-12

    def validate(self) -> None:
        if not self.levels or any(lv < 0 for lv in self.levels):
            raise ValueError("levels must be non-negative integers")
        if not 1 <= self.degree < MAX_BASIS_DEGREE:  # the test-search space has degree m + 1
            raise ValueError(f"degree m must satisfy 1 <= m <= {MAX_BASIS_DEGREE - 1}")
        if not 0 <= self.test_refine <= MAX_TEST_REFINE:
            raise ValueError(f"test refinement must be in [0, {MAX_TEST_REFINE}]")
        if not 1 <= self.enrich_degree <= MAX_BASIS_DEGREE:
            raise ValueError(f"enrichment degree must be in [1, {MAX_BASIS_DEGREE}]")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("solver tolerance must satisfy 0 < tol < 1")
        if not 0.0 <= self.reaction <= MAX_REACTION:
            raise ValueError(f"reaction coefficient c must be in [0, {MAX_REACTION:g}]")
        if not (math.isfinite(self.beta_angle) and math.isfinite(self.rhs_const)):
            raise ValueError("beta angle and right-hand side f must be finite")

    @property
    def beta(self) -> np.ndarray:
        return np.array([math.cos(self.beta_angle), math.sin(self.beta_angle)])


@dataclass(frozen=True)
class ReportRow:
    level: int
    h: float
    ndof: int
    l2_error: float
    eta: float
    efficiency: float
    iterations: int
    seconds: float
    converged: bool = True
    classes: int = 0  # geometry classes of the level's mesh
    gram_cond: float = math.nan  # largest (max diag L / min diag L)^2 over the test-search Gram factors
    backward_error: float = math.nan  # componentwise backward error of the trace solve

    @property
    def solved(self) -> bool:
        """The trace solve met --tol, or its backward error is at most ROUNDING_FACTOR eps."""
        return bool(self.converged or self.backward_error <= ROUNDING_FACTOR * np.finfo(float).eps)


@dataclass
class ErrorReport:
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def all_solved(self) -> bool:
        return all(r.solved for r in self.rows)


@dataclass
class LevelSolution:
    mesh_pair: MeshPair
    phi_map: DofMap
    theta_map: DofMap
    solution: np.ndarray


def solve_on_mesh(
    mesh_pair: MeshPair, form: TransportForm, rhs_f, tol: float
) -> tuple[LevelSolution, GlobalSystem, CgReport]:
    """Assemble the trace system, constrain it, solve it on its free DOFs and recover phi."""
    mesh, beta = mesh_pair.coarse, np.array(form.beta)
    phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, mesh_pair, form.degree - 1)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, mesh_pair, form.degree)
    system = assemble(form, mesh_pair, (phi_map, theta_map), rhs_f)
    system = apply_dirichlet(system, inflow_mask(theta_map, mesh, beta))
    system = pin_characteristic_dofs(system, theta_map, mesh, beta)
    free = system.free
    theta_free, report = cg_solve(system.matrix[free][:, free], system.rhs[free], tol=tol)
    theta = np.zeros(theta_map.ndofs)
    theta[free] = theta_free
    x = back_substitute(system, (phi_map, theta_map), theta)
    return LevelSolution(mesh_pair, phi_map, theta_map, x), system, report


def solve_level(config: RunConfig, level: int) -> tuple[LevelSolution, ReportRow]:
    """The uniform mesh of `level` solved by `solve_on_mesh`, then its L2 error, estimator and report row."""
    start = time.perf_counter()
    beta = config.beta
    mesh_pair = MeshPair(build_uniform_mesh(level), config.test_refine)
    form = transport_form(config.degree, beta, config.reaction)
    solution, system, report = solve_on_mesh(mesh_pair, form, config.rhs_const, config.tol)
    phi_map, theta_map, x = solution.phi_map, solution.theta_map, solution.solution

    if config.reaction == 0.0 and beta[0] > 1e-12 and beta[1] > 1e-12:
        exact = lambda p: config.rhs_const * exact_transport_solution(p, beta)
        err = l2_error(x[: phi_map.ndofs], exact, mesh_pair, phi_map)
    else:
        err = math.nan  # no closed-form reference for this configuration
    breakdown = a_posteriori_error(
        form, mesh_pair, (phi_map, theta_map), x, config.rhs_const, config.enrich_degree
    )
    efficiency = breakdown.eta / err if err and not math.isnan(err) else math.nan
    seconds = time.perf_counter() - start
    row = ReportRow(
        level,
        2.0**-level,
        len(x),
        err,
        breakdown.eta,
        efficiency,
        report.iterations,
        seconds,
        report.converged,
        len(system.coupling),
        system.gram_cond,
        report.backward_error,
    )
    return solution, row


def export_csv(report: ErrorReport, path: str) -> None:
    lines = ["level,H,ndof,l2_error,eta,efficiency,iterations,seconds"]
    for r in report.rows:  # str of a float is its shortest round-trip decimal
        values = (r.level, r.h, r.ndof, r.l2_error, r.eta, r.efficiency, r.iterations, r.seconds)
        lines.append(",".join(map(str, values)))
    try:
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _repr_lines(values: np.ndarray):
    """The `repr` lines of `values`, one joined string per chunk of VTK_CHUNK values.

    `export_vtk` writes each chunk as it comes, so a chunk is the most text
    held at once: the allocator would keep a whole field's text resident
    after the export returns.
    """
    values = np.asarray(values, dtype=float)
    for start in range(0, len(values), VTK_CHUNK):
        yield "\n".join(map(repr, values[start : start + VTK_CHUNK].tolist())) + "\n"


def _cell_lines(n: int):
    """The CELLS lines of n triangles on the points 3c, 3c + 1 and 3c + 2, one string per VTK_CHUNK // 3 lines.

    Each chunk is one `format` call, whose arguments are at most VTK_CHUNK
    point ids: one call for all 3n ids would hold them all as Python ints.
    """
    step = VTK_CHUNK // 3
    for start in range(0, n, step):
        count = min(step, n - start)
        yield ("3 {} {} {}\n" * count).format(*range(3 * start, 3 * (start + count)))


def _vertex_lines(line: str, columns, cells: np.ndarray):
    """The lines of per-vertex data at the cells' corners, one joined string per VTK_CHUNK corners.

    `line.format` makes each mesh vertex's line once, from its entries of
    `columns`; the corners in `cells.ravel()` order then take their vertex's
    line.  The chunks bound the corner ids held as Python ints at once.
    """
    table = list(map(line.format, *columns))
    corners = cells.ravel()
    for start in range(0, len(corners), VTK_CHUNK):
        yield "".join(map(table.__getitem__, corners[start : start + VTK_CHUNK].tolist()))


def export_vtk(
    phi_coefficients: np.ndarray,
    theta_coefficients: np.ndarray,
    mesh_pair: MeshPair,
    phi_map: DofMap,
    theta_map: DofMap,
    path: str,
) -> None:
    """Legacy ASCII VTK with per-cell duplicated points; theta at the corners is each cell's first three DOFs.

    phi is broken, so its corner values are nearly all distinct and are
    written by `_repr_lines`.  theta is continuous, with one DOF per mesh
    vertex, so it is written, like the points, by `_vertex_lines`.
    """
    mesh = mesh_pair.coarse
    phi_vals = (phi_coefficients[phi_map.cell_dofs] @ lagrange_basis(phi_map.degree).eval(REFERENCE_TRIANGLE).T).ravel()
    theta_at = np.zeros(mesh.n_vertices)
    theta_at[mesh.cells] = theta_coefficients[theta_map.cell_dofs[:, :3]]

    n = mesh.n_cells
    blocks = (
        ["# vtk DataFile Version 2.0\n", "dpgtransport solution\n", "ASCII\n", "DATASET UNSTRUCTURED_GRID\n"],
        [f"POINTS {3 * n} double\n"],
        _vertex_lines("{!r} {!r} 0.0\n", mesh.vertices.T.tolist(), mesh.cells),
        [f"CELLS {n} {4 * n}\n"],
        _cell_lines(n),
        [f"CELL_TYPES {n}\n", "5\n" * n],
        [f"POINT_DATA {3 * n}\n", "SCALARS phi double\n", "LOOKUP_TABLE default\n"],
        _repr_lines(phi_vals),
        ["SCALARS theta double\n", "LOOKUP_TABLE default\n"],
        _vertex_lines("{!r}\n", [theta_at.tolist()], mesh.cells),
    )
    try:
        with open(path, "w", newline="") as handle:
            for block in blocks:
                handle.writelines(block)  # chunk by chunk, never a whole block's text
    except OSError as exc:
        raise OSError(f"cannot write VTK to {path}: {exc}") from exc


def parse_levels(text: str) -> tuple[int, ...]:
    """`2:6` (inclusive range), `2,3,5`, or a single level."""
    if ":" in text:
        lo, hi = (int(part) for part in text.split(":", 1))
        if hi < lo:
            raise ValueError(f"level range {text} is empty: its end is below its start")
        return tuple(range(lo, hi + 1))
    return tuple(int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpg-transport",
        description="DPG convergence study for linear transport on the unit square",
        argument_default=argparse.SUPPRESS,  # an absent flag takes its RunConfig default
    )
    parser.add_argument("--levels", help="mesh levels, e.g. 2:6 or 2,4,6")
    parser.add_argument("--test-refine", type=int, metavar="L")
    parser.add_argument("--degree", type=int, metavar="M")
    parser.add_argument("--beta-angle", type=float, metavar="RAD")
    parser.add_argument("--reaction", type=float, metavar="C")
    parser.add_argument("--rhs-const", type=float, metavar="F")
    parser.add_argument("--enrich", dest="enrich_degree", type=int, metavar="P")
    parser.add_argument("--csv", dest="csv_path", metavar="PATH")
    parser.add_argument("--vtk", dest="vtk_path", metavar="PATH")
    parser.add_argument("--tol", type=float, metavar="T")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    settings = vars(args)
    if "levels" in settings:
        settings = {**settings, "levels": parse_levels(settings["levels"])}
    return RunConfig(**settings)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        config.validate()
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = ErrorReport()
    last_solution: LevelSolution | None = None
    for level in sorted(config.levels):
        solution, row = solve_level(config, level)
        report.rows.append(row)
        last_solution = solution
        if row.converged:
            flag = ""
        elif row.solved:
            flag = f"  [--tol not met; backward error {row.backward_error:.1e}, at rounding]"
        else:
            flag = "  [solver did not converge]"
        print(
            f"level={row.level} H={row.h:g} ndof={row.ndof} "
            f"l2_error={row.l2_error:.6e} eta={row.eta:.6e} "
            f"efficiency={row.efficiency:.3f} iterations={row.iterations}{flag}"
        )

    try:
        if config.csv_path:
            export_csv(report, config.csv_path)
        if config.vtk_path and last_solution is not None:
            n_phi = last_solution.phi_map.ndofs
            export_vtk(
                last_solution.solution[:n_phi],
                last_solution.solution[n_phi:],
                last_solution.mesh_pair,
                last_solution.phi_map,
                last_solution.theta_map,
                config.vtk_path,
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.all_solved else 2


if __name__ == "__main__":
    raise SystemExit(main())
