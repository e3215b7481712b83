import importlib.util
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from dpgtransport import cli
from dpgtransport.fem import lagrange_basis
from dpgtransport.forms import transport_form
from dpgtransport.mesh import MeshPair, TriMesh, build_uniform_mesh

BENCHMARK_BETA = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """The module `perfbench/<name>.py`, loaded without touching `perfbench/`."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module


# ----------------------------------------------- geometric oracle of the mesh skeleton


@dataclass(frozen=True)
class Face:
    """An edge of the triangulation with its cell adjacency."""

    vertex_ids: tuple[int, int]
    cells: tuple[int, ...]

    @property
    def boundary(self) -> bool:
        return len(self.cells) == 1


def mesh_faces(mesh) -> list[Face]:
    """Edges of `mesh` in order of first appearance, one dict lookup at a time."""
    adjacency: dict[tuple[int, int], list[int]] = {}
    order: list[tuple[int, int]] = []
    for c, (a, b, d) in enumerate(mesh.cells):
        for p, q in ((a, b), (b, d), (d, a)):
            key = (min(p, q), max(p, q))
            if key not in adjacency:
                adjacency[key] = []
                order.append(key)
            adjacency[key].append(c)
    return [Face(key, tuple(adjacency[key])) for key in order]


def skeleton_nodes(degree) -> np.ndarray:
    """The local Lagrange nodes of `degree` on the reference triangle's edges, by their zero barycentric coordinate."""
    x, y = lagrange_basis(degree).nodes.T
    return np.flatnonzero(np.abs(np.minimum(np.minimum(x, y), 1.0 - x - y)) < 1e-12)


def trace_node_coords(mesh, theta_map) -> np.ndarray:
    """The coordinates of each trace DOF, shape (ndofs, 2): every cell's skeleton nodes mapped by `TriMesh.map_points`."""
    coords = np.empty((theta_map.ndofs, 2))
    nodes = lagrange_basis(theta_map.degree).nodes[: theta_map.cell_dofs.shape[1]]
    coords[theta_map.cell_dofs] = mesh.map_points(nodes)
    return coords


def first_appearance_reference(keys):
    """`first_appearance` by `np.unique(axis=0)`: each row's number, and the first row of each number, ascending."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.ravel()], np.sort(first)


def boundary_faces(mesh) -> list[Face]:
    return [f for f in mesh_faces(mesh) if f.boundary]


def outward_normal(mesh, face: Face, owner: int) -> np.ndarray:
    """Unit normal on `face` pointing out of cell `owner`."""
    if owner not in face.cells:
        raise ValueError(f"cell {owner} is not adjacent to face {face.vertex_ids}")
    a, b = mesh.vertices[list(face.vertex_ids)]
    t = b - a
    n = np.array([t[1], -t[0]]) / np.hypot(*t)
    centroid = mesh.vertices[mesh.cells[owner]].mean(axis=0)
    if np.dot(n, 0.5 * (a + b) - centroid) < 0.0:
        n = -n
    return n


# ------------------------------------------------------------------ pipeline


def perturbed_mesh(level, seed=0, fraction=0.2):
    """Uniform mesh with each interior vertex moved by up to fraction * H per coordinate."""
    mesh = build_uniform_mesh(level)
    vertices = mesh.vertices.copy()
    interior = np.flatnonzero(np.all((vertices > 0.0) & (vertices < 1.0), axis=1))
    h = 2.0**-level
    rng = np.random.default_rng([seed, level])
    vertices[interior] += rng.uniform(-fraction * h, fraction * h, size=(len(interior), 2))
    return TriMesh(vertices, mesh.cells)


def jittered_mesh(level, seed=1):
    """The benchmark's jittered mesh: `perfbench/workloads.jittered_mesh_builder` for `seed`."""
    return load_perfbench("workloads").jittered_mesh_builder(build_uniform_mesh, TriMesh, seed)(level)


def use_wrong_trace_factor(monkeypatch, perturbation=1e-3):
    """Make `cg_solve` factor its matrix with the diagonal scaled by 1 + `perturbation`.

    The solve then returns a wrong x: the exact solution of a perturbed system.
    """

    def wrong_splu(a, *args, **kwargs):
        return splu(sp.csc_matrix(a + perturbation * sp.diags(a.diagonal())), *args, **kwargs)

    monkeypatch.setattr("dpgtransport.solve.splu", wrong_splu)


def constant_rhs(value=1.0):
    return lambda points: np.full(len(points), value)


def no_load(b):
    """The empty load basis, r = 0, for the test space of the Gram blocks `b`: `compute_coefficients` lifts no load."""
    return np.zeros((0, np.shape(b)[-1]))


def near_optimal_coefficients(lower, z):
    """C_K = L_K^-T Z_K, the near-optimal test functions, from L_K and Z_K = L_K^-1 G_K of `compute_coefficients`."""
    return np.linalg.solve(np.swapaxes(lower, -1, -2), z)


def _run(solution, form, rhs_f, **solve):
    """The fields the tests read of one solved level: its `LevelSolution`, form and source, and `solve`."""
    fields = {"mesh_pair": solution.mesh_pair, "phi_map": solution.phi_map, "theta_map": solution.theta_map}
    return {**fields, "form": form, "x": solution.solution, "rhs_f": rhs_f, **solve}


def solve_transport(
    level, test_refine, beta, m=2, rhs_f=None, tol=1e-12, mesh_builder=build_uniform_mesh, reaction=0.0
):
    """Full pipeline for one level: `cli.solve_on_mesh` on the mesh of `mesh_builder`.

    Without `rhs_f` the source is the number 1.0, the CLI's default constant.
    The result also holds the constrained system and the solve's report.
    """
    if rhs_f is None:
        rhs_f = 1.0
    form = transport_form(m, beta, reaction)
    solution, system, report = cli.solve_on_mesh(MeshPair(mesh_builder(level), test_refine), form, rhs_f, tol)
    return _run(solution, form, rhs_f, system=system, cg=report)


@pytest.fixture(scope="session")
def benchmark_sweep():
    """The CLI's default sweep, levels 2-6, each level run by `cli.solve_level`; timed once.

    `l2_error` and `eta` are the values of the level's report row.
    """
    config = cli.RunConfig()
    form = transport_form(config.degree, config.beta, config.reaction)
    start = time.perf_counter()
    runs = {}
    for level in config.levels:
        solution, row = cli.solve_level(config, level)
        runs[level] = {"run": _run(solution, form, config.rhs_const), "l2_error": row.l2_error, "eta": row.eta}
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}
