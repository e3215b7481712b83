import math
import time

import numpy as np
import pytest

from dpgtransport import (
    MeshPair,
    SpaceKind,
    a_posteriori_error,
    apply_dirichlet,
    assemble,
    build_dof_map,
    TriMesh,
    build_uniform_mesh,
    cg_solve,
    exact_transport_solution,
    inflow_mask,
    l2_error,
    pin_characteristic_dofs,
    transport_form,
)

BENCHMARK_BETA = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)])


def perturbed_mesh(level, seed=0, fraction=0.2):
    """Uniform mesh with each interior vertex moved by up to fraction * H per coordinate."""
    mesh = build_uniform_mesh(level)
    vertices = mesh.vertices.copy()
    interior = np.flatnonzero(np.all((vertices > 0.0) & (vertices < 1.0), axis=1))
    h = 2.0**-level
    rng = np.random.default_rng([seed, level])
    vertices[interior] += rng.uniform(-fraction * h, fraction * h, size=(len(interior), 2))
    return TriMesh(vertices, mesh.cells)


def constant_rhs(value=1.0):
    return lambda points: np.full(len(points), value)


def solve_transport(
    level, test_refine, beta, m=2, rhs_f=None, pin=True, tol=1e-12, mesh_builder=build_uniform_mesh
):
    """Full pipeline for one level; returns the pieces tests poke at."""
    if rhs_f is None:
        rhs_f = constant_rhs()
    mesh = mesh_builder(level)
    mesh_pair = MeshPair(mesh, test_refine)
    form = transport_form(m, beta, 0.0)
    phi_map = build_dof_map(SpaceKind.BROKEN_COARSE, mesh_pair, m - 1)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, mesh_pair, m)
    system = assemble(form, mesh_pair, (phi_map, theta_map), rhs_f)
    system = apply_dirichlet(system, inflow_mask(theta_map, mesh, beta), 0.0)
    if pin:
        system = pin_characteristic_dofs(system, theta_map, mesh, beta)
    x, report = cg_solve(system.matrix, system.rhs, tol=tol)
    return {
        "mesh_pair": mesh_pair,
        "phi_map": phi_map,
        "theta_map": theta_map,
        "form": form,
        "system": system,
        "x": x,
        "cg": report,
        "rhs_f": rhs_f,
    }


@pytest.fixture(scope="session")
def benchmark_sweep():
    """Default benchmark, levels 2-6 at test refinement 1; timed once."""
    start = time.perf_counter()
    runs = {}
    for level in range(2, 7):
        run = solve_transport(level, 1, BENCHMARK_BETA)
        exact = lambda p: exact_transport_solution(p, BENCHMARK_BETA)
        err = l2_error(run["x"][: run["phi_map"].ndofs], exact, run["mesh_pair"], run["phi_map"])
        breakdown = a_posteriori_error(
            run["form"],
            run["mesh_pair"],
            (run["phi_map"], run["theta_map"]),
            run["x"],
            run["rhs_f"],
        )
        runs[level] = {"run": run, "l2_error": err, "eta": breakdown.eta}
    elapsed = time.perf_counter() - start
    return {"runs": runs, "elapsed": elapsed}
