"""Workload definitions: solver configurations, meshes and reference solutions.

Nothing here imports numpy or dpgtransport at module level, so the set-up
probe can time those imports itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

JITTER_FRACTION = 0.2  # interior vertices move by up to this share of H per coordinate


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict = field(default_factory=dict)  # RunConfig keyword arguments
    exports_vtk: bool = False
    jitter: bool = False
    reference: str = "ramp"  # "ramp": CLI's own min(x/b1, y/b2); "decay": 1 - exp(-x)
    error_falls: bool = False  # gate: l2_error falls from level to level

    def levels(self, max_level: int | None = None) -> tuple[int, ...]:
        levels = self.config["levels"]
        if max_level is not None:
            levels = tuple(lv for lv in levels if lv <= max_level) or (min(levels),)
        return tuple(levels)


WORKLOADS = {
    # The `dpg-transport` defaults, with the CSV and VTK files a user asks for.
    "sweep": Workload(
        "sweep",
        {"levels": (2, 3, 4, 5, 6)},
        exports_vtk=True,
        error_falls=True,
    ),
    # Horizontal flow: horizontal edges are characteristic, so many trace DOFs
    # are pinned while CG needs few iterations; also exercises the reaction term.
    "axis": Workload(
        "axis",
        {"levels": (2, 3, 4, 5, 6), "beta_angle": 0.0, "reaction": 1.0},
        reference="decay",
    ),
    # Seeded vertex perturbation: every cell is its own geometry class, so the
    # coefficient cache never hits and the per-cell local solves dominate.
    "jitter": Workload(
        "jitter",
        {"levels": (2, 3, 4), "degree": 3},
        jitter=True,
    ),
}


def jittered_mesh_builder(build_uniform_mesh, trimesh_cls, seed: int):
    """Return `level -> TriMesh`: the uniform mesh with its interior vertices moved.

    Each interior vertex moves by an offset drawn uniformly from
    [-0.2 H, 0.2 H] per coordinate; boundary vertices stay on the square.
    The generator is seeded from (seed, level), so a seed gives bit-identical
    vertices on every call.  Offsets below H/4 per coordinate keep every cell
    counter-clockwise, which `TriMesh` checks.
    """
    import numpy as np

    def build(level: int):
        mesh = build_uniform_mesh(level)
        h = 2.0**-level
        vertices = mesh.vertices.copy()
        on_boundary = np.any((vertices <= 0.0) | (vertices >= 1.0), axis=1)
        interior = np.flatnonzero(~on_boundary)
        rng = np.random.default_rng([seed, level])
        offsets = rng.uniform(-JITTER_FRACTION * h, JITTER_FRACTION * h, size=(len(interior), 2))
        vertices[interior] += offsets
        return trimesh_cls(vertices, mesh.cells)

    return build


def reference_solution(workload: Workload, config):
    """Closed-form phi for the workload's problem, as a function of points (..., 2)."""
    import numpy as np

    if workload.reference == "decay":
        # beta = (1, 0), c > 0, constant f: phi_x + c phi = f, phi(0, y) = 0.
        if abs(config.beta_angle) > 0.0:
            raise ValueError("the decay reference needs beta = (1, 0)")
        c, f = config.reaction, config.rhs_const
        return lambda p: (f / c) * (1.0 - np.exp(-c * p[..., 0]))
    beta = config.beta
    if config.reaction != 0.0 or min(beta) <= 0.0:
        raise ValueError("the ramp reference needs c = 0 and positive beta")
    return lambda p: config.rhs_const * np.minimum(p[..., 0] / beta[0], p[..., 1] / beta[1])

