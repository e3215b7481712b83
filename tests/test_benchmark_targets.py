"""Every name the benchmark wraps or calls resolves in the package.

`perfbench/spans.py` lists its targets as `(module, attribute or
Class.method, observer)`.  A target that no longer resolves is not an error
there: its span is listed as missing and the per-layer metrics that need it
are left out of the benchmark's result.  This test makes such a loss fail
here instead.  `perfbench/run.py` and `perfbench/setup_probe.py` also call
package names directly and build `RunConfig` from the workload configs of
`perfbench/workloads.py`; a renamed one would show only in a benchmark run.
The jittered meshes of `perfbench/workloads.py` must keep a continuous trace
space.  The files under `perfbench/` are only read, never changed.
"""

import importlib

import pytest

from conftest import jittered_mesh, load_perfbench, mesh_faces
from dpgtransport.cli import RunConfig
from dpgtransport.fem import SpaceKind, build_dof_map
from dpgtransport.mesh import MeshPair

# Called by run.py and setup_probe.py without the tracer.
CALLED = (
    ("cli", "solve_level"),
    ("cli", "RunConfig"),
    ("cli", "ErrorReport"),
    ("cli", "export_csv"),
    ("cli", "export_vtk"),
    ("cli", "cg_solve"),
    ("cli", "build_uniform_mesh"),
    ("estimator", "l2_error"),
    ("mesh", "TriMesh"),
    ("mesh", "build_uniform_mesh"),
)


def _load_targets():
    return [(module_name, attr) for module_name, attr, _ in load_perfbench("spans").TARGETS]


def _resolve(module_name, attr):
    """The object the tracer would wrap, looked up as `Tracer.install` does, or None."""
    owner = importlib.import_module(f"dpgtransport.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return vars(cls).get(method) if isinstance(cls, type) else None
    return getattr(owner, attr, None)


@pytest.mark.parametrize("module_name,attr", _load_targets(), ids=lambda value: value)
def test_traced_name_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr)), f"dpgtransport.{module_name}.{attr} is gone"


@pytest.mark.parametrize("module_name,attr", CALLED, ids=lambda value: value)
def test_called_name_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr)), f"dpgtransport.{module_name}.{attr} is gone"


@pytest.mark.parametrize("workload", sorted(load_perfbench("workloads").WORKLOADS.items()), ids=lambda item: item[0])
def test_workload_config_builds_a_valid_run_config(workload):
    _, spec = workload
    RunConfig(**spec.config).validate()


@pytest.mark.parametrize("level,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (8, 2)])
def test_jittered_trace_space_has_one_dof_per_vertex_and_m_minus_1_per_edge(level, m):
    """At level 8 with m = 2, a trace numbering keyed on coordinates rounded to
    1e-10 split one vertex of the seed-1 mesh into two DOFs."""
    mesh = jittered_mesh(level)
    theta_map = build_dof_map(SpaceKind.CONTINUOUS, MeshPair(mesh, 1), m)
    assert theta_map.ndofs == mesh.n_vertices + (m - 1) * len(mesh_faces(mesh))
