"""Every name the benchmark wraps or calls resolves in the package.

`perfbench/spans.py` lists its targets as `(module, attribute or
Class.method, observer)`.  A target that no longer resolves is not an error
there: its span is listed as missing and the per-layer metrics that need it
are left out of the benchmark's result.  This test makes such a loss fail
here instead.  `perfbench/run.py` and `perfbench/setup_probe.py` also call
package names directly and build `RunConfig` from the workload configs of
`perfbench/workloads.py`; a renamed one would show only in a benchmark run.
The jittered meshes of `perfbench/workloads.py` must keep a continuous trace
space, and the tree of traced calls must keep its shape, or the per-layer
metrics read from it change their meaning.  The files under `perfbench/` are
only read, never changed.
"""

import importlib

import pytest

from conftest import jittered_mesh, load_perfbench, mesh_faces
from dpgtransport import cli
from dpgtransport.cli import RunConfig
from dpgtransport.fem import SpaceKind, build_dof_map
from dpgtransport.mesh import MeshPair

# (span, parent span) of the traced calls of one default level; None is the root's parent.
TRACED_TREE = {
    ("cli.solve_level", None),
    ("cli.build_uniform_mesh", "cli.solve_level"),
    ("mesh.MeshPair.__init__", "cli.solve_level"),
    ("fem.build_dof_map", "cli.solve_level"),
    ("assembly.assemble", "cli.solve_level"),
    ("forms.local_load", "assembly.assemble"),
    ("testspace.cell_blocks", "assembly.assemble"),
    ("forms.local_saddle_blocks", "testspace.cell_blocks"),
    ("forms.InnerProduct.local_gram", "forms.local_saddle_blocks"),
    ("forms.BilinearForm.local_matrix", "forms.local_saddle_blocks"),
    ("testspace.compute_coefficients", "testspace.cell_blocks"),
    ("solve.cholesky_factor", "testspace.compute_coefficients"),
    ("solve.cholesky_factor", "assembly.assemble"),
    ("assembly.inflow_mask", "cli.solve_level"),
    ("assembly.apply_dirichlet", "cli.solve_level"),
    ("assembly.pin_characteristic_dofs", "cli.solve_level"),
    ("assembly.characteristic_theta_dofs", "assembly.pin_characteristic_dofs"),
    ("cli.cg_solve", "cli.solve_level"),
    ("estimator.l2_error", "cli.solve_level"),
    ("estimator.a_posteriori_error", "cli.solve_level"),
    ("mesh.MeshPair.__init__", "estimator.a_posteriori_error"),
    ("forms.local_load", "estimator.a_posteriori_error"),
    ("forms.InnerProduct.local_gram", "estimator.a_posteriori_error"),
    ("forms.BilinearForm.local_matrix", "estimator.a_posteriori_error"),
    ("solve.cholesky_factor", "estimator.a_posteriori_error"),
}

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


def test_traced_call_tree_keeps_its_shape():
    """One default level-3 `solve_level` under `perfbench/spans.Tracer`: its (span, parent) pairs are TRACED_TREE.

    `compute_coefficients` runs only under `cell_blocks`, once per chunk, so
    no cell_blocks call counts as a cache hit; the estimator's Gram work
    sits directly under `a_posteriori_error`, where `estimator.gram_s` looks.
    """
    spans = load_perfbench("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.solve_level(RunConfig(), 3)  # the module's binding, which the tracer wraps
    finally:
        tracer.uninstall()
    names = {span.sid: span.name for span in tracer.spans}
    assert not tracer.missing
    assert {(span.name, names.get(span.parent)) for span in tracer.spans} == TRACED_TREE
    assert spans.level_metrics(tracer.spans, 3)["testspace.cache_hits"] == 0
