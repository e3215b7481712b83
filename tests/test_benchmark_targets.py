"""Every name the benchmark wraps or calls resolves in the package.

`perfbench/spans.py` lists its targets as `(module, attribute or
Class.method, observer)`.  A target that no longer resolves is not an error
there: its span is listed as missing and the per-layer metrics that need it
are left out of the benchmark's result.  This test makes such a loss fail
here instead.  `perfbench/run.py` and `perfbench/setup_probe.py` also call
package names directly and build `RunConfig` from the workload configs of
`perfbench/workloads.py`; a renamed one would show only in a benchmark run.
The files under `perfbench/` are only read, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dpgtransport.cli import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


def _load(name):
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


def _load_targets():
    return [(module_name, attr) for module_name, attr, _ in _load("spans").TARGETS]


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


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS.items()), ids=lambda item: item[0])
def test_workload_config_builds_a_valid_run_config(workload):
    _, spec = workload
    RunConfig(**spec.config).validate()
