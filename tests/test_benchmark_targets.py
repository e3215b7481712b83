"""Every name the benchmark's tracer wraps resolves in the package.

`perfbench/spans.py` lists its targets as `(module, attribute or
Class.method, observer)`.  A target that no longer resolves is not an error
there: its span is listed as missing and the per-layer metrics that need it
are left out of the benchmark's result.  This test makes such a loss fail
here instead.  `spans.py` is only read, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file next to spans.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return [(module_name, attr) for module_name, attr, _ in module.TARGETS]


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
