"""Span tracing of the solver's layers, done from outside the package.

`Tracer` replaces public functions of the `dpgtransport` modules by wrappers
that record one span per call: name, start, end and parent span.  Spans stay
in memory and are written out when the benchmark ends.  A wrapped name that
no longer exists is listed in `Tracer.missing`, and the per-layer metrics that
need it are left out of the result instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "dpgtransport"


def _vtk_bytes(args, kwargs, result):
    path = kwargs.get("path", args[5] if len(args) > 5 else None)
    return {"bytes": os.path.getsize(path)}


# (module, attribute or Class.method, observer of (args, kwargs, result) -> attrs).
# Bindings are resolved where the pipeline calls them: `cli.build_uniform_mesh`
# may be a workload's own mesh builder, and `cli.cg_solve` the benchmark's
# residual capture.
TARGETS = (
    ("cli", "solve_level", lambda a, k, r: {"level": a[1]}),
    ("cli", "build_uniform_mesh", lambda a, k, r: {"cells": r.n_cells}),
    ("mesh", "MeshPair.__init__", None),
    ("fem", "build_dof_map", lambda a, k, r: {"ndofs": r.ndofs}),
    ("forms", "local_saddle_blocks", None),
    ("forms", "local_load", None),
    ("forms", "InnerProduct.local_gram", None),
    ("forms", "BilinearForm.local_matrix", None),
    ("testspace", "cell_blocks", None),
    ("testspace", "compute_coefficients", lambda a, k, r: {"local_dim": len(a[0])}),
    ("assembly", "assemble", lambda a, k, r: {"nnz": r.matrix.nnz}),
    ("assembly", "inflow_mask", lambda a, k, r: {"dofs": int(r.sum())}),
    ("assembly", "apply_dirichlet", None),
    ("assembly", "pin_characteristic_dofs", None),
    ("assembly", "characteristic_theta_dofs", lambda a, k, r: {"dofs": len(r)}),
    ("cli", "cg_solve", lambda a, k, r: {"iterations": r[1].iterations}),
    ("solve", "cholesky_factor", None),
    ("estimator", "a_posteriori_error", lambda a, k, r: {"eta": r.eta}),
    ("estimator", "l2_error", None),
    ("cli", "export_csv", None),
    ("cli", "export_vtk", _vtk_bytes),
)


@dataclass
class Span:
    run: int
    sid: int
    parent: int
    name: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, func, name, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(self.run, len(spans), stack[-1] if stack else -1, name)
            spans.append(span)
            stack.append(span.sid)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span.attrs = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.missing.add(f"{name} (attributes)")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, in every module of the package that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE and m]
        for module_name, attr, observe in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.add(name)
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if isinstance(cls, type) else None
                if original is None:
                    self.missing.add(name)
                    continue
                self._patch(cls, method, self._wrap(original, name, observe))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._wrap(original, name, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {
            "fields": ["run", "sid", "parent", "name", "start", "end", "attrs"],
            "spans": [[s.run, s.sid, s.parent, s.name, s.start, s.end, s.attrs] for s in self.spans],
            "missing": sorted(self.missing),
        }


class _Tree:
    """Spans of one traced workload run, indexed by parent."""

    def __init__(self, spans: list[Span]):
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def descendants(self, root: Span) -> list[Span]:
        out, todo = [], [root]
        while todo:
            for child in self.children.get(todo.pop().sid, []):
                out.append(child)
                todo.append(child)
        return out

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children.get(span.sid, []))


# Per-layer metric -> (unit, span names it needs).
LAYER_METRICS = {
    "mesh.build_s": ("s", ("cli.build_uniform_mesh", "mesh.MeshPair.__init__")),
    "mesh.n_cells": ("count", ("cli.build_uniform_mesh",)),
    "fem.dofmap_s": ("s", ("fem.build_dof_map",)),
    "fem.ndof": ("count", ("fem.build_dof_map",)),
    "forms.local_blocks_s": ("s", ("forms.local_saddle_blocks",)),
    "forms.local_load_s": ("s", ("forms.local_load",)),
    "forms.local_load_calls": ("count", ("forms.local_load",)),
    "testspace.cholesky_s": ("s", ("testspace.compute_coefficients",)),
    "testspace.cache_hits": ("count", ("testspace.cell_blocks", "testspace.compute_coefficients")),
    "testspace.cache_misses": ("count", ("testspace.compute_coefficients",)),
    "testspace.cache_hit_ratio": ("ratio", ("testspace.cell_blocks", "testspace.compute_coefficients")),
    "testspace.local_dim": ("count", ("testspace.compute_coefficients",)),
    "assembly.assemble_s": ("s", ("assembly.assemble",)),
    "assembly.self_s": ("s", ("assembly.assemble", "testspace.cell_blocks", "forms.local_load")),
    "assembly.nnz": ("count", ("assembly.assemble",)),
    "assembly.inflow_s": ("s", ("assembly.inflow_mask", "assembly.apply_dirichlet")),
    "assembly.inflow_dofs": ("count", ("assembly.inflow_mask",)),
    "assembly.pin_s": ("s", ("assembly.pin_characteristic_dofs",)),
    "assembly.pinned_dofs": ("count", ("assembly.characteristic_theta_dofs",)),
    "solve.cg_s": ("s", ("cli.cg_solve",)),
    "solve.iterations": ("count", ("cli.cg_solve",)),
    "solve.s_per_iteration": ("s", ("cli.cg_solve",)),
    "solve.true_residual": ("ratio", ()),
    "estimator.eta_s": ("s", ("estimator.a_posteriori_error",)),
    "estimator.gram_s": (
        "s",
        (
            "estimator.a_posteriori_error",
            "forms.InnerProduct.local_gram",
            "forms.BilinearForm.local_matrix",
            "solve.cholesky_factor",
        ),
    ),
    "estimator.eta": ("1", ("estimator.a_posteriori_error",)),
    "estimator.l2_s": ("s", ("estimator.l2_error",)),
    "cli.export_s": ("s", ("cli.export_csv", "cli.export_vtk")),
    "cli.vtk_bytes": ("bytes", ("cli.export_vtk",)),
    "trace.overhead_s": ("s", ()),
}

_ESTIMATOR_GRAM = {"forms.InnerProduct.local_gram", "forms.BilinearForm.local_matrix", "solve.cholesky_factor"}


def level_metrics(spans: list[Span], level: int) -> dict[str, float]:
    """Per-layer metrics of one mesh level of one traced workload run.

    The benchmark's own calls that follow the level's `solve_level` call
    belong to it: the export, and the `l2_error` of its check, which
    `estimator.l2_s` times because the CLI skips it where c != 0.
    """
    tree = _Tree(spans)
    roots = [s for s in spans if s.name == "cli.solve_level" and s.attrs.get("level") == level]
    if not roots:
        return {}
    root = roots[-1]
    inside = tree.descendants(root)

    def named(name, among=inside):
        return [s for s in among if s.name == name]

    def total(name, among=inside):
        return sum(s.duration for s in named(name, among))

    def attr_sum(name, key):
        values = [s.attrs[key] for s in named(name) if key in s.attrs]
        return sum(values) if values else None

    cell_calls = len(named("testspace.cell_blocks"))
    misses = len(named("testspace.compute_coefficients"))
    cg_s = total("cli.cg_solve")
    iterations = attr_sum("cli.cg_solve", "iterations")
    next_level = min((s.start for s in spans if s.name == "cli.solve_level" and s.start > root.end), default=math.inf)
    after = [s for s in spans if s.parent == -1 and root.end <= s.start < next_level]  # the benchmark's own calls
    exports = [s for s in after if s.name.startswith("cli.export_")]
    estimator = named("estimator.a_posteriori_error")
    local_dims = [s.attrs["local_dim"] for s in named("testspace.compute_coefficients") if "local_dim" in s.attrs]

    values = {
        "mesh.build_s": total("cli.build_uniform_mesh") + total("mesh.MeshPair.__init__"),
        "mesh.n_cells": attr_sum("cli.build_uniform_mesh", "cells"),
        "fem.dofmap_s": total("fem.build_dof_map"),
        "fem.ndof": attr_sum("fem.build_dof_map", "ndofs"),
        "forms.local_blocks_s": total("forms.local_saddle_blocks"),
        "forms.local_load_s": total("forms.local_load"),
        "forms.local_load_calls": len(named("forms.local_load")),
        "testspace.cholesky_s": total("testspace.compute_coefficients"),
        "testspace.cache_hits": cell_calls - misses,
        "testspace.cache_misses": misses,
        "testspace.cache_hit_ratio": (cell_calls - misses) / cell_calls if cell_calls else None,
        "testspace.local_dim": max(local_dims) if local_dims else None,
        "assembly.assemble_s": total("assembly.assemble"),
        "assembly.self_s": sum(tree.self_time(s) for s in named("assembly.assemble")),
        "assembly.nnz": attr_sum("assembly.assemble", "nnz"),
        "assembly.inflow_s": total("assembly.inflow_mask") + total("assembly.apply_dirichlet"),
        "assembly.inflow_dofs": attr_sum("assembly.inflow_mask", "dofs"),
        "assembly.pin_s": total("assembly.pin_characteristic_dofs"),
        "assembly.pinned_dofs": attr_sum("assembly.characteristic_theta_dofs", "dofs"),
        "solve.cg_s": cg_s,
        "solve.iterations": iterations,
        "solve.s_per_iteration": cg_s / iterations if iterations else None,
        "estimator.eta_s": total("estimator.a_posteriori_error"),
        "estimator.gram_s": sum(
            c.duration for e in estimator for c in tree.children.get(e.sid, []) if c.name in _ESTIMATOR_GRAM
        ),
        "estimator.eta": attr_sum("estimator.a_posteriori_error", "eta"),
        "estimator.l2_s": total("estimator.l2_error", after),
        "cli.export_s": sum(s.duration for s in exports),
        "cli.vtk_bytes": sum(s.attrs.get("bytes", 0) for s in exports),
        "level_s": root.duration,
    }
    return {k: v for k, v in values.items() if v is not None}


def runs_of(spans: list[Span]) -> dict[int, list[Span]]:
    by_run: dict[int, list[Span]] = {}
    for s in spans:
        by_run.setdefault(s.run, []).append(s)
    return by_run


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced runs of every metric present in all of them."""
    names = set.intersection(*(set(m) for m in per_run)) if per_run else set()
    medians = {}
    for name in sorted(names):
        values = [m[name] for m in per_run]
        exact = all(isinstance(v, int) for v in values)  # counts stay whole numbers
        medians[name] = statistics.median_low(values) if exact else statistics.median(values)
    return medians


def unit(name: str) -> str:
    """Unit of a per-layer metric; `level_s`, the level's own duration, is in seconds."""
    return LAYER_METRICS[name][0] if name in LAYER_METRICS else "s"


def available(metric: str, missing: set[str]) -> bool:
    return not any(name in missing for name in LAYER_METRICS[metric][1])
