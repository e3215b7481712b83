"""Smoke test of the benchmark at tiny levels.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, jittered_mesh_builder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.5"]
        + ["--trace", str(trace), "--max-level", "2"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_lists_the_benchmarks_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_prints_every_metric_with_its_unit(workload, trace):
    result = run_command(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace and workload == "jitter":
        metrics = result["metrics"]
        assert metrics["testspace.cache_misses"]["value"] == metrics["mesh.n_cells"]["value"]
        assert metrics["testspace.cache_hit_ratio"]["value"] == 0.0


def test_non_finite_solve_counts_as_failed(monkeypatch):
    cli = run.load_cli()
    solve = cli.cg_solve

    def nan_solve(a, rhs, *args, **kwargs):
        x, report = solve(a, rhs, *args, **kwargs)
        return np.full_like(x, np.nan), report

    monkeypatch.setattr(cli, "cg_solve", nan_solve)
    figures = run.measure(cli, WORKLOADS["sweep"], cli.RunConfig(levels=(2,)), 0, 0.0, False)
    # the warm-up level, one level and one export: both solves raise in the estimator
    assert (figures["attempted"], figures["failed"]) == (3, 2)


def test_non_finite_phi_fails_the_level_check():
    cli = run.load_cli()
    config = cli.RunConfig(levels=(2,))
    solution, row = cli.solve_level(config, 2)
    reference = run.reference_solution(WORKLOADS["sweep"], config)
    assert run.check_level(row, solution, 1e-13, reference, config.tol)["problems"] == []
    broken = dataclasses.replace(solution, solution=np.full_like(solution.solution, np.nan))
    problems = run.check_level(row, broken, None, reference, config.tol)["problems"]
    assert "non-finite phi" in problems and "non-finite theta" in problems


def test_jitter_mesh_is_deterministic():
    run.load_cli()
    from dpgtransport import mesh

    def vertices(seed):
        return jittered_mesh_builder(mesh.build_uniform_mesh, mesh.TriMesh, seed)(3).vertices

    uniform = mesh.build_uniform_mesh(3).vertices
    boundary = np.any((uniform == 0.0) | (uniform == 1.0), axis=1)
    assert np.array_equal(vertices(7), vertices(7))
    assert not np.array_equal(vertices(7), vertices(8))
    assert np.array_equal(vertices(7)[boundary], uniform[boundary])
    assert np.all(np.abs(vertices(7) - uniform) <= 0.2 * 2.0**-3)


def test_missing_wrapped_name_drops_its_metrics_only(monkeypatch):
    cli = run.load_cli()
    from dpgtransport import assembly

    monkeypatch.delattr(assembly, "inflow_mask")  # the CLI keeps its own binding
    figures = run.measure(cli, WORKLOADS["sweep"], cli.RunConfig(levels=(2,)), 0, 0.0, True)
    tracer = figures["tracer"]
    assert figures["failed"] == 0
    assert tracer.missing == {"assembly.inflow_mask"}
    assert not spans.available("assembly.inflow_s", tracer.missing)
    assert spans.available("solve.cg_s", tracer.missing)
    assert figures["layers"][2]["solve.iterations"] > 0


def test_segment_samples_the_speed_while_work_runs():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Segment() as segment:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    samples = segment._samples
    assert len(samples) >= 0.3 / speed.PROBE_PERIOD_S - 1  # the timer's samples and the one after
    assert segment.seconds == pytest.approx(0.3 - sum(samples[:-1]), abs=0.02)
    assert segment.scale == pytest.approx(speed.REFERENCE_KERNEL_S * len(samples) / sum(samples))
    assert signal.getsignal(signal.SIGALRM) is previous

