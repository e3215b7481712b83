"""Benchmark of the dpgtransport pipeline, run through `dpgtransport.cli.solve_level`.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {sweep,axis,jitter} --seed N --seconds S --trace {0,1}

The package is imported from the checkout's `src/`.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced workload runs and reports the per-layer metrics.  Times are given at
a fixed reference speed of the host, sampled while the work runs (speed.py).
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md for the
workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: CG's iteration count depends
# on the thread count, so numbers from different settings do not compare.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from speed import Segment  # noqa: E402
from workloads import WORKLOADS, Workload, jittered_mesh_builder, reference_solution  # noqa: E402

SETUP_PROBES = 7
RESIDUAL_FACTOR = 100.0  # the true residual may exceed the CG tolerance by this factor
L2_AGREEMENT = 1e-9  # relative gap allowed between the CLI's l2_error and the benchmark's

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "finest_level_s": "s",
    "peak_rss_mib": "MiB",
    "l2_error": "1",
    "pass_rate": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark cannot run: no sources, or a set-up probe failed."""


def load_cli():
    """Import `dpgtransport.cli` from the checkout's `src/`, and nowhere else."""
    if not (SRC / "dpgtransport" / "__init__.py").is_file():
        raise BenchmarkError(f"no dpgtransport sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from dpgtransport import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"dpgtransport was imported from {cli.__file__}, not {SRC}")
    return cli


def machine_info() -> dict:
    import scipy

    def blas(module) -> str:
        deps = getattr(module.__config__, "CONFIG", {}).get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def measure_setup(config_kwargs: dict) -> tuple[list[float], list[float]]:
    """Cold-start seconds of fresh processes: import, then one level-0 solve.

    Returns the raw samples and the samples at the reference speed, which
    each probe measures on itself.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(config_kwargs)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            check=False,
        )
        if probe.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{probe.stderr[-2000:]}")
        seconds, at_reference = probe.stdout.split()[-2:]
        raw.append(float(seconds))
        scaled.append(float(at_reference))
    return raw, scaled


class SolveCapture:
    """Wraps `cli.cg_solve` to keep the last system solved, for the true residual.

    If the CLI no longer calls a `cg_solve`, the residual is reported as
    unavailable and the rest of the run is unaffected.
    """

    def __init__(self, cli):
        self._cli = cli
        self._original = getattr(cli, "cg_solve", None)
        self._last = None
        if self._original is not None:
            original = self._original

            def cg_solve(a, rhs, *args, **kwargs):
                result = original(a, rhs, *args, **kwargs)
                self._last = (a, rhs, result[0])
                return result

            cli.cg_solve = cg_solve

    def pop_residual(self) -> float | None:
        """||A x - F|| / ||F|| of the last solve since the previous call."""
        if self._last is None:
            return None
        a, rhs, x = self._last
        self._last = None
        return float(np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs))

    def close(self) -> None:
        if self._original is not None:
            self._cli.cg_solve = self._original


def check_level(row, solution, residual, reference, tol) -> dict:
    """Checks of one solved level; a level with any problem counts as failed."""
    problems = []
    n_phi = solution.phi_map.ndofs
    phi, theta = solution.solution[:n_phi], solution.solution[n_phi:]
    if not row.converged:
        problems.append("solver did not converge")
    if not np.all(np.isfinite(phi)):
        problems.append("non-finite phi")
    if not np.all(np.isfinite(theta)):
        problems.append("non-finite theta")
    if not math.isfinite(row.eta):
        problems.append("non-finite eta")
    from dpgtransport import estimator  # looked up per call, so the traced run times it

    err = estimator.l2_error(phi, reference, solution.mesh_pair, solution.phi_map)
    if not (math.isfinite(err) and err > 0.0):
        problems.append(f"l2_error {err!r} is not finite and positive")
    elif math.isfinite(row.l2_error) and abs(row.l2_error - err) > L2_AGREEMENT * err:
        problems.append(f"CLI l2_error {row.l2_error!r} disagrees with {err!r}")
    if residual is not None and not residual <= RESIDUAL_FACTOR * tol:
        problems.append(f"true residual {residual!r} above {RESIDUAL_FACTOR * tol!r}")
    return {
        "level": row.level,
        "ndof": row.ndof,
        "iterations": row.iterations,
        "seconds": row.seconds,
        "l2_error": err,
        "eta": row.eta,
        "true_residual": residual,
        "problems": problems,
    }


def check_exports(workload: Workload, csv_path: Path, vtk_path: Path, n_rows: int, n_cells: int | None) -> list[str]:
    """CSV: one row per solved level.  VTK, when written: POINTS and CELLS match the mesh."""
    problems = []
    lines = csv_path.read_text().splitlines()
    if len(lines) != n_rows + 1:
        problems.append(f"CSV has {len(lines) - 1} rows for {n_rows} levels")
    if workload.exports_vtk and n_cells is not None:
        with open(vtk_path) as handle:
            header = [line.strip() for line in handle if line.startswith(("POINTS", "CELLS "))]
        expected = [f"POINTS {3 * n_cells} double", f"CELLS {n_cells} {4 * n_cells}"]
        if header != expected:
            problems.append(f"VTK header {header} does not match the mesh: {expected}")
    return problems


def run_workload(cli, workload, config, capture, reference, out_dir: Path):
    """One warm run: every level, then the exports.

    Returns the timed seconds at the reference speed and raw (solves and
    exports, not the checks), one record per level and the export problems.
    """
    wall, raw = 0.0, 0.0
    rows, records, last = [], [], None
    for level in config.levels:
        segment = Segment()
        try:
            with segment:
                solution, row = cli.solve_level(config, level)
        except Exception:  # a level that raises counts as failed; the run goes on
            wall, raw = wall + segment.scaled, raw + segment.seconds
            records.append({"level": level, "problems": [traceback.format_exc(limit=4)]})
            continue
        wall, raw = wall + segment.scaled, raw + segment.seconds
        rows.append(row)
        last = solution
        record = check_level(row, solution, capture.pop_residual(), reference, config.tol)
        record["scale"] = segment.scale
        records.append(record)

    if workload.error_falls:
        solved = [r for r in records if "l2_error" in r]
        for prev, cur in zip(solved, solved[1:]):
            if not cur["l2_error"] < prev["l2_error"]:
                cur["problems"].append(f"l2_error did not fall from level {prev['level']}")

    csv_path, vtk_path = out_dir / "levels.csv", out_dir / "finest.vtk"
    segment = Segment()
    try:
        with segment:
            cli.export_csv(cli.ErrorReport(rows), str(csv_path))
            if workload.exports_vtk and last is not None:
                n_phi = last.phi_map.ndofs
                cli.export_vtk(
                    last.solution[:n_phi],
                    last.solution[n_phi:],
                    last.mesh_pair,
                    last.phi_map,
                    last.theta_map,
                    str(vtk_path),
                )
    except Exception:  # an export that raises counts as failed
        return wall + segment.scaled, raw + segment.seconds, records, [traceback.format_exc(limit=4)]
    wall, raw = wall + segment.scaled, raw + segment.seconds
    n_cells = last.mesh_pair.coarse.n_cells if last is not None else None
    return wall, raw, records, check_exports(workload, csv_path, vtk_path, len(rows), n_cells)


def _signature(record: dict):
    return tuple(record.get(k) for k in ("ndof", "iterations", "l2_error", "eta"))


def measure(cli, workload: Workload, config, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, then repeat the workload for `seconds`; returns the run's figures."""
    from dpgtransport import mesh

    original_mesh_builder = cli.build_uniform_mesh
    if workload.jitter:
        cli.build_uniform_mesh = jittered_mesh_builder(mesh.build_uniform_mesh, mesh.TriMesh, seed)
    capture = SolveCapture(cli)
    tracer = spans.Tracer() if trace else None
    reference = reference_solution(workload, config)
    walls, raw_walls, traced_walls, all_runs, traced_runs, export_problems = [], [], [], [], [], []
    try:
        try:  # fill the lru caches; the cold start is what setup_s measures
            cli.solve_level(config, 0)
            warm_up_problems = []
        except Exception:  # counts as a failed level, like any other
            warm_up_problems = [traceback.format_exc(limit=4)]
        capture.pop_residual()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            began = time.perf_counter()
            while True:
                step_start = time.perf_counter()
                gc.collect()  # start every run from the same heap state
                wall, raw, records, problems = run_workload(cli, workload, config, capture, reference, Path(tmp))
                walls.append(wall)
                raw_walls.append(raw)
                all_runs.append(records)
                export_problems.append(problems)
                if tracer is not None:
                    gc.collect()
                    tracer.install()
                    try:
                        wall, _, records, problems = run_workload(
                            cli, workload, config, capture, reference, Path(tmp)
                        )
                    finally:
                        tracer.uninstall()
                    traced_walls.append(wall)
                    all_runs.append(records)
                    traced_runs.append((tracer.run, records))
                    export_problems.append(problems)
                    tracer.run += 1
                step = time.perf_counter() - step_start
                if time.perf_counter() - began + step > seconds:
                    break
    finally:
        cli.build_uniform_mesh = original_mesh_builder
        capture.close()

    first = {r["level"]: _signature(r) for r in all_runs[0]}
    for records in all_runs[1:]:
        for r in records:
            if "l2_error" in r and _signature(r) != first.get(r["level"]):
                r["problems"].append("result differs from the first run of this level")
    levels = [{"level": 0, "problems": warm_up_problems}] + [r for records in all_runs for r in records]
    attempted = len(levels) + len(export_problems)
    failed = sum(bool(r["problems"]) for r in levels) + sum(bool(p) for p in export_problems)
    finest = [records[-1] for records in all_runs]

    figures = {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "raw_walls": raw_walls,
        "finest_seconds": [r["seconds"] * r["scale"] for r in finest if "seconds" in r],
        "raw_finest_seconds": [r["seconds"] for r in finest if "seconds" in r],
        "l2_error": next((r["l2_error"] for r in finest if "l2_error" in r), math.nan),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": [p for r in levels for p in r["problems"]] + [p for ps in export_problems for p in ps],
        "levels": all_runs[0],
    }
    if tracer is not None:
        figures["tracer"] = tracer
        figures["layers"] = layer_figures(tracer, traced_runs, walls, traced_walls, config.levels)
    return figures


def layer_figures(tracer, traced_runs, walls, traced_walls, levels) -> dict:
    """Per-level, per-layer medians over the traced runs, with the trace overhead.

    Times are scaled to the reference speed with the factor of the level's
    `solve_level` call; the export that follows the level shares it.
    """
    by_run = spans.runs_of(tracer.spans)
    per_level = {}
    for level in levels:
        per_run = []
        for run, records in traced_runs:
            record = next((r for r in records if r["level"] == level), {})
            scale = record.get("scale", 1.0)
            figures = {
                name: value * scale if spans.unit(name) == "s" else value
                for name, value in spans.level_metrics(by_run.get(run, []), level).items()
            }
            if record.get("true_residual") is not None:
                figures["solve.true_residual"] = record["true_residual"]
            per_run.append(figures)
        per_level[level] = spans.median_metrics(per_run)
    per_level[levels[-1]]["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return per_level


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-level", type=int, default=None, help="drop the workload's levels above this one (smoke tests)"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    config_kwargs = {**workload.config, "levels": workload.levels(args.max_level)}

    try:
        cli = load_cli()
        config = cli.RunConfig(**config_kwargs)
        config.validate()
        raw_setup, setup = measure_setup(config_kwargs)
    except (BenchmarkError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info()))
    print(f"workload {workload.name}: {json.dumps(config_kwargs)} seed={args.seed}")
    figures = measure(cli, workload, config, args.seed, args.seconds, bool(args.trace))
    for problem in figures["problems"]:
        print(f"check failed: {problem.strip()}")

    if args.trace:
        layers = figures["layers"]
        for level, values in layers.items():
            print(f"level {level} " + json.dumps(values))
        tracer = figures["tracer"]
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{workload.name}.json").write_text(json.dumps(tracer.dump()))
        finest = layers[config.levels[-1]]
        metrics = {}
        for name, (unit, _) in spans.LAYER_METRICS.items():
            if name in finest and spans.available(name, tracer.missing):
                metrics[name] = metric(finest[name], unit)
        for name in sorted(set(spans.LAYER_METRICS) - set(metrics)):
            print(f"missing per-layer metric: {name}")
    else:
        for record in figures["levels"]:
            print("level " + json.dumps(record))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(figures["walls"]),
            "finest_level_s": statistics.median(figures["finest_seconds"] or [math.nan]),
            "peak_rss_mib": figures["peak_rss_mib"],
            "l2_error": figures["l2_error"],
            "pass_rate": 1.0 - figures["failed"] / figures["attempted"],
        }
        print(f"samples setup_s={setup} wall_s={figures['walls']} finest_level_s={figures['finest_seconds']}")
        print(
            f"raw samples setup_s={raw_setup} wall_s={figures['raw_walls']} "
            f"finest_level_s={figures['raw_finest_seconds']}"
        )
        metrics = {n: metric(v, END_TO_END_UNITS[n]) for n, v in values.items() if math.isfinite(v)}

    result = {
        "correct": figures["failed"] == 0,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
