"""Profile the default `dpg-transport` sweep level by level and write the records as JSON.

Each of the levels 4 to 8 runs `dpgtransport.cli.solve_level` on the default configuration
(m = 2, test refinement 1, beta angle pi/8, c = 0) in SAMPLES fresh processes,
so each run's peak RSS is its own.  A record holds the level's ndof, the
free trace DOFs, the seconds of the assembly (`assemble_s`), of the sparse
factor and of the trace solve, the factor's fill (the entries SuperLU
stores for L and U, supernode padding included), the seconds of the a
posteriori estimator (`estimator_s`) and of the L2 error against the exact
solution (`l2_s`), the true residual
||g - S theta|| / ||g|| of the trace solve and its backward error omega,
whether the level passed (`solved`: --tol met or omega at rounding), the
level's seconds and the largest peak RSS of its processes.  Around the
level, outside its timing, each process times `perfbench/speed.py`'s speed kernel
SPEED_SAMPLES times before and as many after: `speed_scale` =
REFERENCE_KERNEL_S / (mean kernel time), and `<name>_ref` = `<name>` x
`speed_scale` is each of the seconds at the reference speed, so files of
different sessions compare.  Each of the seconds, `_ref` or not, and
`speed_scale` is the median of the samples, with their min and max next to
it as `<name>_min` and `<name>_max`.  The file also records the machine:
core count, platform, Python, numpy and scipy versions, and the BLAS thread
variables of the environment, and the size of the package: `src_lines`,
the lines of `src/dpgtransport/*.py` as `wc -l` counts them.

    python tools/level_profile.py --out BENCH.json

The package is imported from this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
sys.path[:0] = [str(SOURCE), str(ROOT / "perfbench")]

from speed import REFERENCE_KERNEL_S, kernel_seconds  # noqa: E402

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LEVELS = range(4, 9)
SAMPLES = 3  # processes per level: one run per level could not resolve a change below about 30 %
SPEED_SAMPLES = 5  # speed-kernel runs right before the level and as many right after it
TIMED = ("assemble_s", "factor_s", "solve_s", "estimator_s", "l2_s", "level_s")
AGGREGATED = TIMED + tuple(f"{key}_ref" for key in TIMED) + ("speed_scale",)


def profile_level(level: int) -> dict:
    """One level of the default sweep, in this process, with its assembly, trace solve and estimator observed."""
    import numpy as np

    from dpgtransport import cli, solve

    record = {"level": level}
    splu, cg_solve, assemble, estimate, l2_error = (
        solve.splu, cli.cg_solve, cli.assemble, cli.a_posteriori_error, cli.l2_error
    )

    def timed(function, key):
        def call(*args, **kwargs):
            start = time.perf_counter()
            result = function(*args, **kwargs)
            record[key] = time.perf_counter() - start
            return result

        return call

    def timed_splu(*args, **kwargs):
        start = time.perf_counter()
        factor = splu(*args, **kwargs)
        record["factor_s"] = time.perf_counter() - start
        record["fill"] = int(factor.nnz)  # without building L and U, which would add to the peak RSS
        return factor

    def observed_cg_solve(a, rhs, *args, **kwargs):
        start = time.perf_counter()
        x, report = cg_solve(a, rhs, *args, **kwargs)
        record["solve_s"] = time.perf_counter() - start
        record["free_trace_dofs"] = len(rhs)
        record["true_residual"] = report.residual_norm / float(np.linalg.norm(rhs))
        return x, report

    kernel = [kernel_seconds() for _ in range(SPEED_SAMPLES)]
    solve.splu, cli.cg_solve = timed_splu, observed_cg_solve
    cli.assemble, cli.a_posteriori_error = timed(assemble, "assemble_s"), timed(estimate, "estimator_s")
    cli.l2_error = timed(l2_error, "l2_s")
    try:
        _, row = cli.solve_level(cli.RunConfig(), level)
    finally:
        solve.splu, cli.cg_solve, cli.assemble, cli.a_posteriori_error, cli.l2_error = (
            splu, cg_solve, assemble, estimate, l2_error
        )
    kernel += [kernel_seconds() for _ in range(SPEED_SAMPLES)]
    record.update(
        ndof=row.ndof,
        converged=row.converged,
        backward_error=row.backward_error,
        solved=row.solved,
        level_s=row.seconds,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        speed_scale=REFERENCE_KERNEL_S / statistics.fmean(kernel),
    )
    record.update({f"{key}_ref": record[key] * record["speed_scale"] for key in TIMED})
    return record


def aggregate(samples: list[dict]) -> dict:
    """One level's record from the records of its samples.

    Each AGGREGATED field becomes the samples' median, min and max, and the
    peak RSS their largest.  The other fields do not vary between runs; they are
    the first sample's.
    """
    record = dict(samples[0])
    for key in AGGREGATED:
        values = [sample[key] for sample in samples]
        record.update({key: statistics.median(values), f"{key}_min": min(values), f"{key}_max": max(values)})
    record["peak_rss_mib"] = max(sample["peak_rss_mib"] for sample in samples)
    return record


def src_lines() -> int:
    """Newlines in the package's modules, `src/dpgtransport/*.py`."""
    return sum(path.read_bytes().count(b"\n") for path in (SOURCE / "dpgtransport").glob("*.py"))


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="PATH", help="JSON file to write")
    args = parser.parse_args(argv)
    records = []
    for level in LEVELS:
        samples = []
        for _ in range(SAMPLES):
            with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
                samples.append(pool.submit(profile_level, level).result())
        record = aggregate(samples)
        print(json.dumps(record), flush=True)
        records.append(record)
    with open(args.out, "w") as handle:
        json.dump({"machine": machine_info(), "src_lines": src_lines(), "levels": records}, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
