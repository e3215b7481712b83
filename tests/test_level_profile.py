"""The level-profile script observes the trace solve without changing it."""

import importlib.util
import json
import subprocess
from pathlib import Path

from dpgtransport import cli, solve

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "level_profile.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("level_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_level_record_reads_the_factor_and_the_solve():
    splu, cg_solve = solve.splu, cli.cg_solve
    record = _load_script().profile_level(3)
    assert (solve.splu, cli.cg_solve) == (splu, cg_solve)  # put back
    _, row = cli.solve_level(cli.RunConfig(), 3)
    assert record["ndof"] == row.ndof
    assert record["free_trace_dofs"] <= row.ndof
    assert record["fill"] >= record["free_trace_dofs"]
    assert 0.0 < record["factor_s"] <= record["solve_s"] <= record["level_s"]
    assert record["refinement_steps"] == row.iterations == 1
    assert record["converged"] and record["true_residual"] <= 1e-12
    assert record["peak_rss_mib"] > 0.0


def test_samples_aggregate_to_median_min_and_max():
    script = _load_script()
    samples = [
        {"level": 6, "fill": 9, "factor_s": factor, "solve_s": factor + 1.0, "level_s": level, "peak_rss_mib": rss}
        for factor, level, rss in [(0.5, 2.0, 90.0), (0.1, 9.0, 95.0), (0.2, 1.0, 80.0)]
    ]
    assert script.aggregate(samples) == {
        "level": 6,
        "fill": 9,
        "factor_s": 0.2,
        "factor_s_min": 0.1,
        "factor_s_max": 0.5,
        "solve_s": 1.2,
        "solve_s_min": 1.1,
        "solve_s_max": 1.5,
        "level_s": 2.0,
        "level_s_min": 1.0,
        "level_s_max": 9.0,
        "peak_rss_mib": 95.0,
    }


def test_src_lines_is_the_package_line_count(tmp_path):
    """`src_lines` counts what `wc -l src/dpgtransport/*.py` totals, and the JSON carries it."""
    script = _load_script()
    sources = sorted((SCRIPT.parents[1] / "src" / "dpgtransport").glob("*.py"))
    assert len(sources) > 1
    counts = subprocess.run(["wc", "-l", *map(str, sources)], capture_output=True, text=True, check=True)
    assert script.src_lines() == int(counts.stdout.splitlines()[-1].split()[0])
    script.LEVELS = ()  # no level is profiled; the file still records the machine and the package
    out = tmp_path / "bench.json"
    assert script.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] == script.src_lines()
    assert report["levels"] == []
