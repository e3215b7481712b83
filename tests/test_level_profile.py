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
    wrapped = solve.splu, cli.cg_solve, cli.assemble, cli.a_posteriori_error, cli.l2_error
    record = _load_script().profile_level(3)
    assert (solve.splu, cli.cg_solve, cli.assemble, cli.a_posteriori_error, cli.l2_error) == wrapped  # put back
    _, row = cli.solve_level(cli.RunConfig(), 3)
    assert record["ndof"] == row.ndof
    assert record["free_trace_dofs"] <= row.ndof
    assert record["fill"] >= record["free_trace_dofs"]
    assert 0.0 < record["factor_s"] <= record["solve_s"] <= record["level_s"]
    assert record["assemble_s"] > 0.0 and record["estimator_s"] > 0.0 and record["l2_s"] > 0.0
    stages = record["assemble_s"] + record["solve_s"] + record["estimator_s"] + record["l2_s"]
    assert stages <= record["level_s"]
    assert record["converged"] and record["true_residual"] <= 1e-12
    assert record["backward_error"] == row.backward_error > 0.0
    assert record["solved"]
    assert record["peak_rss_mib"] > 0.0


def test_samples_aggregate_to_median_min_and_max():
    script = _load_script()
    samples = []
    for factor, level, rss, scale in [(0.5, 2.0, 90.0, 1.0), (0.1, 9.0, 95.0, 0.5), (0.2, 1.0, 80.0, 2.0)]:
        seconds = {
            "assemble_s": factor + 0.5,
            "factor_s": factor,
            "solve_s": factor + 1.0,
            "estimator_s": factor + 2.0,
            "l2_s": factor + 3.0,
            "level_s": level,
        }
        refs = {f"{key}_ref": value * scale for key, value in seconds.items()}
        samples.append({"level": 6, "fill": 9, **seconds, "peak_rss_mib": rss, "speed_scale": scale, **refs})
    assert script.aggregate(samples) == {
        "level": 6,
        "fill": 9,
        "assemble_s": 0.7,
        "assemble_s_min": 0.6,
        "assemble_s_max": 1.0,
        "factor_s": 0.2,
        "factor_s_min": 0.1,
        "factor_s_max": 0.5,
        "solve_s": 1.2,
        "solve_s_min": 1.1,
        "solve_s_max": 1.5,
        "estimator_s": 2.2,
        "estimator_s_min": 2.1,
        "estimator_s_max": 2.5,
        "l2_s": 3.2,
        "l2_s_min": 3.1,
        "l2_s_max": 3.5,
        "level_s": 2.0,
        "level_s_min": 1.0,
        "level_s_max": 9.0,
        "peak_rss_mib": 95.0,
        "speed_scale": 1.0,
        "speed_scale_min": 0.5,
        "speed_scale_max": 2.0,
        "assemble_s_ref": 1.0,
        "assemble_s_ref_min": 0.3,
        "assemble_s_ref_max": 1.4,
        "factor_s_ref": 0.4,
        "factor_s_ref_min": 0.05,
        "factor_s_ref_max": 0.5,
        "solve_s_ref": 1.5,
        "solve_s_ref_min": 0.55,
        "solve_s_ref_max": 2.4,
        "estimator_s_ref": 2.5,
        "estimator_s_ref_min": 1.05,
        "estimator_s_ref_max": 4.4,
        "l2_s_ref": 3.5,
        "l2_s_ref_min": 1.55,
        "l2_s_ref_max": 6.4,
        "level_s_ref": 2.0,
        "level_s_ref_min": 2.0,
        "level_s_ref_max": 4.5,
    }


def test_speed_scale_puts_the_seconds_at_the_reference_speed(monkeypatch):
    """The speed kernel runs SPEED_SAMPLES times on each side of the level, and `<name>_ref` = `<name>` x scale."""
    script = _load_script()
    calls = []

    def kernel_seconds():
        calls.append(None)
        return 4.0 * script.REFERENCE_KERNEL_S  # a host at a quarter of the reference speed

    monkeypatch.setattr(script, "kernel_seconds", kernel_seconds)
    record = script.profile_level(2)
    assert len(calls) == 2 * script.SPEED_SAMPLES
    assert record["speed_scale"] == 0.25
    for key in script.TIMED:
        assert record[f"{key}_ref"] == record[key] * 0.25


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
