"""Smoke test of the benchmark on tiny inputs (1 s hosts, a 4x4 mark,
2 grid clips). It checks the output schema, the metric names and the
correctness gates, never timings."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_declared_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    # every metric is also printed by name, with its unit
    for name, reported in result["metrics"].items():
        assert any(line.split()[:1] == [name] and line.endswith(" " + reported["unit"])
                   for line in done.stdout.splitlines()), name


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert SPEC["command"][1:] == ["gbtbench/run.py"]


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "gbtbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("mark-dense", 0, script=tmp_path / "gbtbench" / "run.py",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_reports_a_missing_name_as_absent(tmp_path):
    import gbtmark.cli
    points = [spans.Point("gbtmark.cli", "no_such_function", "x", None),
              spans.Point("gbtmark.no_such_module", "f", "y", None),
              spans.Point("gbtmark.cli", "main", "cli.main", None)]
    original = gbtmark.cli.main
    with spans.Tracer(points) as tracer:
        assert gbtmark.cli.main is not original
        missing = str(tmp_path / "missing.wav")
        assert gbtmark.cli.main(["attack", "crop", missing, missing,
                                 "--fraction", "0.1"]) == 2
    assert gbtmark.cli.main is original
    assert tracer.absent == ["gbtmark.cli.no_such_function",
                             "gbtmark.no_such_module.f"]
    assert [span.name for span in tracer.spans] == ["cli.main"]


def test_cli_gate_flags_wrong_outputs():
    mark = b"P1\n2 1\n0 1\n"
    assert workloads.cli_gate(0, 0, "ber: 0.000000\n", mark, mark) == []
    assert workloads.cli_gate(0, 0, "ber: 0.500000\n", mark, mark)
    assert workloads.cli_gate(0, 0, "ber: 0.000000\n", b"P1\n2 1\n1 1\n", mark)
    assert workloads.cli_gate(2, 0, "ber: 0.000000\n", mark, mark)
    assert workloads.cli_gate(0, 0, "", mark, mark)


def test_grid_gate_flags_wrong_outputs(tmp_path):
    workloads.generate(workloads.TINY["attack-grid"], 3, tmp_path)
    grid = workloads.AttackGrid(tmp_path)
    first = grid.run()
    assert first.problems == []
    assert len(grid.report.rows) == 13
    csv = grid.first_csv
    assert workloads.grid_gate(grid.report, csv, csv) == []
    assert workloads.grid_gate(grid.report, csv + "x", csv)
    clean, *rest = grid.report.rows
    noisy = dataclasses.replace(clean, bers=(0.0, 0.25))
    broken = dataclasses.replace(grid.report, rows=(noisy, *rest))
    assert workloads.grid_gate(broken, csv, csv)


def test_failed_gate_fails_the_command(monkeypatch, capsys):
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(workloads, "cli_gate", lambda *args: ["forced failure"])
    code = run.main(["--workload", "mark-dense", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
