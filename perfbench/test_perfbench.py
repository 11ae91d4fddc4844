"""The benchmark's own fast tests: every workload at a tiny size.

    python3 -m pytest perfbench -q

Each workload runs untraced and traced with its batch instance scaled
down and a smoke-size service script; the tests assert that every metric
``BENCHMARK.json`` names is printed with its unit, that every output
check ran, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_check(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--shape-scale", "0.05", "--out-dir", str(tmp_path)]
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and record["correct"] and record["failed"] == 0
    assert record["attempted"] >= 1

    expected = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in expected}
    for metric in record["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])

    summary = next(json.loads(line) for line in lines if line.startswith('{"checks"'))
    assert summary["checks"] and all(summary["checks"].values()), summary["checks"]
    steps = {step["step"] for step in summary["validity"]}
    assert {"nominal", "ladder", "closed_loop"} <= steps
    if trace:
        dumped = json.loads((tmp_path / f"trace-{workload}-seed3.json").read_text())
        assert dumped["spans"] and dumped["self_time_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer = tracer.durations("outer")[0]
    inner = tracer.durations("inner")[0]
    self_times = tracer.self_times()
    assert self_times["inner"] == pytest.approx(inner)
    assert self_times["outer"] == pytest.approx(outer - inner)


def test_quantile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.quantile(values, 0.5) == 50
    assert tracing.quantile(values, 0.99) == 99
    assert tracing.quantile([float("inf"), 1.0], 0.99) == float("inf")
