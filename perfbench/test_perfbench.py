"""Smoke tests of the benchmark itself, at the tiny workload size."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--seed", "7", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    else:
        refine_calls = result["metrics"]["paths.refine.calls"]["value"]
        assert (refine_calls > 0) == (workload == "verify-fine")


def test_failing_check_is_counted_not_raised():
    proc = bench("--workload", "ledger-single", "--seed", "7", "--trace", "0", "--inject-failure")
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert "fail_ratio                                   1 fraction" in proc.stdout


def test_without_hedgelab_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "ledger-single", "--seed", "7", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_workload():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.NAMES


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["cli.run", 0.0, 10.0, -1, 0],
        ["paths.generate_brownian", 1.0, 5.0, 0, 7],
        ["accum.comp_cumsum_1d", 2.0, 3.0, 1, 64],
        ["paths.gbm_path", 6.0, 8.0, 0, 0],
    ]
    m = tracer.summary(wall_s=10.5)
    assert m["cli.run.self_s"] == 4.0
    assert m["paths.generate_brownian.self_s"] == 3.0
    assert m["paths.generate_brownian.normals"] == 7
    assert m["accum.comp_cumsum_1d.elements"] == 64
    assert m["paths.self_s"] == 5.0
    assert m["trace.unattributed_s"] == 0.5
