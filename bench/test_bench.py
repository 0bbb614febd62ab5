"""Tests of the benchmark itself; run with `python3 -m pytest bench/test_bench.py`.

They sit outside the package's test paths because the traced runs take a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.layer_unit(name)) for name in run.layer_metric_names()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_seed_zero_config_reproduces_default_suite(tmp_path):
    from amm import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps(worker.suite_config(0, 1)), encoding="utf-8")
    assert cli.main(["suite", "--default", "--samples", "1",
                     "--report", str(tmp_path / "default.json")]) == 0
    assert cli.main(["suite", "--config", str(config),
                     "--report", str(tmp_path / "config.json.report")]) == 0
    assert (tmp_path / "default.json").read_bytes() == \
        (tmp_path / "config.json.report").read_bytes()


@pytest.mark.parametrize("workload,ops_per_worker,percentile",
                         [("suite-default", 770, 99.5), ("compute-large", 42, 97.0),
                          ("edge-compute", 224, 99.0)])
def test_tail_percentile_keeps_ten_ops_beyond(workload, ops_per_worker, percentile):
    min_ops = run.WORKLOADS[workload]["min_workers"] * ops_per_worker
    assert run.tail_percentile(min_ops) == percentile
    _, beyond = run.nearest_rank(list(range(min_ops)), percentile)
    assert beyond >= run.TAIL_BEYOND


@pytest.mark.parametrize("workload,workers", [("suite-default", 13), ("compute-large", 8),
                                              ("edge-compute", 10)])
def test_worker_count_is_fixed_by_seconds(workload, workers):
    assert run.worker_count(workload, 25) == workers
    assert run.worker_count(workload, 1) == run.WORKLOADS[workload]["min_workers"]


def test_untraced_failure_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _run(ROOT, "edge-compute", trace=0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        proc = _run(ROOT, workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        metrics = result["metrics"]
        assert set(metrics) == set(run.layer_metric_names())
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    proc = _run(tmp_path, "suite-default", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
