"""The benchmark's own tests: every workload end to end at a tiny size,
failed output checks, and the traced metric set.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO = BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = [entry["name"] for entry in SPEC["end_to_end"]]
PER_LAYER = [entry["name"] for entry in SPEC["per_layer"]]


def bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def tiny(workload: str, *extra: str, trace: int = 0) -> dict:
    return result_of(bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    ))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end_and_checks_outputs(workload):
    result = tiny(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == sorted(END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_wrong_expected_digest_fails_every_op(tmp_path):
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    for digests in expected["crawl"]["tiny"].values():
        digests["records"] = "0" * 16
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    result = tiny("crawl", "--expected", str(path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_wrong_manifest_value_fails_every_op(tmp_path):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(
        {"paper-tables": {"table01": [["subdomains", -1, "match"]]}}
    ))
    result = tiny("paper-tables", "--expected", str(path))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


@pytest.mark.parametrize("workload,moved", [
    ("campus-wan", ["capture.summary_s", "campaign.run_s.traceroute",
                    "wan.measure_s", "wan.isp_diversity_s",
                    "dataset.build_s", "world.deploy_s"]),
    # The fill's stores and misses are traced, not only the warm units.
    ("paper-tables", ["artifacts.load_s", "artifacts.hits",
                      "artifacts.misses", "artifacts.stores",
                      "artifacts.store_s", "experiments.run_s.table01"]),
    ("service-mixed", ["service.api.handle_s.runs",
                       "service.repository.query_s",
                       "service.jobs.execute_s", "service.jobs.claim_calls",
                       "service.jobs.files_parsed", "obs.metrics.render_s",
                       "read_p50_ms", "job_turnaround_s"]),
])
def test_traced_run_emits_every_per_layer_metric(workload, moved):
    result = tiny(workload, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(PER_LAYER)
    for name in moved:
        assert metrics[name]["value"] > 0, name
    assert 0 < metrics["trace.covered_share"]["value"] <= 1.0


def test_per_layer_names_are_the_tracer_names():
    sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]
    try:
        import tracing
        from repro.experiments.registry import experiment_ids

        empty = {"spans": {}, "counters": {}, "covered_s": 0.0}
        names = list(tracing.layer_metrics(empty, 1.0, 0.0,
                                           experiment_ids()))
    finally:
        del sys.path[:2]
    service_client = ["read_p50_ms", "read_p99_ms", "reads_per_s",
                      "job_turnaround_s"]
    assert sorted(names + service_client) == sorted(PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "crawl", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
