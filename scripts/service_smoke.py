#!/usr/bin/env python
"""End-to-end smoke test of the service plane (the CI service-smoke
job, also runnable locally).

Within one time budget this script:

1. produces a baseline ``run-<hash>/`` via the classic CLI path
   (``repro-experiments … --out-dir``);
2. starts the real ``repro serve`` daemon as a subprocess and waits
   for ``/health``;
3. submits the *same* config as a job over HTTP, polls it to
   completion, and asserts the produced run directory is byte-identical
   to the CLI baseline (same ``run-<hash>`` id, same ``manifest.json``,
   ``fidelity.json``, ``summaries.txt``, and TSV release — the service
   is an orchestrator, never a new code path);
4. submits a second job under an outage ``--scenario`` and exercises
   ``/compare`` between the two runs, asserting per-key deltas render
   (the WAN experiment's keys must actually move under the outage);
5. checks ``/runs`` filtering, ``/metrics`` exposition (request
   histograms and timeline gauges included), the enriched ``/health``
   (schema version + code fingerprint + timeline counts),
   ``/timeline`` + ``/dashboard``, the NDJSON access log (including
   the submitted ``X-Request-Id``, which must also survive into the
   produced run's ``timings.json``), and the catalog rebuild (drop
   the one SQLite file, POST ``/scan``, same ``/runs`` and
   ``/timeline`` answers);
6. shuts the daemon down cleanly (SIGINT) and requires it to exit
   within the budget.

Exit 0 on success, 1 on any assertion, 2 if the budget is exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Experiments the smoke runs: one DNS-plane table (scenario
#: transparent by design) and one WAN figure (whose keys must move
#: under a region outage, so /compare has real deltas to show).
EXPERIMENTS = ["table03", "figure10"]
SCENARIO = "ec2.us-east-1-outage"


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    @property
    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check(self, what: str) -> None:
        if self.remaining <= 0:
            print(f"BUDGET EXHAUSTED during: {what}", file=sys.stderr)
            sys.exit(2)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(SRC) + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else str(SRC)
    )
    return env


def _get(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        raw = response.read()
        if response.headers.get_content_type() == "application/json":
            return json.loads(raw)
        return raw.decode()


def _post(url: str, payload=None, timeout: float = 10.0,
          headers=None, with_headers: bool = False):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload or {}).encode(),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        body = json.loads(response.read())
        if with_headers:
            return body, dict(response.headers)
        return body


def _wait_for_job(base: str, job_id: str, budget: Budget) -> dict:
    while True:
        budget.check(f"waiting for {job_id}")
        record = _get(f"{base}/jobs/{job_id}")
        if record["status"] in ("completed", "failed"):
            return record
        time.sleep(1.0)


def _assert(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domains", type=int, default=800)
    parser.add_argument("--wan-rounds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port")
    parser.add_argument(
        "--time-budget", type=float, default=600.0,
        help="hard wall-clock ceiling for the whole smoke (seconds)",
    )
    args = parser.parse_args()
    budget = Budget(args.time_budget)
    if args.port == 0:
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            args.port = probe.getsockname()[1]
    base = f"http://127.0.0.1:{args.port}"
    workdir = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    cli_dir = workdir / "cli-baseline"
    service_root = workdir / "service"

    # 1. Baseline through the classic CLI path.
    config_flags = [
        "--seed", str(args.seed),
        "--domains", str(args.domains),
        "--wan-rounds", str(args.wan_rounds),
    ]
    print(f"[1/6] CLI baseline run ({EXPERIMENTS})", flush=True)
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *EXPERIMENTS,
         *config_flags, "--no-artifact-cache",
         "--out-dir", str(cli_dir)],
        env=_env(), check=True, stdout=subprocess.DEVNULL,
    )
    budget.check("CLI baseline")
    cli_runs = sorted(cli_dir.glob("run-*"))
    _assert(len(cli_runs) == 1, f"expected 1 baseline run: {cli_runs}")
    cli_run = cli_runs[0]

    # 2. The daemon.
    print(f"[2/6] starting repro serve on {base}", flush=True)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve",
         "--root", str(service_root), "--port", str(args.port),
         "--poll-interval", "0.5"],
        env=_env(),
    )
    try:
        while True:
            budget.check("waiting for /health")
            try:
                health = _get(f"{base}/health", timeout=2.0)
                if health.get("status") == "ok":
                    break
            except OSError:
                time.sleep(0.3)

        # 3. Same config as a job; must reproduce the CLI run exactly.
        print("[3/6] submitting the baseline config as a job",
              flush=True)
        request_id = "smoke-req-42"
        record, response_headers = _post(
            f"{base}/jobs",
            {
                "kind": "run", "seed": args.seed,
                "domains": args.domains,
                "wan_rounds": args.wan_rounds,
                "experiments": EXPERIMENTS,
            },
            headers={"X-Request-Id": request_id},
            with_headers=True,
        )
        _assert(
            response_headers.get("X-Request-Id") == request_id,
            f"X-Request-Id not echoed: {response_headers}",
        )
        _assert(
            record.get("request_id") == request_id,
            f"job record lost the request id: {record}",
        )
        record = _wait_for_job(base, record["job_id"], budget)
        _assert(
            record["status"] == "completed",
            f"job failed: {record.get('error')}",
        )
        run_id = record["outcome"]["run_id"]
        _assert(
            run_id == cli_run.name,
            f"service run id {run_id} != CLI run id {cli_run.name}",
        )
        service_run = service_root / run_id
        for name in ("manifest.json", "fidelity.json",
                     "summaries.txt", "fidelity.txt"):
            _assert(
                (cli_run / name).read_bytes()
                == (service_run / name).read_bytes(),
                f"{name} differs between CLI and service runs",
            )
        for tsv in sorted((cli_run / "release").glob("*.tsv")):
            _assert(
                tsv.read_bytes()
                == (service_run / "release" / tsv.name).read_bytes(),
                f"release/{tsv.name} differs",
            )
        print(f"      {run_id} byte-identical to the CLI baseline",
              flush=True)
        timings = _get(f"{base}/runs/{run_id}/timings")
        _assert(
            timings.get("job", {}).get("request_id") == request_id,
            f"timings.json lost the request id: {timings.get('job')}",
        )
        _assert(
            timings.get("job", {}).get("job_id") == record["job_id"],
            f"timings.json lost the job id: {timings.get('job')}",
        )

        # 4. An outage-drill job, then /compare.
        print(f"[4/6] outage job ({SCENARIO}) + /compare", flush=True)
        drilled = _post(f"{base}/jobs", {
            "kind": "run", "seed": args.seed,
            "domains": args.domains, "wan_rounds": args.wan_rounds,
            "experiments": EXPERIMENTS, "scenario": SCENARIO,
        })
        drilled = _wait_for_job(base, drilled["job_id"], budget)
        _assert(
            drilled["status"] == "completed",
            f"drill job failed: {drilled.get('error')}",
        )
        drilled_id = drilled["outcome"]["run_id"]
        _assert(drilled_id != run_id, "drilled run shares the run id")
        diff = _get(f"{base}/compare?a={run_id}&b={drilled_id}")
        _assert(
            diff["summary"]["keys_compared"] > 0,
            "compare returned no keys",
        )
        _assert(
            diff["summary"]["keys_changed"] > 0,
            "outage drill changed no measured key (expected the WAN "
            "figure's keys to move)",
        )
        _assert(
            diff["config"].get("scenario", {}).get("b") == SCENARIO,
            f"config diff missing scenario: {diff['config']}",
        )
        print(
            f"      {diff['summary']['keys_changed']} of "
            f"{diff['summary']['keys_compared']} keys changed under "
            f"the drill", flush=True,
        )

        # 5. Queries, metrics, index rebuild.
        print("[5/6] /runs filters, /metrics, index rebuild",
              flush=True)
        runs = _get(f"{base}/runs")["runs"]
        _assert(len(runs) == 2, f"expected 2 indexed runs: {runs}")
        drilled_only = _get(f"{base}/runs?scenario={SCENARIO}")["runs"]
        _assert(
            [r["run_id"] for r in drilled_only] == [drilled_id],
            "scenario filter failed",
        )
        metrics = _get(f"{base}/metrics")
        for needle in ("service_requests_total",
                       "service_jobs_executed_total",
                       "service_indexed_runs",
                       "service_request_seconds_bucket",
                       "service_responses_total",
                       "service_timeline_entries"):
            _assert(needle in metrics, f"{needle} missing in /metrics")
        health = _get(f"{base}/health")
        _assert(
            isinstance(health.get("schema_version"), int),
            f"/health missing schema_version: {health}",
        )
        _assert(
            isinstance(health.get("code_fingerprint"), str)
            and health["code_fingerprint"],
            f"/health missing code_fingerprint: {health}",
        )
        _assert(
            health.get("timeline", {}).get("run_entries") == 2,
            f"/health timeline counts wrong: {health.get('timeline')}",
        )
        entries = _get(f"{base}/timeline")["entries"]
        _assert(
            sorted(e["extra"]["run_id"] for e in entries)
            == sorted([run_id, drilled_id]),
            f"/timeline entries wrong: {[e['entry_id'] for e in entries]}",
        )
        dashboard = _get(f"{base}/dashboard")
        _assert(
            dashboard.startswith("<!DOCTYPE html>")
            and "telemetry timeline" in dashboard,
            "/dashboard did not render",
        )
        access_log = service_root / "access.ndjson"
        _assert(access_log.is_file(), "access.ndjson missing")
        events = [
            json.loads(line)
            for line in access_log.read_text().splitlines()
        ]
        _assert(len(events) > 5, f"too few access-log events: {events}")
        submits = [
            e for e in events
            if e["route"] == "jobs" and e["method"] == "POST"
            and e.get("request_id") == request_id
        ]
        _assert(
            len(submits) == 1,
            f"expected 1 access-log line for {request_id}: {submits}",
        )
        before = _get(f"{base}/runs")["runs"]
        entries_before = _get(f"{base}/timeline")["entries"]
        index = service_root / ".repro-index.sqlite"
        _assert(index.exists(), "index file missing")
        index.unlink()
        report = _post(f"{base}/scan")
        _assert(report["runs"] == 2, f"rescan found {report['runs']}")
        _assert(
            report.get("timeline", {}).get("runs") == 2,
            f"rescan timeline report wrong: {report.get('timeline')}",
        )
        after = _get(f"{base}/runs")["runs"]
        _assert(before == after, "rebuilt index answers differ")
        _assert(
            _get(f"{base}/timeline")["entries"] == entries_before,
            "rebuilt timeline entries differ",
        )

        # 6. Clean shutdown.
        print("[6/6] clean shutdown", flush=True)
        daemon.send_signal(signal.SIGINT)
        deadline = min(30.0, max(1.0, budget.remaining))
        try:
            code = daemon.wait(timeout=deadline)
        except subprocess.TimeoutExpired:
            print("FAIL: daemon did not exit on SIGINT",
                  file=sys.stderr)
            daemon.kill()
            return 1
        _assert(code == 0, f"daemon exited {code}")
        print("service smoke OK", flush=True)
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    sys.exit(main())
