"""The repository's benchmark: one command per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
layers it moves):

* ``crawl`` — the §2.1 subdomain crawl pipeline at 12.5k domains;
* ``campus-wan`` — a large §3 campus capture plus the paper's 288 §5
  WAN rounds and the traceroute sweep;
* ``paper-tables`` — every experiment through ``repro-experiments
  --fidelity-gate --out-dir`` against a filled artifact cache;
* ``service-mixed`` — the ``repro serve`` daemon under one closed-loop
  client reading a populated catalog while run jobs and a rescan land.

Each measured unit of work runs in a fresh process, so peak RSS
(``VmHWM``) is per unit and no warm in-process state carries over.
The outputs are checked every time; a failed check counts against the
run's ``failed`` ops.  ``--trace 1`` first measures untraced, then
repeats the work with wrappers around each layer's entry points
(``tracing.py``) and reports the per-layer metrics, every span's self
time, the share of ``wall_s`` the spans cover, and the tracing
overhead.  The last stdout line is the JSON result; the lines above it
are the same numbers for people, with the setup they were measured on.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from itertools import count
from pathlib import Path
from statistics import median

from common import (
    BENCH_DIR,
    REPO,
    child_env,
    emit,
    file_digest,
    last_json_line,
    proc_status_kib,
    require_source_tree,
)

#: World seeds the pipeline workloads draw from: ``--seed n`` selects
#: ``WORLD_SEEDS[n % len(WORLD_SEEDS)]``; expected.json holds the six
#: digests of each.
WORLD_SEEDS = (11, 19, 23)

#: The fidelity gate passes at the CLI's default seed only (seeds 11,
#: 13, 17 and 19 each trip it at 6000 domains), so paper-tables keeps
#: the seed users and CI run.
PAPER_SEED = 7

PIPELINE_SIZES = {
    "crawl": {
        "full": {"domains": 12_500, "wan_rounds": 24, "capture": {}},
        "tiny": {"domains": 600, "wan_rounds": 4, "capture": {}},
    },
    "campus-wan": {
        "full": {
            "domains": 2_500, "wan_rounds": 288,
            "capture": {"num_clients": 500_000, "total_flows": 250_000},
        },
        "tiny": {
            "domains": 600, "wan_rounds": 8,
            "capture": {"num_clients": 20_000, "total_flows": 10_000},
        },
    },
}

#: paper-tables runs the CLI defaults (6000 domains, 36 rounds, all
#: experiments); the tiny size is for the benchmark's own tests and
#: keeps to experiments the fidelity gate passes at 1000 domains.
PAPER_SIZES = {
    "full": {},
    "tiny": {
        "domains": 1000, "wan_rounds": 6,
        "experiments": ["table01", "table02", "figure10", "figure12"],
    },
}

#: A paper-tables fill stops at the first run with zero cache misses;
#: more fill runs than this is a failure.
MAX_FILL_RUNS = 4

#: service-mixed: the catalog's runs and the jobs the client submits.
SMALL_RUN = {"domains": 300, "wan_rounds": 4,
             "experiments": ["table03", "figure10"]}
SERVICE_SIZES = {
    "full": {"catalog_runs": 24, "session_jobs": 3, "reads_per_second": 300},
    "tiny": {"catalog_runs": 3, "session_jobs": 1, "reads_per_second": 100},
}
#: Untraced client sessions per run, each on a fresh daemon over a
#: fresh copy of the root and reading its share of the budget; setup_s
#: takes the median of their daemon starts.
SESSIONS = 3

#: The read mix: one closed loop cycles through these in a seeded order.
READ_MIX = (
    "runs", "runs?seed", "runs?experiment", "runs/<id>",
    "runs/<id>/fidelity", "runs/<id>/timings", "compare", "jobs",
    "timeline", "metrics", "health",
)

#: Per-layer metrics a traced paper-tables run takes from its fill runs.
FILL_METRICS = ("artifacts.misses", "artifacts.stores", "artifacts.store_s")

CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


# -- process helpers ---------------------------------------------------


def run_child(script: str, spec: dict) -> dict:
    command = [sys.executable, str(BENCH_DIR / script), json.dumps(spec)]
    proc = subprocess.run(
        command, capture_output=True, text=True, env=child_env(),
        cwd=REPO, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{script} {spec.get('job')} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return last_json_line(proc.stdout)


def iterate(budget_s: float, minimum: int, fn, first=()) -> list:
    """Call ``fn`` until the units' wall time adds up to ``budget_s``
    and at least ``minimum`` units are in."""
    results = list(first)
    while len(results) < minimum or \
            sum(r["wall_s"] for r in results) < budget_s:
        results.append(fn())
    return results


class Ledger:
    """Attempted and failed ops, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# -- pipeline workloads: crawl, campus-wan ----------------------------


def pipeline_workload(args, ledger: Ledger, work: Path) -> dict:
    config = PIPELINE_SIZES[args.workload][args.size]
    world_seed = WORLD_SEEDS[args.seed % len(WORLD_SEEDS)]
    expected = load_expected(args.expected)[args.workload][args.size][
        str(world_seed)
    ]
    spec = {"job": "pipeline", "world_seed": world_seed, **config}

    def one(trace: bool) -> dict:
        result = run_child("pipeline.py", {**spec, "trace": trace})
        digests = result["outputs"]
        wrong = sorted(k for k in expected if digests.get(k) != expected[k])
        ledger.check(not wrong, f"seed {world_seed}: wrong digests {wrong}")
        return result

    untraced, traced = measure(args, one)
    setups = [r["setup_s"] for r in untraced] + [
        run_child("pipeline.py", {"job": "none"})["setup_s"]
        for _ in range(2)
    ]
    return {
        "setup": {**untraced[0]["setup"], **config,
                  "world_seed": world_seed},
        "wall_s": median(r["wall_s"] for r in untraced),
        "setup_s": median(setups),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
        "units_wall_s": [r["wall_s"] for r in untraced],
        "traced": traced,
    }


def measure(args, one, first=()):
    """Untraced units for the whole budget, or — traced runs — half
    the budget untraced (the overhead baseline) and half traced.
    ``first`` holds units already measured, traced when ``--trace 1``."""
    if not args.trace:
        return iterate(args.seconds, 2, lambda: one(False), first), []
    half = args.seconds / 2
    return (iterate(half, 1, lambda: one(False)),
            iterate(half, 1, lambda: one(True), first))


def load_expected(path) -> dict:
    with open(path or BENCH_DIR / "expected.json") as fh:
        return json.load(fh)


# -- paper-tables -------------------------------------------------------


def paper_workload(args, ledger: Ledger, work: Path) -> dict:
    config = PAPER_SIZES[args.size]
    base = {"job": "paper-tables", "world_seed": PAPER_SEED,
            "artifact_dir": str(work / "artifacts"), **config}
    counter = count()

    def run(trace: bool = False) -> dict:
        out_dir = work / f"run{next(counter)}"
        return run_child("pipeline.py",
                         {**base, "out_dir": str(out_dir), "trace": trace})

    def timed_run() -> dict:
        start = time.perf_counter()
        result = run(args.trace)
        result["elapsed_s"] = time.perf_counter() - start
        return result

    # Set-up: a cold run, then warm runs until one reports no miss.
    # That run is a steady warm run and counts as the first unit.
    # Traced runs trace the fill too: its artifact stores and misses
    # are the per-layer metrics that move setup_s.
    runs = [timed_run()]
    while runs[-1]["outputs"]["cache"]["misses"] and \
            len(runs) <= MAX_FILL_RUNS:
        runs.append(timed_run())
    *fills, first_unit = runs
    fill_s = sum(r["elapsed_s"] for r in fills)
    reference = dict(runs[0]["outputs"]["experiments"])
    reference.update(load_expected(args.expected).get("paper-tables", {}))

    def check(result: dict) -> dict:
        """A warm run passes when the gate holds, no key is missing,
        the cache served everything, and every experiment's measured
        values and verdicts equal the cold run's."""
        outputs = result["outputs"]
        missing = [
            f"{experiment}.{key}"
            for experiment, keys in outputs["experiments"].items()
            for key, _measured, verdict in keys if verdict == "missing"
        ]
        differ = sorted(
            experiment for experiment, keys in reference.items()
            if json.dumps(outputs["experiments"].get(experiment))
            != json.dumps(keys)
        )
        ledger.check(
            outputs["exit_code"] == 0 and not missing and not differ
            and outputs["cache"]["misses"] == 0,
            f"warm run: exit {outputs['exit_code']}, missing {missing}, "
            f"differs from the cold run in {differ}, "
            f"cache {outputs['cache']}",
        )
        return result

    def one(trace: bool) -> dict:
        return check(run(trace))

    check(first_unit)
    untraced, traced = measure(args, one, first=[first_unit])
    return {
        "setup": {
            **untraced[0]["setup"], **config,
            "fill_runs": len(fills),
            "fill_cache": [f["outputs"]["cache"] for f in fills],
            "fill_probes_total": [f["outputs"]["probes_total"]
                                  for f in fills],
            "warm_probes_total": untraced[0]["outputs"]["probes_total"],
        },
        "wall_s": median(r["wall_s"] for r in untraced),
        "setup_s": fill_s + median(r["setup_s"] for r in untraced),
        "peak_rss_mib": median(r["peak_rss_mib"] for r in untraced),
        "units_wall_s": [r["wall_s"] for r in untraced],
        "traced": traced,
        "fill_traces": [f["trace"] for f in fills if "trace" in f],
    }


# -- service-mixed -----------------------------------------------------


class Daemon:
    """One ``repro serve`` process over ``root``."""

    def __init__(self, root: Path, trace_out=None):
        spec = {"root": str(root),
                "trace_out": str(trace_out) if trace_out else None}
        started = time.perf_counter()
        self.log = open(root.parent / f"{root.name}.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "daemon.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(), cwd=REPO,
        )
        try:
            banner = self.proc.stdout.readline()
            if "http://" not in banner:
                raise BenchError(f"daemon did not start: {banner!r}")
            address = banner.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            deadline = time.monotonic() + 60
            while self.request("GET", "/health")[0] != 200:
                if time.monotonic() > deadline:
                    raise BenchError("daemon /health never answered 200")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def request(self, method: str, path: str, body=None):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=30)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            connection.close()

    def peak_rss_mib(self) -> float:
        return proc_status_kib(self.proc.pid) / 1024

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def read_script(seed: int, count: int, run_ids: list) -> list:
    """``count`` GET paths: the read mix in a seeded order per cycle,
    with run ids and filters drawn from the same seeded stream."""
    rng = random.Random(seed)
    seeds = range(1, len(run_ids) + 1)  # the catalog runs' seeds
    paths = []
    while len(paths) < count:
        cycle = list(READ_MIX)
        rng.shuffle(cycle)
        for kind in cycle:
            run_id = rng.choice(run_ids)
            paths.append({
                "runs": "/runs",
                "runs?seed": f"/runs?seed={rng.choice(seeds)}",
                "runs?experiment": "/runs?experiment=table03&limit=5",
                "runs/<id>": f"/runs/{run_id}",
                "runs/<id>/fidelity": f"/runs/{run_id}/fidelity",
                "runs/<id>/timings": f"/runs/{run_id}/timings",
                "compare": "/compare?a={}&b={}".format(
                    *rng.sample(run_ids, 2)),
                "jobs": "/jobs",
                "timeline": "/timeline?limit=20",
                "metrics": "/metrics",
                "health": "/health",
            }[kind])
    return paths[:count]


def service_session(daemon: Daemon, reads: list, jobs: list,
                    ledger: Ledger) -> dict:
    """One closed loop over ``reads`` with the job submissions and a
    rescan interleaved at fixed read indices.  ``wall_s`` ends when the
    request script is done; the jobs' records are collected after, once
    every submitted job has finished."""
    writes = {
        (i + 1) * len(reads) // (len(jobs) + 2): ("POST", "/jobs", job)
        for i, job in enumerate(jobs)
    }
    writes[(len(jobs) + 1) * len(reads) // (len(jobs) + 2)] = (
        "POST", "/scan", None)
    latencies, job_ids = [], []
    start = time.perf_counter()
    for index, path in enumerate(reads):
        if index in writes:
            method, route, body = writes[index]
            status, payload = daemon.request(
                method, route, json.dumps(body) if body else None)
            ledger.check(status in (200, 202), f"{route} -> {status}")
            if route == "/jobs" and status == 202:
                job_ids.append(json.loads(payload)["job_id"])
        sent = time.perf_counter()
        status, _ = daemon.request("GET", path)
        latencies.append(time.perf_counter() - sent)
        ledger.check(200 <= status < 300, f"GET {path} -> {status}")
    wall_s = time.perf_counter() - start
    records = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S / 2
    for job_id in job_ids:
        while True:
            status, payload = daemon.request("GET", f"/jobs/{job_id}")
            record = json.loads(payload) if status == 200 else {}
            if record.get("status") in ("completed", "failed") or \
                    time.monotonic() > deadline:
                break
            time.sleep(0.02)
        records.append(record)
    return {
        "wall_s": wall_s,
        "peak_rss_mib": daemon.peak_rss_mib(),
        "window": (start, start + wall_s),
        "latencies": latencies,
        "reads_per_s": len(reads) / wall_s,
        "jobs": records,
    }


def quantile_ms(values: list, q: float) -> float:
    ordered = sorted(values)
    return 1000 * ordered[int(len(ordered) * q)]


def check_jobs(session: dict, root: Path, references: dict,
               ledger: Ledger) -> None:
    for record in session["jobs"]:
        run_id = (record.get("outcome") or {}).get("run_id")
        manifest = root / str(run_id) / "manifest.json"
        identical = (
            record.get("status") == "completed" and manifest.is_file()
            and references.get(run_id) == file_digest(manifest)
        )
        ledger.check(identical,
                     f"job {record.get('job_id')}: {record.get('status')}, "
                     f"manifest of {run_id} not byte-identical to the CLI's")


def service_workload(args, ledger: Ledger, work: Path) -> dict:
    size = SERVICE_SIZES[args.size]
    catalog_jobs = [{"seed": 1 + i, **SMALL_RUN}
                    for i in range(size["catalog_runs"])]
    session_jobs = [
        {"kind": "run", "seed": 1000 + size["session_jobs"] * args.seed + i,
         **SMALL_RUN}
        for i in range(size["session_jobs"])
    ]
    template = work / "template"
    setup_start = time.perf_counter()
    catalog = run_child("pipeline.py", {
        "job": "catalog", "root": str(template),
        "catalog_jobs": catalog_jobs,
    })
    catalog_s = time.perf_counter() - setup_start
    ledger.check(
        catalog["outputs"]["statuses"] == ["completed"] * len(catalog_jobs),
        f"catalog jobs: {catalog['outputs']['statuses']}",
    )
    # The reference runs only serve the checks: not part of setup_s.
    references = run_child("pipeline.py", {
        "job": "references", "reference_dir": str(work / "reference"),
        "session_jobs": session_jobs,
    })["outputs"]
    run_ids = catalog["outputs"]["run_ids"]
    reads = read_script(
        args.seed, int(size["reads_per_second"] * args.seconds / SESSIONS),
        run_ids,
    )
    counter = count()

    def fresh_root() -> Path:
        root = work / f"root{next(counter)}"
        shutil.copytree(template, root)
        return root

    def session(trace: bool) -> dict:
        root = fresh_root()
        trace_out = work / f"{root.name}.trace.json" if trace else None
        daemon = Daemon(root, trace_out)
        try:
            result = service_session(daemon, reads, session_jobs, ledger)
        finally:
            daemon.stop()
        result["start_s"] = daemon.start_s
        check_jobs(result, root, references, ledger)
        if trace:
            import tracing

            dump = json.loads(trace_out.read_text())
            result["trace"] = tracing.snapshot(dump, *result["window"])
        return result

    untraced = [session(False) for _ in range(SESSIONS)]
    traced = [session(True)] if args.trace else []
    latencies = [value for unit in untraced for value in unit["latencies"]]
    turnaround = [
        record["finished_at"] - record["created_at"]
        for unit in untraced for record in unit["jobs"]
        if record.get("finished_at")
    ]
    return {
        "setup": {
            **catalog["setup"],
            "catalog_runs": len(run_ids),
            "client_connections": 1,
            "sessions": SESSIONS,
            "reads_attempted": len(latencies),
            "writes_attempted": SESSIONS * (len(session_jobs) + 1),
            "read_mix": list(READ_MIX),
            "poll_interval_s": catalog["outputs"]["poll_interval_s"],
            "small_run": SMALL_RUN,
        },
        "wall_s": median(unit["wall_s"] for unit in untraced),
        "setup_s": catalog_s + median(unit["start_s"] for unit in untraced),
        "peak_rss_mib": median(unit["peak_rss_mib"] for unit in untraced),
        "read_p50_ms": quantile_ms(latencies, 0.50),
        "read_p99_ms": quantile_ms(latencies, 0.99),
        "reads_per_s": median(unit["reads_per_s"] for unit in untraced),
        "job_turnaround_s": median(turnaround) if turnaround else 0.0,
        "units_wall_s": [unit["wall_s"] for unit in untraced],
        "traced": traced,
    }


WORKLOADS = {
    "crawl": pipeline_workload,
    "campus-wan": pipeline_workload,
    "paper-tables": paper_workload,
    "service-mixed": service_workload,
}


# -- reporting ---------------------------------------------------------


def benchmark_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


def traced_metrics(result: dict, per_layer: list) -> tuple:
    """Per-layer metrics: the median over traced units of each, with
    the overhead taken against the untraced median; plus the first
    unit's row.  The experiment ids come from the metric names."""
    import tracing

    prefix = "experiments.run_s."
    experiment_ids = [entry["name"][len(prefix):] for entry in per_layer
                      if entry["name"].startswith(prefix)]
    rows = []
    for unit in result["traced"]:
        overhead = unit["wall_s"] - result["wall_s"]
        rows.append(tracing.layer_metrics(
            unit["trace"], unit["wall_s"], overhead, experiment_ids,
        ))
    merged = {name: median(row[name] for row in rows) for name in rows[0]}
    # paper-tables: a steady warm unit neither misses nor stores (its
    # check says so); the set-up fill does, so these come from there.
    fills = [tracing.layer_metrics(snap, 0.0, 0.0, [])
             for snap in result.get("fill_traces", [])]
    if fills:
        for name in FILL_METRICS:
            merged[name] = sum(row[name] for row in fills)
    for name in ("read_p50_ms", "read_p99_ms", "reads_per_s",
                 "job_turnaround_s"):
        merged[name] = result.get(name, 0.0)
    return merged, rows[0]


def print_report(args, result: dict, ledger: Ledger) -> None:
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace} size {args.size}")
    setup = {**result["setup"], "workload_seed": args.seed}
    print("setup " + json.dumps(setup, sort_keys=True))
    print(f"units measured: {len(result['units_wall_s'])}, wall_s "
          + " ".join(f"{value:.3f}" for value in result["units_wall_s"]))
    for name, unit in (("wall_s", "s"), ("setup_s", "s"),
                       ("peak_rss_mib", "MiB"), ("read_p50_ms", "ms"),
                       ("read_p99_ms", "ms"), ("reads_per_s", "1/s"),
                       ("job_turnaround_s", "s")):
        if name in result:
            print(f"  {name:18s} {result[name]:12.4f} {unit}")
    if "read_p50_ms" in result:
        print(f"  read latencies over {result['setup']['reads_attempted']} "
              f"closed-loop reads in {result['setup']['sessions']} "
              "sessions, 1 connection")
    frac = len(ledger.failures) / ledger.attempted
    print(f"  {'failed_frac':18s} {frac:12.4f} ratio "
          f"({len(ledger.failures)} of {ledger.attempted} checked ops)")
    for failure in ledger.failures[:20]:
        print(f"  FAILED: {failure}")


def print_spans(trace: dict) -> None:
    print("spans (first traced unit): name, calls, total s, self s")
    for name, row in sorted(trace["spans"].items(),
                            key=lambda item: -item[1]["s"]):
        print(f"  {name:40s} {row['calls']:7d} {row['s']:10.4f} "
              f"{row['self_s']:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long inputs for the benchmark's own tests")
    parser.add_argument(
        "--expected", default=None, metavar="FILE",
        help="expected outputs in place of perfbench/expected.json "
             "(its paper-tables entries override the cold run's values)")
    args = parser.parse_args(argv)
    require_source_tree()
    spec = benchmark_spec()

    work = REPO / ".perfbench-work" / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        result = WORKLOADS[args.workload](args, ledger, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_report(args, result, ledger)
    if args.trace:
        metrics, first = traced_metrics(result, spec["per_layer"])
        print_spans(result["traced"][0]["trace"])
        print(f"  trace.covered_share {first['trace.covered_share']:.4f}, "
              f"trace.overhead_s {first['trace.overhead_s']:.4f}")
        chosen = spec["per_layer"]
    else:
        metrics = result
        chosen = spec["end_to_end"]
    emit({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in chosen
        },
    })
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        raise SystemExit(1)
