"""One measured iteration of a pipeline workload, in a fresh process.

Usage (``run.py`` is the only caller)::

    python3 perfbench/pipeline.py '<json spec>'

The spec names the job — ``pipeline`` (the crawl and campus-wan
workloads: world, §2.1 dataset, campus capture, §5 WAN campaign,
traceroute sweep, six output digests), ``paper-tables`` (one
``repro-experiments --fidelity-gate --out-dir`` invocation), or the
service-mixed preparation (``catalog``: the scheduler fill of a
service root; ``references``: the CLI runs its jobs are checked
against) — with its config, and whether to trace.  The process times its imports
(``setup_s``), then the work up to finished outputs (``wall_s``), and
prints one JSON line with both, its peak RSS, the outputs ``run.py``
checks, and — when traced — the span snapshot.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    digest,
    emit,
    file_digest,
    proc_status_kib,
    setup_record,
    use_source_tree,
)

use_source_tree()

from repro.analysis.dataset import DatasetBuilder  # noqa: E402
from repro.analysis.wan import WanAnalysis, WanConfig  # noqa: E402
from repro.capture.generator import CaptureConfig  # noqa: E402
from repro.experiments import cli  # noqa: E402
from repro.obs.timeline import TimelineStore  # noqa: E402
from repro.service.cli import build_service_parser  # noqa: E402
from repro.service.jobs import JobSpec, Scheduler  # noqa: E402
from repro.service.repository import RunRepository  # noqa: E402
from repro.world import World, WorldConfig  # noqa: E402

# cli.main imports these on demand; importing them here keeps their
# import time in setup_s, not in wall_s.
import repro.artifacts  # noqa: E402,F401
import repro.experiments.manifest  # noqa: E402,F401
import repro.faults  # noqa: E402,F401

_CACHE_LINE = re.compile(
    r"artifact cache \[.*\]: (\d+) hits, (\d+) misses, (\d+) stored"
)


def pipeline_digests(spec: dict) -> dict:
    """The §2.1 → §5 pipeline, sequential, on the default columnar +
    streaming planes (chunked world, one-pass capture summary); the
    six digests are defined exactly as ``scripts/profile_pipeline.py``
    defines them, so the two agree at the same config."""
    config = WorldConfig(
        seed=spec["world_seed"], num_domains=spec["domains"],
        capture=CaptureConfig(**spec["capture"]),
    )
    world = World(config, defer_tenants=True)
    dataset = DatasetBuilder(world).build(workers=0)
    trace = world.capture_summary(workers=0)
    wan = WanAnalysis(world, WanConfig(rounds=spec["wan_rounds"], workers=0))
    wan.latency_series(wan.clients[0].name, wan.regions[0])
    isp = wan.isp_diversity()

    records = sorted(
        (
            record.fqdn, record.domain, record.rank,
            tuple(sorted(str(a) for a in record.addresses)),
            tuple(sorted(record.cnames)),
            tuple(sorted(record.ns_names)),
            record.lookups,
        )
        for record in dataset.records
    )
    return {
        "records": digest(records),
        "ns_addresses": digest(
            sorted((k, str(v)) for k, v in dataset.ns_addresses.items())
        ),
        "wan_latency": digest(
            sorted((k, tuple(v)) for k, v in wan._latency.items())
        ),
        "wan_throughput": digest(
            sorted((k, tuple(v)) for k, v in wan._throughput.items())
        ),
        "trace": digest((len(trace), trace.total_bytes())),
        "isp_diversity": digest(sorted(
            (
                region,
                tuple(sorted(info["per_zone"].items())),
                info["region_total"],
                info["top_isp_route_share"],
            )
            for region, info in isp.items()
        )),
    }


def paper_tables(spec: dict) -> dict:
    """All experiments through the CLI at its default scale, against
    the artifact cache in ``spec["artifact_dir"]``."""
    argv = [
        "--seed", str(spec["world_seed"]), "--fidelity-gate", "-q",
        "--out-dir", spec["out_dir"], "--artifact-dir", spec["artifact_dir"],
    ]
    for flag in ("domains", "wan_rounds"):
        if flag in spec:
            argv += ["--" + flag.replace("_", "-"), str(spec[flag])]
    argv += spec.get("experiments", [])
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exit_code = cli.main(argv)
    cache = _CACHE_LINE.search(printed.getvalue())
    (manifest_path,) = Path(spec["out_dir"]).glob("run-*/manifest.json")
    manifest = json.loads(manifest_path.read_text())
    return {
        "exit_code": exit_code,
        "cache": dict(zip(("hits", "misses", "stores"),
                          map(int, cache.groups()))),
        "manifest_path": str(manifest_path),
        "experiments": {
            experiment["id"]: [
                [key["key"], key["measured"], key["verdict"]]
                for key in experiment["keys"]
            ]
            for experiment in manifest["experiments"]
        },
        "probes_total": {
            name: value
            for name, value in manifest["metrics"].get("counters", {}).items()
            if name.startswith("probes_total")
        },
    }


def cli_argv(job: dict, out_dir: str) -> list:
    """The ``repro-experiments`` invocation equivalent to a run job."""
    return [
        "--seed", str(job["seed"]), "--domains", str(job["domains"]),
        "--wan-rounds", str(job["wan_rounds"]), "--no-artifact-cache", "-q",
        "--out-dir", out_dir, *job["experiments"],
    ]


def catalog(spec: dict) -> dict:
    """Fill a service root: the catalog's runs executed as scheduler
    jobs (runs, job history, and timeline entries).  Also reports the
    ``repro serve`` poll interval the daemon runs with, its default."""
    with RunRepository(spec["root"]) as repository, \
            TimelineStore(spec["root"]) as timeline:
        scheduler = Scheduler(repository, timeline=timeline)
        for job in spec["catalog_jobs"]:
            scheduler.submit(JobSpec.from_dict({"kind": "run", **job}))
        scheduler.run_pending()
        statuses = [record.status for record in scheduler.jobs()]
        run_ids = [record.run_id for record in repository.runs()]
    poll_interval = build_service_parser().parse_args(["serve"]).poll_interval
    return {"statuses": statuses, "run_ids": run_ids,
            "poll_interval_s": poll_interval}


def references(spec: dict) -> dict:
    """CLI runs of the jobs the workload will submit to the daemon:
    the digest of each ``manifest.json``, by run id."""
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for job in spec["session_jobs"]:
            out_dir = Path(spec["reference_dir"]) / str(job["seed"])
            cli.main(cli_argv(job, str(out_dir)))
            (manifest,) = out_dir.glob("run-*/manifest.json")
            digests[manifest.parent.name] = file_digest(manifest)
    return digests


JOBS = {
    "none": lambda spec: {},
    "pipeline": pipeline_digests,
    "paper-tables": paper_tables,
    "catalog": catalog,
    "references": references,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    job = JOBS[spec["job"]]
    recorder = None
    if spec.get("trace"):
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    setup = setup_record()
    setup_s = time.perf_counter() - _STARTED
    start = time.perf_counter()
    outputs = job(spec)
    end = time.perf_counter()
    result = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "peak_rss_mib": proc_status_kib() / 1024,
        "outputs": outputs,
        "setup": setup,
    }
    if recorder is not None:
        result["trace"] = tracing.snapshot(recorder.dump(), start, end)
    emit(result)


if __name__ == "__main__":
    main()
