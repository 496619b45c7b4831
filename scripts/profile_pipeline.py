"""Time the measurement pipeline at bench scale; write BENCH_pipeline.json.

Runs the five pipeline stages — world construction, the Alexa
subdomains dataset, the campus packet capture, the §5 WAN campaign,
and the §5.2 traceroute sweep — end to end, records per-stage wall
times (with per-step timings inside the dataset stage and
per-engine-campaign timings from :mod:`repro.campaign`), and digests
the stage outputs — all four probe kinds the engine schedules — so two
runs (or two revisions, or two worker counts) can be compared for
bit-identical results as well as speed.  Usage:

    PYTHONPATH=src python scripts/profile_pipeline.py \
        [--scale seed|mid|paper] \
        [--seed S] [--domains N] [--wan-rounds R] [--workers W] \
        [--clients C] [--chunk-size N] [--max-rss-mib M] \
        [--verify-workers "0,2,4"] [--repeat K] \
        [--cache-dir DIR | --no-cache-check] \
        [--epochs N] [--epoch-plan NAME] [--out BENCH_pipeline.json]

``--scale`` picks a domain-count tier — ``seed`` (2.5k, the committed
bench), ``mid`` (100k), ``paper`` (1M, the paper's top-1M crawl) — and
a matching default ``--out`` file, so each tier keeps its own
trajectory; explicit ``--domains``/``--out`` override the tier.  Each
tier also scales the campus capture (client population, flow and byte
budgets; the seed tier keeps the committed defaults so its digests
hold); ``--clients`` overrides the tier's client count.
``--workers`` drives both parallel campaigns (dataset shards and WAN
rounds).  The pipeline runs the columnar and streaming data planes
(deferred world + chunked dataset build + one-pass capture analysis;
see docs/PERFORMANCE.md); only a platform without ``fork`` falls back
to the batch paths, with bit-identical digests.  ``--chunk-size``
bounds the ranks materialized per streaming chunk, and
``--max-rss-mib`` fails the run when the process's true peak RSS
exceeds the budget (the CI memory gate).  ``--verify-workers`` re-runs
the whole pipeline per worker count and fails unless every digest
agrees; ``--baseline FILE --require-baseline-identical`` fails unless
every digest equals an earlier report's (the CI gates pin the
committed bench files this way).  Unless ``--no-cache-check`` is
given, the script also runs the pipeline twice
through the artifact cache — a cold run that populates it and a warm
run that must be served entirely from it — and fails unless both match
the uncached digests.

With ``--repeat K`` each stage's reported time is the best of K full
pipeline runs (the digests must agree across runs, and do — caching is
output-transparent; see docs/PERFORMANCE.md).

``--epochs N`` additionally runs an N-epoch incremental series (the
longitudinal plane; ``--epoch-plan`` picks the evolution recipe)
through a fresh artifact cache and records per-epoch wall times and
cache hit/miss deltas in the bench JSON's ``epoch_series`` section —
the first-epoch vs steady-state epoch cost.  Two gates fail the run:
epoch 0 must reproduce the single-shot digests bit-for-bit, and every
later epoch must be served at least partly from the cache (the epoch
fingerprints must reuse unchanged artifact kinds).

All timings come from the :mod:`repro.obs` tracer (the same spans the
run manifest exports), not ad-hoc stopwatch dicts.  Before overwriting
``--out``, the script compares the fresh stage times against the
committed file and warns on any stage that regressed by more than
20%; the committed file's ``trajectory`` (one entry per code
fingerprint) is carried forward and extended, so the bench records the
repo's performance history alongside its current numbers.
``--trace-out``/``--metrics-out``/``--events-out`` export the first
run's instrumentation, as in ``repro-experiments``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

from repro.analysis.dataset import DatasetBuilder
from repro.analysis.wan import WanAnalysis, WanConfig
from repro.artifacts import ArtifactStore
from repro.artifacts.keys import code_fingerprint
from repro.capture.generator import CaptureConfig
from repro.experiments.context import ExperimentContext
from repro.flags import set_chunk_size
from repro.obs import Observability
from repro.sim import fork_pool_available, set_rng_observer
from repro.world import World, WorldConfig

#: A stage must slow down by more than this (vs the committed bench)
#: before the script warns about it.
REGRESSION_THRESHOLD = 0.20

#: Domain-count tiers: the committed seed bench, a mid tier for CI
#: speedup gates, and the paper's full top-1M crawl.  Each tier keeps
#: its own bench file (and therefore its own trajectory history), and
#: scales the campus capture with the crawl — the seed tier must keep
#: the CaptureConfig defaults (1500 clients, 28k flows) so the
#: committed seed digests stay bit-identical.
SCALES = {
    "seed": {
        "domains": 2_500, "out": "BENCH_pipeline.json", "capture": {},
    },
    "mid": {
        "domains": 100_000, "out": "BENCH_pipeline_mid.json",
        "capture": {
            "num_clients": 150_000,
            "total_flows": 120_000,
            "total_bytes": 6_000_000_000,
        },
    },
    "paper": {
        "domains": 1_000_000, "out": "BENCH_pipeline_paper.json",
        "capture": {
            # The paper's capture: 1.4 TB of border traffic from a
            # campus population of millions of clients.
            "num_clients": 2_000_000,
            "total_flows": 250_000,
            "total_bytes": 1_400_000_000_000,
        },
    },
}


def _rss_sample() -> tuple:
    """``(VmRSS, VmHWM)`` in KiB from ``/proc/self/status``.

    ``VmRSS`` is the *current* resident set, so per-stage before/after
    deltas attribute memory to the stage that allocated (or released)
    it; ``VmHWM`` is the process-lifetime high-water mark — the number
    a memory budget gates on.  ``ru_maxrss`` alone cannot do the former
    job: it is monotone, so sampling it after each stage makes every
    stage after the peak echo the same number.  Where ``/proc`` is
    unavailable (macOS), both fields fall back to ``ru_maxrss`` and
    the deltas degrade to high-water increments.
    """
    try:
        with open("/proc/self/status") as fh:
            rss = hwm = None
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith("VmHWM:"):
                    hwm = int(line.split()[1])
        if rss is not None and hwm is not None:
            return rss, hwm
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return peak, peak


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _dataset_digests(dataset) -> dict:
    records = sorted(
        (
            record.fqdn,
            record.domain,
            record.rank,
            tuple(sorted(str(a) for a in record.addresses)),
            tuple(sorted(record.cnames)),
            tuple(sorted(record.ns_names)),
            record.lookups,
        )
        for record in dataset.records
    )
    return {
        "records": _digest(records),
        "ns_addresses": _digest(
            sorted((k, str(v)) for k, v in dataset.ns_addresses.items())
        ),
    }


def _wan_digests(wan: WanAnalysis) -> dict:
    wan._measure()
    return {
        "wan_latency": _digest(
            sorted((k, tuple(v)) for k, v in wan._latency.items())
        ),
        "wan_throughput": _digest(
            sorted((k, tuple(v)) for k, v in wan._throughput.items())
        ),
    }


def _trace_digest(trace) -> dict:
    # len()/total_bytes() are column reductions on a ColumnarTrace and
    # running totals on a streaming summary; the values (and so the
    # digest) are identical, without materializing row objects.
    return {"trace": _digest((len(trace), trace.total_bytes()))}


def _isp_digest(isp: dict) -> dict:
    return {
        "isp_diversity": _digest(
            sorted(
                (
                    region,
                    tuple(sorted(info["per_zone"].items())),
                    info["region_total"],
                    info["top_isp_route_share"],
                )
                for region, info in isp.items()
            )
        )
    }


def run_once(
    seed: int, domains: int, wan_rounds: int, workers: int,
    collect_events: bool = False, capture: CaptureConfig = None,
) -> dict:
    """One full pipeline run: tracer-derived stage timings plus output
    digests (and the run's :class:`~repro.obs.Observability` plane).

    The streaming data plane needs ``fork``; without it the run builds
    a full world and trace instead, with bit-identical outputs.  A live
    event sink changes nothing either: the streaming paths produce the
    batch event log byte for byte."""
    obs = Observability.collecting(events=collect_events)
    tracer = obs.tracer
    previous_observer = obs.install_rng_counter()
    use_stream = fork_pool_available()
    config = WorldConfig(
        seed=seed, num_domains=domains,
        capture=capture if capture is not None else CaptureConfig(),
    )
    rss = {}

    def stage(name):
        return _StageRss(tracer, name, rss)

    try:
        with stage("world"):
            world = World(config, defer_tenants=use_stream)

        with stage("dataset"):
            builder = DatasetBuilder(world, obs=obs)
            dataset = builder.build(workers=workers)

        with stage("capture"):
            # The streaming summary and the batch trace answer the same
            # digest probes (len / total_bytes) with identical values;
            # only the peak memory differs.
            if use_stream:
                trace = world.capture_summary(workers=workers, obs=obs)
            else:
                trace = world.capture_trace()

        wan = WanAnalysis(
            world, WanConfig(rounds=wan_rounds, workers=workers),
            obs=obs,
        )
        with stage("wan"):
            wan._measure()

        with stage("traceroute"):
            isp = wan.isp_diversity()
    finally:
        set_rng_observer(previous_observer)

    timings = {
        f"{name}_s": seconds
        for name, seconds in tracer.seconds_by_name("stage").items()
    }
    timings["total_s"] = sum(timings.values())

    digests = {}
    digests.update(_dataset_digests(dataset))
    digests.update(_wan_digests(wan))
    digests.update(_trace_digest(trace))
    digests.update(_isp_digest(isp))
    _, high_water = _rss_sample()
    return {
        "timings": timings,
        "dataset_steps": tracer.seconds_by_name("dataset-step"),
        "campaigns": tracer.seconds_by_name("campaign"),
        "digests": digests,
        "rss_kib": {"stages": rss, "high_water_kib": high_water},
        "streaming": use_stream,
        "obs": obs,
    }


def _injected_stage_delay(name: str) -> float:
    """Fault injection for the regression-sentinel smoke test.

    ``REPRO_PROFILE_STAGE_DELAY="dataset:0.8,wan:0.2"`` sleeps the
    given seconds inside each named stage's tracer span — the recorded
    wall clock slows, every output byte (and digest) stays identical.
    """
    spec = os.environ.get("REPRO_PROFILE_STAGE_DELAY", "")
    for part in spec.split(","):
        stage, _, seconds = part.strip().partition(":")
        if stage == name:
            try:
                return max(0.0, float(seconds))
            except ValueError:
                return 0.0
    return 0.0


class _StageRss:
    """Context manager pairing a stage tracer span with RSS sampling.

    Records ``{"end_kib", "delta_kib"}`` per stage — the resident set
    after the stage and how much the stage grew (or, negative, shrank)
    it.  The process high-water mark is reported once per run, not per
    stage: ``VmHWM`` is monotone, so per-stage copies would just echo
    the peak (the bug this layout replaces).
    """

    def __init__(self, tracer, name: str, into: dict):
        self._tracer = tracer
        self._name = name
        self._into = into

    def __enter__(self):
        self._before, _ = _rss_sample()
        self._span = self._tracer.span(self._name, category="stage")
        self._span.__enter__()
        return self

    def __exit__(self, *exc):
        delay = _injected_stage_delay(self._name)
        if delay:
            time.sleep(delay)
        result = self._span.__exit__(*exc)
        end, _ = _rss_sample()
        self._into[self._name] = {
            "end_kib": end, "delta_kib": end - self._before,
        }
        return result


def run_cached(
    seed: int, domains: int, wan_rounds: int, workers: int, cache_dir: str
) -> dict:
    """One pipeline run through the artifact cache."""
    store = ArtifactStore(cache_dir)
    context = ExperimentContext(
        WorldConfig(seed=seed, num_domains=domains),
        WanConfig(rounds=wan_rounds, workers=workers),
        workers=workers,
        artifact_store=store,
    )
    start = time.perf_counter()
    digests = {}
    digests.update(_dataset_digests(context.dataset))
    wan = context.wan
    digests.update(_wan_digests(wan))
    digests.update(_trace_digest(context.trace))
    # The traceroute sweep is not a cached product; on a warm run it
    # is what materializes the world and runs the queued restores —
    # exercising the pure-accelerator rule end to end.
    digests.update(_isp_digest(wan.isp_diversity()))
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": round(elapsed, 3),
        "stats": store.stats.as_dict(),
        "digests": digests,
    }


def cache_check(args, expected_digests: dict) -> dict:
    """Cold-vs-warm artifact-cache runs; both must match the uncached
    digests and the warm run must be served without a single miss."""
    cache_dir = args.cache_dir or tempfile.mkdtemp(
        prefix="repro-artifacts-bench-"
    )
    cleanup = args.cache_dir is None
    try:
        result = {"dir": None if cleanup else cache_dir}
        for label in ("cold", "warm"):
            run = run_cached(
                args.seed, args.domains, args.wan_rounds, args.workers,
                cache_dir,
            )
            result[f"{label}_s"] = run["elapsed_s"]
            result[f"{label}_stats"] = run["stats"]
            if run["digests"] != expected_digests:
                raise SystemExit(
                    f"{label} artifact-cache run diverged from the "
                    f"uncached pipeline: {run['digests']} vs "
                    f"{expected_digests}"
                )
        if result["warm_stats"]["misses"]:
            raise SystemExit(
                "warm artifact-cache run was not fully served from the "
                f"cache: {result['warm_stats']}"
            )
        result["outputs_identical"] = True
        return result
    finally:
        if cleanup:
            shutil.rmtree(cache_dir, ignore_errors=True)


def run_epoch_series(
    seed: int, domains: int, wan_rounds: int, workers: int,
    epochs: int, plan_name: str, cache_dir: str, capture=None,
) -> dict:
    """An N-epoch incremental series through one artifact cache.

    Epoch 0 carries no fingerprint components, so its artifact keys —
    and therefore its digests — are exactly the single-shot
    pipeline's.  Each later epoch rebuilds only the artifact kinds its
    plan's steps diffed and is served the rest (the WAN matrices,
    under every bundled plan) from the store; the per-epoch cache
    deltas record that split.
    """
    from repro.epochs import Epoch, resolve_epoch_plan

    plan = resolve_epoch_plan(plan_name)
    store = ArtifactStore(cache_dir)
    world_config = WorldConfig(
        seed=seed, num_domains=domains,
        capture=capture if capture is not None else CaptureConfig(),
    )
    wan_config = WanConfig(rounds=wan_rounds, workers=workers)
    per_epoch = []
    epoch0_digests = None
    for index in range(epochs):
        before = store.stats.as_dict()
        epoch = Epoch(plan, index, world_config)
        context = ExperimentContext(
            world_config, wan_config, workers=workers,
            artifact_store=store, epoch=epoch,
        )
        start = time.perf_counter()
        digests = {}
        digests.update(_dataset_digests(context.dataset))
        wan = context.wan
        digests.update(_wan_digests(wan))
        digests.update(_trace_digest(context.trace))
        digests.update(_isp_digest(wan.isp_diversity()))
        elapsed = time.perf_counter() - start
        after = store.stats.as_dict()
        if index == 0:
            epoch0_digests = digests
        per_epoch.append({
            "epoch": index,
            "elapsed_s": round(elapsed, 3),
            "cache": {
                name: after[name] - before[name] for name in after
            },
        })
    return {
        "plan": plan.name,
        "epochs": epochs,
        "per_epoch": per_epoch,
        "epoch0_digests": epoch0_digests,
    }


def epoch_series_check(args, expected_digests: dict, capture) -> dict:
    """``--epochs``: run the incremental series and gate on (a) epoch 0
    reproducing the single-shot digests and (b) every later epoch being
    served at least partly from the artifact cache."""
    cache_dir = tempfile.mkdtemp(prefix="repro-epochs-bench-")
    try:
        series = run_epoch_series(
            args.seed, args.domains, args.wan_rounds, args.workers,
            args.epochs, args.epoch_plan, cache_dir, capture=capture,
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if series["epoch0_digests"] != expected_digests:
        raise SystemExit(
            "epoch 0 diverged from the single-shot pipeline: "
            f"{series['epoch0_digests']} vs {expected_digests}"
        )
    stale = [
        entry["epoch"] for entry in series["per_epoch"][1:]
        if entry["cache"]["hits"] <= 0
    ]
    if stale:
        raise SystemExit(
            f"epochs {stale} re-ran without a single artifact-cache "
            "hit — the epoch fingerprints are not reusing unchanged "
            "artifact kinds"
        )
    series["outputs_identical"] = True
    series["first_epoch_s"] = series["per_epoch"][0]["elapsed_s"]
    if len(series["per_epoch"]) > 1:
        series["steady_state_epoch_s"] = round(
            sum(e["elapsed_s"] for e in series["per_epoch"][1:])
            / (len(series["per_epoch"]) - 1),
            3,
        )
    return series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="seed",
        help="domain-count tier: seed=2.5k (committed bench), mid=100k, "
             "paper=1M; picks a matching default --out",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--domains", type=int, default=None,
        help="override the tier's domain count",
    )
    parser.add_argument("--wan-rounds", type=int, default=24)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="forked workers for the dataset shards and the WAN rounds "
             "(0 = sequential; results identical)",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="override the tier's capture client population",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="domain ranks materialized per streaming chunk "
             "(default: REPRO_CHUNK_SIZE or the built-in default; "
             "output bytes are chunk-size-invariant)",
    )
    parser.add_argument(
        "--max-rss-mib", type=int, default=None,
        help="fail if the process's peak RSS (VmHWM, covering every "
             "run in this invocation) exceeds this budget",
    )
    parser.add_argument(
        "--verify-workers", default=None, metavar="W1,W2,...",
        help="re-run the pipeline at each worker count and fail unless "
             "all digests agree",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="full pipeline runs; per-stage times are the best of K",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact-cache directory for the cold/warm check "
             "(default: a throwaway temp dir)",
    )
    parser.add_argument(
        "--no-cache-check", action="store_true",
        help="skip the cold-vs-warm artifact-cache runs",
    )
    parser.add_argument(
        "--epochs", type=int, default=None, metavar="N",
        help="also run an N-epoch incremental series through a fresh "
             "artifact cache and record per-epoch timings and cache "
             "deltas; gates on epoch 0 reproducing the single-shot "
             "digests and later epochs hitting the cache",
    )
    parser.add_argument(
        "--epoch-plan", default="steady-growth", metavar="NAME",
        help="named epoch plan for --epochs (see repro.epochs.plan)",
    )
    parser.add_argument(
        "--out", default=None,
        help="bench JSON file (default: the tier's file, e.g. "
             "BENCH_pipeline.json for --scale seed)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="earlier BENCH_pipeline.json to compute a speedup against "
             "(run this script on the pre-optimisation revision first)",
    )
    parser.add_argument(
        "--require-baseline-identical", action="store_true",
        help="fail unless the baseline file's digests match this run's "
             "(the sequential-vs-sharded CI gate)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the first run's span tree as Chrome trace_event "
             "JSON",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the first run's metrics as Prometheus text "
             "exposition",
    )
    parser.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="write the first run's probe-level NDJSON event log",
    )
    args = parser.parse_args()
    if args.domains is None:
        args.domains = SCALES[args.scale]["domains"]
    if args.out is None:
        args.out = SCALES[args.scale]["out"]
    if args.epochs is not None and args.epochs < 1:
        parser.error("--epochs needs at least 1 epoch")

    collect_events = bool(args.events_out)
    capture_kwargs = dict(SCALES[args.scale].get("capture", {}))
    if args.clients is not None:
        capture_kwargs["num_clients"] = args.clients
    capture = CaptureConfig(**capture_kwargs)
    if args.chunk_size is not None:
        set_chunk_size(args.chunk_size)
    runs = [
        run_once(
            args.seed, args.domains, args.wan_rounds, args.workers,
            collect_events=collect_events, capture=capture,
        )
        for _ in range(args.repeat)
    ]
    digests = runs[0]["digests"]
    for run in runs[1:]:
        if run["digests"] != digests:
            raise SystemExit(
                "digest mismatch across repeats — outputs are not "
                f"deterministic: {runs[0]['digests']} vs {run['digests']}"
            )
    best = {
        key: round(min(run["timings"][key] for run in runs), 3)
        for key in runs[0]["timings"]
    }
    dataset_steps = {
        key: round(min(run["dataset_steps"][key] for run in runs), 3)
        for key in runs[0]["dataset_steps"]
    }
    campaigns = {
        key: round(min(run["campaigns"][key] for run in runs), 3)
        for key in runs[0]["campaigns"]
    }

    committed = None
    if os.path.exists(args.out):
        try:
            with open(args.out) as fh:
                committed = json.load(fh)
        except (OSError, ValueError):
            committed = None
    if committed is not None:
        for stage, seconds in best.items():
            base = committed.get("timings_s", {}).get(stage)
            if (
                base
                and seconds > base * (1 + REGRESSION_THRESHOLD)
            ):
                print(
                    f"warning: stage {stage} regressed "
                    f"{100 * (seconds / base - 1):.0f}% vs committed "
                    f"{args.out} ({seconds:.3f}s vs {base:.3f}s)",
                    file=sys.stderr,
                )

    # The bench's performance history: one entry per code fingerprint,
    # carried forward from the committed file so re-profiling the same
    # revision refreshes its entry instead of appending a duplicate.
    trajectory = (
        list(committed.get("trajectory", []))
        if committed is not None else []
    )
    entry = {
        "fingerprint": code_fingerprint()[:12],
        "scale": args.scale,
        "timings_s": best,
        "rss_high_water_kib": runs[0]["rss_kib"]["high_water_kib"],
        # Wall-clock stamp for the telemetry timeline: trajectory
        # entries order by it (older, pre-stamp entries fall back to
        # the bench file's mtime).
        "recorded_unix": round(time.time(), 3),
    }
    if (
        trajectory
        and trajectory[-1].get("fingerprint") == entry["fingerprint"]
    ):
        trajectory[-1] = entry
    else:
        trajectory.append(entry)

    report = {
        "bench": {
            "scale": args.scale,
            "seed": args.seed,
            "domains": args.domains,
            "wan_rounds": args.wan_rounds,
            "workers": args.workers,
            "repeat": args.repeat,
            # The columnar plane has no switch; the field stays because
            # the timeline series key (repro.obs.timeline) includes it.
            "columnar": True,
            "streaming": runs[0]["streaming"],
            "capture_clients": capture.num_clients,
            "capture_flows": capture.total_flows,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "timings_s": best,
        "dataset_steps_s": dataset_steps,
        "campaigns_s": campaigns,
        "rss_kib": runs[0]["rss_kib"],
        "digests": digests,
        "trajectory": trajectory,
    }

    if args.verify_workers:
        counts = [int(part) for part in args.verify_workers.split(",")]
        for count in counts:
            if count == args.workers:
                continue
            other = run_once(
                args.seed, args.domains, args.wan_rounds, count,
                collect_events=collect_events, capture=capture,
            )
            if other["digests"] != digests:
                raise SystemExit(
                    f"digest mismatch at workers={count}: "
                    f"{other['digests']} vs {digests}"
                )
            if collect_events:
                # The event log must be byte-identical too — sharded
                # runs log in the same deterministic grid order.
                if (other["obs"].events.to_ndjson()
                        != runs[0]["obs"].events.to_ndjson()):
                    raise SystemExit(
                        f"event-log mismatch at workers={count}"
                    )
        report["workers_verified"] = counts

    if not args.no_cache_check:
        report["artifact_cache"] = cache_check(args, digests)

    if args.epochs is not None:
        report["epoch_series"] = epoch_series_check(
            args, digests, capture
        )

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        report["baseline_timings_s"] = baseline["timings_s"]
        report["speedup"] = round(
            baseline["timings_s"]["total_s"] / best["total_s"], 2
        )
        identical = baseline.get("digests") == digests
        report["baseline_outputs_identical"] = identical
        if args.require_baseline_identical and not identical:
            raise SystemExit(
                "baseline digests differ from this run's: "
                f"{baseline.get('digests')} vs {digests}"
            )
    out_parent = os.path.dirname(args.out)
    if out_parent:
        os.makedirs(out_parent, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.out}")

    first = runs[0]["obs"]
    if args.trace_out:
        first.tracer.write_chrome(args.trace_out)
        print(f"wrote trace {args.trace_out}")
    if args.metrics_out:
        metrics_parent = os.path.dirname(args.metrics_out)
        if metrics_parent:
            os.makedirs(metrics_parent, exist_ok=True)
        with open(args.metrics_out, "w") as fh:
            fh.write(first.metrics.render_prometheus())
        print(f"wrote metrics {args.metrics_out}")
    if args.events_out:
        first.events.write(args.events_out)
        print(f"wrote events {args.events_out}")

    if args.max_rss_mib is not None:
        # Gate on the process-lifetime high-water mark sampled *now*,
        # so every run this invocation made (repeats, worker
        # verification) counts against the budget.
        # The bench JSON is already on disk for CI artifact upload.
        _, high_water_kib = _rss_sample()
        budget_kib = args.max_rss_mib * 1024
        if high_water_kib > budget_kib:
            raise SystemExit(
                f"peak RSS {high_water_kib / 1024:.0f} MiB exceeds the "
                f"--max-rss-mib budget of {args.max_rss_mib} MiB"
            )
        print(
            f"peak RSS {high_water_kib / 1024:.0f} MiB within the "
            f"{args.max_rss_mib} MiB budget"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
