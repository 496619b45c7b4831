"""Per-layer spans recorded from outside the program.

The benchmark installs wrappers around the public entry points of each
layer — patched on the class, or on every module that imported the
function by name, which is where the caller looks it up — and records a
span per call: name, start, end, the enclosing span on the same thread.
Counts are taken at the same boundaries.  Nothing under ``src/`` is
changed.

A span's *self time* is its duration minus the time its direct child
spans cover.  Spans on one thread nest strictly, so that is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Route segments the service API dispatches on (first path segment;
#: an empty path is ``health``).  Every one gets a
#: ``service.api.handle_s.<route>`` metric, zero when not requested.
SERVICE_ROUTES = (
    "health", "runs", "series", "compare", "metrics", "timeline",
    "dashboard", "jobs", "scan",
)

#: Probe kinds the manifest's ``probes_total`` family reports.
PROBE_KINDS = ("dns-lookup", "http-get", "tcp-ping", "traceroute")

VERDICTS = ("match", "drift", "divergent", "missing", "info")

#: Layer prefix of each span name, for the per-layer self-time totals.
LAYERS = (
    "world", "fanout", "dataset", "capture", "campaign", "wan",
    "artifacts", "experiments", "service.api", "service.repository",
    "service.jobs", "obs",
)


class Recorder:
    """In-memory spans and counters, written out when the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, thread]
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else None, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def dump(self) -> dict:
        """Spans (an open span has end ``None``) and counters,
        JSON-ready."""
        with self._lock:
            return {
                "spans": [list(span) for span in self.spans],
                "counters": dict(self.counters),
            }


def _wrap(recorder: Recorder, original: Callable, name_of, after=None,
          when=None):
    """``original`` inside a span; ``name_of(args)`` names it, ``after``
    sees ``(args, result)``, ``when(args)`` false skips the span."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if when is not None and not when(args):
            return original(*args, **kwargs)
        index = recorder.begin(name_of(args, kwargs))
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.perfbench_wrapped = True
    return wrapper


def _fixed(name: str):
    return lambda args, kwargs: name


def _route(args, kwargs) -> str:
    # ServiceAPI.handle(self, method, path, ...)
    path = args[2].split("?", 1)[0]
    segments = [part for part in path.split("/") if part]
    return "service.api.handle." + (segments[0] if segments else "health")


def install(recorder: Recorder) -> None:
    """Patch every layer entry point for the life of the process."""

    def method(owner, attr, name_of, after=None, when=None):
        original = getattr(owner, attr)
        if getattr(original, "perfbench_wrapped", False):
            # Imported by name after its home module was patched.
            return
        setattr(owner, attr,
                _wrap(recorder, original, name_of, after, when))

    count = recorder.count

    # -- repro.world ---------------------------------------------------
    from repro.world import World

    method(World, "__init__", _fixed("world.init"))

    def after_deploy(args, kwargs, result):
        count("world.deploy_calls")
        count("world.domains_deployed", len(result))

    method(World, "ensure_deployed_through", _fixed("world.deploy"),
           after_deploy)
    method(World, "release_window", _fixed("world.release"))
    method(World, "finalize_tenants", _fixed("world.release"))

    # -- repro.campaign.fanout (imported by name into its callers) ------
    def after_fork(args, kwargs, result):
        count("fanout.fork_map_calls")
        count("fanout.tasks", len(result))

    for module in ("repro.campaign.fanout", "repro.campaign.engine",
                   "repro.analysis.shards", "repro.analysis.streambuild",
                   "repro.capture.streaming"):
        method(importlib.import_module(module), "fork_map",
               _fixed("fanout.fork_map"), after_fork)

    # -- repro.analysis.dataset / streambuild / shards -------------------
    from repro.analysis.dataset import DatasetBuilder

    def after_build(args, kwargs, result):
        count("dataset.records", len(result.records))
        count("dataset.subdomains", result.total_discovered_subdomains)

    method(DatasetBuilder, "build", _fixed("dataset.build"), after_build)
    method(DatasetBuilder, "resolve_ns_hostnames",
           _fixed("dataset.resolve_ns"))
    for module in ("repro.analysis.shards", "repro.analysis.streambuild"):
        method(importlib.import_module(module), "replay_shared_rotations",
               _fixed("dataset.replay"))

    # -- repro.capture -------------------------------------------------
    def after_capture(args, kwargs, result):
        count("capture.flows", len(result))
        count("capture.bytes", result.total_bytes())

    method(World, "capture_summary", _fixed("capture.summary"),
           after_capture)

    # -- repro.campaign.engine / repro.analysis.wan ----------------------
    from repro.analysis.wan import WanAnalysis
    from repro.campaign.engine import CampaignEngine
    import repro.columnar.wan as columnar_wan

    def after_campaign(args, kwargs, result):
        count("campaign.records", len(result.records))
        count("campaign.observed",
              sum(1 for record in result.records if record.observed))

    # Traceroute sweeps run one campaign per region ("traceroute:<region>").
    method(CampaignEngine, "run",
           lambda args, kwargs: "campaign.run." + args[1].name.split(":")[0],
           after_campaign)
    # The default (columnar) WAN fill replaces the engine's grid run.
    method(columnar_wan, "measure_columnar",
           _fixed("campaign.run.wan-measure"))
    method(WanAnalysis, "_measure", _fixed("wan.measure"),
           when=lambda args: args[0]._latency is None)
    method(WanAnalysis, "isp_diversity", _fixed("wan.isp_diversity"))

    # -- repro.artifacts -----------------------------------------------
    from repro.artifacts.store import ArtifactStore

    def after_load(args, kwargs, result):
        if result is None:
            count("artifacts.misses")
            return
        count("artifacts.hits")
        store, kind, key = args[0], args[1], args[2]
        count("artifacts.bytes_read", store.path_for(kind, key).stat().st_size)

    def after_store(args, kwargs, result):
        count("artifacts.stores")

    method(ArtifactStore, "load", _fixed("artifacts.load"), after_load)
    method(ArtifactStore, "store", _fixed("artifacts.store"), after_store)

    # -- repro.experiments ---------------------------------------------
    from repro.experiments.context import ExperimentContext
    from repro.experiments.manifest import RunManifest
    from repro.experiments.spec import ExperimentSpec
    import repro.experiments.fidelity as fidelity

    world_property = ExperimentContext.__dict__["world"]
    ExperimentContext.world = property(_wrap(
        recorder, world_property.fget,
        _fixed("experiments.context.world"),
        when=lambda args: args[0]._world is None,
    ))

    def after_experiment(args, kwargs, result):
        if result.fidelity is not None:
            for verdict in result.fidelity.verdicts:
                count("experiments.verdicts." + verdict.verdict)

    method(ExperimentSpec, "run",
           lambda args, kwargs: "experiments.run." + args[0].experiment_id,
           after_experiment)
    method(fidelity, "score_experiment", _fixed("experiments.fidelity"))

    def after_manifest(args, kwargs, result):
        for name, value in args[0].metrics.get("counters", {}).items():
            kind = _probe_kind(name)
            if kind is not None:
                count("experiments.probes_total." + kind, value)

    method(RunManifest, "write", _fixed("experiments.manifest_write"),
           after_manifest)

    # -- repro.service -------------------------------------------------
    from repro.service.api import ServiceAPI
    from repro.service.jobs import JobRecord, Scheduler
    from repro.service.repository import RunRepository

    method(ServiceAPI, "handle", _route)
    for attr in ("runs", "get_run", "load_run"):
        method(RunRepository, attr, _fixed("service.repository.query"))
    method(RunRepository, "scan", _fixed("service.repository.scan"))
    method(Scheduler, "claim_next", _fixed("service.jobs.claim"),
           lambda args, kwargs, result: count("service.jobs.claim_calls"))

    def after_execute(args, kwargs, result):
        count("service.jobs.queue_wait_s",
              result.started_at - result.created_at)

    method(Scheduler, "execute", _fixed("service.jobs.execute"),
           after_execute)
    from_dict = JobRecord.__dict__["from_dict"].__func__

    def counted_from_dict(cls, payload):
        count("service.jobs.files_parsed")
        return from_dict(cls, payload)

    JobRecord.from_dict = classmethod(counted_from_dict)

    # -- repro.obs -----------------------------------------------------
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeline import TimelineStore

    for attr in ("record_run", "record_bench"):
        method(TimelineStore, attr, _fixed("obs.timeline.append"))
    method(MetricsRegistry, "render_prometheus", _fixed("obs.metrics.render"))


def _probe_kind(counter_name: str) -> Optional[str]:
    """``probes_total{kind="dns-lookup"}`` → ``dns-lookup``."""
    if not counter_name.startswith("probes_total{"):
        return None
    for kind in PROBE_KINDS:
        if f'kind="{kind}"' in counter_name:
            return kind
    return None


def span_table(spans: List[list]) -> Dict[str, dict]:
    """Per span name: total seconds, self seconds, and calls of the
    closed spans."""
    children_s: Dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _thread in spans:
        if parent is not None and end is not None:
            children_s[parent] += end - start
    table: Dict[str, dict] = {}
    for index, (name, start, end, _parent, _thread) in enumerate(spans):
        if end is None:
            continue
        row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += end - start
        row["self_s"] += end - start - children_s.get(index, 0.0)
        row["calls"] += 1
    return table


def covered_seconds(spans: List[list], lo: float, hi: float) -> float:
    """Length of the union of span intervals clipped to ``[lo, hi]``."""
    intervals = sorted(
        (max(span[1], lo), min(span[2], hi)) for span in spans
        if span[3] is None and span[2] is not None
        and span[2] > lo and span[1] < hi
    )
    covered, reach = 0.0, lo
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def snapshot(dump: dict, lo: float, hi: float) -> dict:
    """Span table, counters, and the seconds of ``[lo, hi]`` that root
    spans cover, from a :meth:`Recorder.dump`.  ``perf_counter`` reads
    the system-wide monotonic clock, so a window taken in one process
    clips spans recorded in another."""
    return {
        "spans": span_table(dump["spans"]),
        "counters": dump["counters"],
        "covered_s": covered_seconds(dump["spans"], lo, hi),
    }


def layer_metrics(snap: dict, wall_s: float, overhead_s: float,
                  experiment_ids: List[str]) -> Dict[str, float]:
    """The per-layer metric set every traced run reports.

    Every name is always present; a layer the workload does not reach
    reports zero calls and zero seconds.
    """
    spans, counters = snap["spans"], snap["counters"]

    def seconds(name: str) -> float:
        return spans.get(name, {}).get("s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    metrics: Dict[str, float] = {
        "world.init_s": seconds("world.init"),
        "world.deploy_s": seconds("world.deploy"),
        "world.deploy_calls": counters.get("world.deploy_calls", 0),
        "world.domains_deployed": counters.get("world.domains_deployed", 0),
        "world.release_s": seconds("world.release"),
        "fanout.fork_map_s": seconds("fanout.fork_map"),
        "fanout.fork_map_calls": counters.get("fanout.fork_map_calls", 0),
        "fanout.tasks": counters.get("fanout.tasks", 0),
        "dataset.build_s": seconds("dataset.build"),
        "dataset.resolve_ns_s": seconds("dataset.resolve_ns"),
        "dataset.replay_s": seconds("dataset.replay"),
        "dataset.self_s": self_s("dataset.build"),
        "dataset.records": counters.get("dataset.records", 0),
        "dataset.subdomains": counters.get("dataset.subdomains", 0),
        "capture.summary_s": seconds("capture.summary"),
        "capture.flows": counters.get("capture.flows", 0),
        "capture.bytes": counters.get("capture.bytes", 0),
        "campaign.run_s.wan-measure": seconds("campaign.run.wan-measure"),
        "campaign.run_s.traceroute": seconds("campaign.run.traceroute"),
        "campaign.records": counters.get("campaign.records", 0),
        "wan.measure_s": seconds("wan.measure"),
        "wan.isp_diversity_s": seconds("wan.isp_diversity"),
        "artifacts.load_s": seconds("artifacts.load"),
        "artifacts.hits": counters.get("artifacts.hits", 0),
        "artifacts.misses": counters.get("artifacts.misses", 0),
        "artifacts.bytes_read": counters.get("artifacts.bytes_read", 0),
        "artifacts.store_s": seconds("artifacts.store"),
        "artifacts.stores": counters.get("artifacts.stores", 0),
        "experiments.context.world_s": seconds("experiments.context.world"),
        "experiments.fidelity_s": seconds("experiments.fidelity"),
        "experiments.manifest_write_s":
            seconds("experiments.manifest_write"),
        "service.repository.query_s": seconds("service.repository.query"),
        "service.repository.scan_s": seconds("service.repository.scan"),
        "service.jobs.claim_s": seconds("service.jobs.claim"),
        "service.jobs.claim_calls":
            counters.get("service.jobs.claim_calls", 0),
        "service.jobs.files_parsed":
            counters.get("service.jobs.files_parsed", 0),
        "service.jobs.execute_s": seconds("service.jobs.execute"),
        "service.jobs.queue_wait_s":
            counters.get("service.jobs.queue_wait_s", 0.0),
        "obs.timeline.append_s": seconds("obs.timeline.append"),
        "obs.metrics.render_s": seconds("obs.metrics.render"),
    }
    records = counters.get("campaign.records", 0)
    metrics["campaign.observed_ratio"] = (
        counters.get("campaign.observed", 0) / records if records else 0.0
    )
    for experiment_id in experiment_ids:
        metrics[f"experiments.run_s.{experiment_id}"] = seconds(
            "experiments.run." + experiment_id
        )
    for verdict in VERDICTS:
        metrics[f"experiments.verdicts.{verdict}"] = counters.get(
            "experiments.verdicts." + verdict, 0
        )
    for kind in PROBE_KINDS:
        metrics[f"experiments.probes_total.{kind}"] = counters.get(
            "experiments.probes_total." + kind, 0
        )
    for route in SERVICE_ROUTES:
        metrics[f"service.api.handle_s.{route}"] = seconds(
            "service.api.handle." + route
        )
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = sum(
            row["self_s"] for name, row in spans.items()
            if name.startswith(layer + ".")
        )
    metrics["trace.wall_s"] = wall_s
    metrics["trace.covered_share"] = (
        snap["covered_s"] / wall_s if wall_s > 0 else 0.0
    )
    metrics["trace.overhead_s"] = overhead_s
    return metrics
