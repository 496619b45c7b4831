"""Slice workers and the rotation replay behind the forked §2.1 build.

The fan-out driver (:func:`repro.analysis.streambuild.build_fanout`)
cuts the ranked domain list into contiguous rank slices; each slice
runs the full enumerate → filter → distributed-lookups → NS-dig
pipeline in a forked worker (:func:`_build_shard`) against a
copy-on-write view of the world (the same worker discipline as the
parallel WAN campaign: nothing heavy is pickled, closures never cross
the process boundary).  This module holds the worker body and the
pieces the driver reconciles with.

What makes naive slicing wrong is rotation state.  Dynamic DNS names
answer from a monotonically increasing per-name query counter, and one
of them — ``proxy.heroku.com``-style shared proxies — is reachable from
*many* tenant domains, so its counter interleaves queries across
slices.  The fix has three parts:

1. before forking, a static reverse-CNAME alias-graph analysis
   (:meth:`DnsInfrastructure.cross_chunk_dynamic_names`) flags every
   dynamic name whose rotation could be shared by two slices;
2. workers detect digs that terminated on a flagged name (possible
   post-hoc: dynamic answers are alias-graph terminals, so a response's
   addresses are either entirely static or entirely the terminal's),
   exclude those answers from their outputs, and log a compact
   :class:`ShardLogEntry` descriptor instead (:class:`ShardRecorder`);
3. the parent replays the logged queries against the real answer
   functions in exact sequential global order — phase-major, then slice
   order, then per-slice sequence — with query indices seeded from its
   own counters, patching the merged records and exported cache entries
   with the replayed answers (:func:`replay_shared_rotations`).

Names reachable from at most one tenant domain need none of this: the
owning tenant lives in exactly one slice, so the worker's locally
observed rotation already matches the sequential one, and the parent
only has to advance its counters by the workers' reported deltas.

The NS survey is split: workers do the per-record NS digs (fresh, no
cache or rotation side effects), while the parent resolves the distinct
NS hostnames — that step's first-seen dedup is global, so slice-local
copies would both re-pay and re-side-effect duplicate resolutions.

``tests/test_determinism_caching.py`` holds the forked build to the
in-process one bit for bit — records, discovered map, NS addresses,
dynamic query counters, resolver caches and query counts — for any
worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

# ``fork_map`` is re-exported: perfbench/tracing.py times fan-out by
# patching it on this module as well as on the driver's.
from repro.campaign.fanout import fork_map  # noqa: F401
from repro.campaign.fanout import partition_weighted
from repro.dns.records import DnsResponse, RRType

#: Pipeline phases in sequential execution order; the replay sorts
#: logged descriptors phase-major so cross-shard rotations are assigned
#: the indices sequential execution would have used.
PHASES = ("enumerate", "filter", "lookup", "cloudfront_lookup", "ns_dig")
_PHASE_RANK = {phase: rank for rank, phase in enumerate(PHASES)}


@dataclass(slots=True)
class ShardLogEntry:
    """One worker dig whose answer came from a shared dynamic name.

    ``kind`` says what the replayed answer must patch: a ``"cache"``
    entry the dig wrote, a merged ``"record"``'s address set, or — for
    ``"counter"`` — nothing beyond consuming one query index.
    """

    phase: str
    seq: int
    kind: str
    name: str
    vantage_name: str
    qname: str
    position: int = -1


class ShardRecorder:
    """Collects shared-rotation descriptors inside one shard worker."""

    def __init__(self, shared_names: Set[str]):
        self.shared = shared_names
        self.entries: List[ShardLogEntry] = []
        self.phase: str = PHASES[0]

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def shared_terminal(
        self, qname: str, response: DnsResponse
    ) -> Optional[str]:
        """The shared dynamic name this executed dig terminated on.

        Cache hits never advance rotation state; an executed A dig
        touches a dynamic counter exactly when its chain terminal (or
        the qname itself) is dynamic, since dynamic answers never
        contain CNAMEs.
        """
        if response.from_cache or not self.shared:
            return None
        if response.chain and response.chain[-1] in self.shared:
            return response.chain[-1]
        if qname in self.shared:
            return qname
        return None

    def _log(self, kind: str, name: str, vantage_name: str, qname: str,
             position: int = -1) -> None:
        self.entries.append(
            ShardLogEntry(
                phase=self.phase,
                seq=len(self.entries),
                kind=kind,
                name=name,
                vantage_name=vantage_name,
                qname=qname,
                position=position,
            )
        )

    def note_cached_dig(
        self, vantage_name: str, qname: str, response: DnsResponse
    ) -> None:
        """A non-fresh dig (enumeration or filter) just executed.

        If it rotated a shared name, the addresses it observed — and, if
        it cached, the cache entry it wrote — belong to a query index
        only the merge can assign.  Classification stays local: at full
        range coverage every rotation of a given name classifies
        identically, which is exactly the :meth:`DatasetBuilder.fans_out`
        precondition.
        """
        name = self.shared_terminal(qname, response)
        if name is None:
            return
        if response.exists and response.ttl > 0:
            self._log("cache", name, vantage_name, qname)
        else:
            self._log("counter", name, vantage_name, qname)

    def note_lookup(
        self, position: int, vantage_name: str, qname: str,
        response: DnsResponse,
    ) -> bool:
        """A fresh distributed-lookup dig executed; True when its
        addresses must be withheld for the parent replay."""
        name = self.shared_terminal(qname, response)
        if name is None:
            return False
        self._log("record", name, vantage_name, qname, position)
        return True

    def note_counter_dig(self, qname: str, response: DnsResponse) -> None:
        """A fresh NS dig executed; only the consumed index matters."""
        name = self.shared_terminal(qname, response)
        if name is not None:
            self._log("counter", name, qname, qname)


@dataclass
class ShardResult:
    """Everything one worker sends back for reconciliation."""

    shard_index: int
    discovered: Dict[str, List[str]]
    total: int
    records: list
    cloudfront_records: list
    other_cdn: Dict[str, List[str]]
    ns_name_lists: List[List[str]]
    entries: List[ShardLogEntry]
    #: (zone origin, dynamic name) → how far this shard's queries
    #: advanced the counter.
    counter_deltas: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: vantage name → (query-count delta, cache entries this shard wrote).
    resolver_payload: Dict[str, tuple] = field(default_factory=dict)
    step_timings: Dict[str, float] = field(default_factory=dict)
    #: Probe-level events the shard's engine campaigns emitted, kept
    #: per phase so the parent can merge them phase-major (the order a
    #: sequential build logs them in).  Empty when the sink is off.
    lookup_events: list = field(default_factory=list)
    cloudfront_events: list = field(default_factory=list)
    #: Metrics counter increments this shard's campaigns made
    #: (``MetricsRegistry.take_counter_deltas`` tuples) — a forked
    #: child's registry dies with it, so counts ride back here.
    metric_deltas: list = field(default_factory=list)


def partition_sites(sites, infra, shards: int) -> List[Tuple[int, int]]:
    """Work-balanced contiguous rank slices for a site list.

    Equal-count slices skew badly at paper scale: an AXFR-able domain's
    shard enumerates, filters, and digs every name in its zone, while a
    wordlist-only domain costs a near-constant screening pass — so a
    handful of large zones can serialize the whole fan-out behind one
    worker.  Each site is weighted by its own zone's name count (one
    registry probe, no digs, no side effects), and the cut points come
    from :func:`repro.campaign.fanout.partition_weighted`.  Boundaries
    only affect scheduling — any contiguous partition merges
    bit-identically — so this is pure wall-clock balance.
    """
    weights = []
    for site in sites:
        zone = infra.get_zone(site.domain)
        weights.append(1 + (len(zone.names()) if zone is not None else 0))
    return partition_weighted(weights, shards)


def _build_shard(
    builder,
    bounds: List[Tuple[int, int]],
    shared: Set[str],
    resolver_baselines: Dict[str, tuple],
    counter_baseline: Dict[Tuple[str, str], int],
    shard_index: int,
    export_caches: bool = True,
) -> ShardResult:
    """Worker body: run the pipeline over one contiguous rank slice.

    ``export_caches=False`` (a deferred world's build) skips the
    resolver cache export: the parent drops worker caches by design, so
    shipping them back through the pool would only cost pickling and
    transient memory.  Query-count deltas still ride back.
    """
    lo, hi = bounds[shard_index]
    world = builder.world
    recorder = ShardRecorder(shared)
    builder._recorder = recorder
    timings: Dict[str, float] = {}
    metrics_checkpoint = builder.obs.metrics.counter_checkpoint()

    start = time.perf_counter()
    recorder.set_phase("enumerate")
    discovered, total = builder.discover_subdomains(
        world.alexa.sites[lo:hi], offset=lo
    )
    timings["enumerate_s"] = time.perf_counter() - start

    start = time.perf_counter()
    recorder.set_phase("filter")
    cloud_using, cloudfront_using, other_cdn = builder.filter_cloud_using(
        discovered
    )
    timings["filter_s"] = time.perf_counter() - start

    sink = builder.obs.events
    start = time.perf_counter()
    recorder.set_phase("lookup")
    mark = sink.mark()
    records = builder.distributed_lookups(cloud_using)
    lookup_events = sink.take_since(mark) if sink.enabled else []
    recorder.set_phase("cloudfront_lookup")
    mark = sink.mark()
    cloudfront_records = builder.distributed_lookups(cloudfront_using)
    cloudfront_events = sink.take_since(mark) if sink.enabled else []
    timings["distributed_lookups_s"] = time.perf_counter() - start

    start = time.perf_counter()
    recorder.set_phase("ns_dig")
    ns_name_lists = builder.ns_dig_survey(records)
    timings["ns_survey_s"] = time.perf_counter() - start

    counter_deltas: Dict[Tuple[str, str], int] = {}
    for key, count in world.dns.dynamic_query_counts().items():
        delta = count - counter_baseline.get(key, 0)
        if delta:
            counter_deltas[key] = delta

    resolver_payload: Dict[str, tuple] = {}
    for vantage in world.dns_vantages():
        resolver = world._resolvers.get(vantage.name)
        if resolver is None:
            continue
        baseline_count, baseline_keys = resolver_baselines.get(
            vantage.name, (0, frozenset())
        )
        new_entries = (
            resolver.export_cache_entries(baseline_keys)
            if export_caches else ()
        )
        query_delta = resolver.query_count - baseline_count
        if new_entries or query_delta:
            resolver_payload[vantage.name] = (query_delta, new_entries)

    return ShardResult(
        shard_index=shard_index,
        discovered=discovered,
        total=total,
        records=records,
        cloudfront_records=cloudfront_records,
        other_cdn=other_cdn,
        ns_name_lists=ns_name_lists,
        entries=recorder.entries,
        counter_deltas=counter_deltas,
        resolver_payload=resolver_payload,
        step_timings=timings,
        lookup_events=lookup_events,
        cloudfront_events=cloudfront_events,
        metric_deltas=builder.obs.metrics.take_counter_deltas(
            metrics_checkpoint
        ),
    )


def replay_shared_rotations(
    world,
    tagged: List[tuple],
    counter_baseline: Dict[Tuple[str, str], int],
    patch_cache,
    patch_record,
) -> Dict[Tuple[str, str], int]:
    """Replay logged shared-rotation digs in sequential global order.

    ``tagged`` is the already-sorted ``(phase rank, slice index, seq,
    result, entry)`` list; sorting it phase-major puts every
    logged dig at the position sequential execution would have run it,
    so each shared name's query indices are assigned exactly as a
    one-process build assigns them.  ``patch_cache(result, entry,
    addresses)`` and ``patch_record(result, entry, addresses)`` apply
    the replayed answers; ``patch_cache`` is None when worker caches
    were dropped (a deferred world's build), so ``"cache"`` entries
    only consume indices.  Returns per-``(origin, name)`` replay counts
    for the caller's delta reconciliation.
    """
    dynamic_zone = {
        name: (origin, zone)
        for origin, zone in ((z.origin, z) for z in world.dns.zones())
        for name in zone.dynamic_names()
    }
    vantage_by_name = {v.name: v for v in world.dns_vantages()}
    next_index: Dict[str, int] = {}
    replay_counts: Dict[Tuple[str, str], int] = {}
    for _, _, _, result, entry in tagged:
        origin, zone = dynamic_zone[entry.name]
        index = next_index.get(entry.name)
        if index is None:
            index = counter_baseline.get((origin, entry.name), 0)
        next_index[entry.name] = index + 1
        replay_counts[(origin, entry.name)] = (
            replay_counts.get((origin, entry.name), 0) + 1
        )
        if entry.kind == "counter":
            continue
        answers = zone.dynamic_answer(
            entry.name, RRType.A, vantage_by_name[entry.vantage_name],
            index,
        )
        addresses = [r.value for r in answers if r.rtype is RRType.A]
        if entry.kind == "cache":
            if patch_cache is not None:
                patch_cache(result, entry, addresses)
        else:
            patch_record(result, entry, addresses)
    return replay_counts
