"""One-pass streaming analysis of the campus border capture.

The batch path materializes every flow (``Trace``), sorts it, and lets
:class:`~repro.capture.analyzer.BroAnalyzer` walk the list per table.
That is O(flows) memory — fine at seed scale, prohibitive when the
capture models the paper's 1.4 TB week against millions of clients.

This module analyzes the capture *as it is generated*: the flow
iterator from :meth:`CaptureGenerator.iter_flows` feeds per-capture-day
:class:`WindowState` aggregates — exact byte/flow counters per cloud
and protocol, a weighted space-saving heavy-hitter sketch over domains
(Table 5's concentration makes it exact in practice), content-type
tallies, the diurnal histogram, and a deterministic bottom-k flow
sample (:class:`~repro.sampling.BottomKReservoir`) — and nothing
retains a flow after its window state absorbs it.

Determinism contract: the **summary is a fold of per-window states in
window order**, and both the sequential pass and the time-window
sharded fan-out produce those per-window states from the *same* flow
stream (every shard worker regenerates the full deterministic stream
and aggregates only its windows), so sequential and sharded summaries
are byte-identical by construction.  Worker-side DNS effects (resolver
cache fills, shared-rotation counter advances, metric counters) are
identical across shards for the same reason; the parent verifies that
agreement — any drift raises — and applies them exactly once.

Exactness: every counter here is an order-free sum, so cloud shares,
protocol mixes, content types, and the hourly histogram equal the
batch analyzer's to the byte at any scale.  The domain sketch is exact
whenever its capacity covers the distinct traffic domains (always true
at seed and mid tiers); beyond that it degrades gracefully into a
bounded-error heavy-hitter summary, which is all Table 5 needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.capture.analyzer import (
    BroAnalyzer,
    ContentTypeStats,
    DomainTraffic,
    ProtocolStats,
)
from repro.capture.flow import FlowRecord, registrable_domain
from repro.campaign.fanout import fork_map, partition
from repro.obs import NOOP, Observability
from repro.sampling import BottomKReservoir
from repro.sim import fork_pool_available

#: Heavy-hitter capacity: far above the distinct traffic domains at
#: seed/mid tiers (sketch exact), bounded at paper tier.
DEFAULT_SKETCH_CAPACITY = 50_000
#: Deterministic flow-sample size kept for inspection/debugging.
DEFAULT_SAMPLE_SIZE = 2_000
#: Salt for the flow sample's priority hashes.
_SAMPLE_SALT = "capture-flow-sample"

_WINDOW_SECONDS = 86_400.0


class SpaceSavingSketch:
    """Weighted space-saving heavy hitters (Metwally et al.) with
    deterministic eviction and per-key auxiliary accumulators.

    ``add(key, weight, aux)`` charges ``weight`` to ``key``; when the
    key table is full the minimum-count key — ties broken by key, so
    the data structure is a pure function of its input sequence — is
    replaced, inheriting its count as the newcomer's ``error`` bound.
    ``aux`` is a fixed-length vector summed per key (and reset on
    replacement), which is how the capture tracks the http/https
    byte/flow split behind each domain's total.

    When fewer distinct keys than ``capacity`` ever arrive, no eviction
    happens and every count (and aux vector) is exact with error 0.
    """

    __slots__ = ("capacity", "aux_len", "counts", "errors", "aux", "_heap")

    def __init__(self, capacity: int, aux_len: int = 0):
        if capacity < 1:
            raise ValueError(f"sketch capacity must be positive: {capacity}")
        self.capacity = capacity
        self.aux_len = aux_len
        self.counts: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self.aux: Dict[str, List[int]] = {}
        # Lazy min-heap of (count, key) snapshots; stale entries are
        # skipped on pop and compacted when the heap outgrows the table.
        self._heap: List[Tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def saturated(self) -> bool:
        """True once any eviction may have occurred (counts inexact)."""
        return bool(self.errors)

    def add(
        self, key: str, weight: int, aux: Optional[Iterable[int]] = None
    ) -> None:
        self._charge(key, weight, 0, aux)

    def _charge(
        self,
        key: str,
        weight: int,
        error: int,
        aux: Optional[Iterable[int]],
    ) -> None:
        counts = self.counts
        if key in counts:
            count = counts[key] + weight
            counts[key] = count
            if error:
                self.errors[key] = self.errors.get(key, 0) + error
            if aux is not None and self.aux_len:
                acc = self.aux[key]
                for i, value in enumerate(aux):
                    acc[i] += value
            heapq.heappush(self._heap, (count, key))
        elif len(counts) < self.capacity:
            counts[key] = weight + error
            if error:
                self.errors[key] = error
            if self.aux_len:
                self.aux[key] = (
                    list(aux) if aux is not None else [0] * self.aux_len
                )
            heapq.heappush(self._heap, (weight + error, key))
        else:
            victim, floor = self._evict_min()
            del counts[victim]
            self.errors.pop(victim, None)
            self.aux.pop(victim, None)
            count = floor + weight + error
            counts[key] = count
            self.errors[key] = floor + error
            if self.aux_len:
                self.aux[key] = (
                    list(aux) if aux is not None else [0] * self.aux_len
                )
            heapq.heappush(self._heap, (count, key))
        if len(self._heap) > 4 * self.capacity:
            self._heap = [(c, k) for k, c in counts.items()]
            heapq.heapify(self._heap)

    def _evict_min(self) -> Tuple[str, int]:
        heap, counts = self._heap, self.counts
        while heap:
            count, key = heapq.heappop(heap)
            if counts.get(key) == count:
                return key, count
        raise RuntimeError("space-saving heap drained with a full table")

    def merge(self, other: "SpaceSavingSketch") -> None:
        """Fold another sketch in (its key insertion order)."""
        if other.aux_len != self.aux_len:
            raise ValueError(
                f"aux length mismatch: {self.aux_len} vs {other.aux_len}"
            )
        for key, count in other.counts.items():
            error = other.errors.get(key, 0)
            self._charge(
                key, count - error, error, other.aux.get(key)
            )

    def items(self) -> List[Tuple[str, int, int, List[int]]]:
        """(key, count, error, aux) sorted by count desc then key."""
        return sorted(
            (
                (key, count, self.errors.get(key, 0),
                 self.aux.get(key, []))
                for key, count in self.counts.items()
            ),
            key=lambda row: (-row[1], row[0]),
        )


#: aux vector layout for the domain sketch.
_AUX_HTTP_BYTES, _AUX_HTTPS_BYTES, _AUX_HTTP_FLOWS, _AUX_HTTPS_FLOWS = (
    0, 1, 2, 3,
)


class WindowState:
    """All aggregates for one capture day."""

    __slots__ = (
        "window", "flows", "bytes_total", "cloud", "proto", "content",
        "hourly", "domains", "sample",
    )

    def __init__(
        self,
        window: int,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
    ):
        self.window = window
        self.flows = 0
        self.bytes_total = 0
        #: provider -> [bytes, flows] (cloud flows only).
        self.cloud: Dict[str, List[int]] = {}
        #: bucket ('ec2'|'azure'|'overall') -> label -> [bytes, flows].
        self.proto: Dict[str, Dict[str, List[int]]] = {
            "ec2": {}, "azure": {}, "overall": {},
        }
        #: content type -> [bytes, count, max_bytes].
        self.content: Dict[str, List[int]] = {}
        self.hourly: List[int] = [0] * 24
        self.domains = SpaceSavingSketch(sketch_capacity, aux_len=4)
        self.sample: BottomKReservoir = BottomKReservoir(
            sample_size, salt=_SAMPLE_SALT
        )


class StreamAnalyzer:
    """Feeds a flow stream into per-window states, one pass, O(1)/flow.

    ``keep_windows`` restricts aggregation to a window subset — the
    time-window shard workers use it; ``None`` keeps everything.
    """

    def __init__(
        self,
        cloud_ranges: Dict[str, object],
        keep_windows: Optional[range] = None,
        sketch_capacity: int = DEFAULT_SKETCH_CAPACITY,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
    ):
        self.providers = tuple(cloud_ranges.items())
        self.keep = keep_windows
        self.sketch_capacity = sketch_capacity
        self.sample_size = sample_size
        self.windows: Dict[int, WindowState] = {}
        self._window_seq: Dict[int, int] = {}

    def consume(self, flows: Iterable[FlowRecord]) -> Dict[int, WindowState]:
        keep = self.keep
        for flow in flows:
            window = int(flow.ts // _WINDOW_SECONDS)
            if keep is not None and window not in keep:
                continue
            state = self.windows.get(window)
            if state is None:
                state = WindowState(
                    window, self.sketch_capacity, self.sample_size
                )
                self.windows[window] = state
                self._window_seq[window] = 0
            seq = self._window_seq[window]
            self._window_seq[window] = seq + 1
            self._ingest(state, flow, seq)
        return self.windows

    def _cloud_of(self, flow: FlowRecord) -> Optional[str]:
        for provider, ranges in self.providers:
            if flow.dst in ranges:
                return provider
        return None

    def _ingest(self, state: WindowState, flow: FlowRecord, seq: int) -> None:
        size = flow.total_bytes
        state.flows += 1
        state.bytes_total += size
        cloud = self._cloud_of(flow)
        if cloud is None:
            return
        share = state.cloud.get(cloud)
        if share is None:
            share = state.cloud[cloud] = [0, 0]
        share[0] += size
        share[1] += 1
        label = BroAnalyzer.protocol_of(flow)
        for bucket in (cloud, "overall"):
            cell = state.proto[bucket].get(label)
            if cell is None:
                cell = state.proto[bucket][label] = [0, 0]
            cell[0] += size
            cell[1] += 1
        state.hourly[int(flow.ts % _WINDOW_SECONDS) // 3600] += size
        if flow.dport == 80 and flow.http_host:
            name = registrable_domain(flow.http_host)
            state.domains.add(
                f"{name}\t{cloud}", size, (size, 0, 1, 0)
            )
        elif flow.dport == 443 and flow.tls_common_name:
            name = registrable_domain(flow.tls_common_name)
            state.domains.add(
                f"{name}\t{cloud}", size, (0, size, 0, 1)
            )
        if flow.content_type is not None and flow.content_length is not None:
            entry = state.content.get(flow.content_type)
            if entry is None:
                entry = state.content[flow.content_type] = [0, 0, 0]
            entry[0] += flow.content_length
            entry[1] += 1
            if flow.content_length > entry[2]:
                entry[2] = flow.content_length
        state.sample.offer(
            f"{state.window}:{seq}",
            (flow.ts, flow.proto, flow.dport, size),
        )


@dataclass
class StreamingCaptureSummary:
    """The fold of all window states: every §3 aggregate, no flows.

    Mirrors the ``BroAnalyzer`` surface the experiments use —
    :meth:`cloud_shares`, :meth:`protocol_breakdown`,
    :meth:`domain_traffic`, :meth:`content_types`,
    :meth:`hourly_volume` — plus ``len()``/:meth:`total_bytes` so the
    bench's trace digest is computed identically to a ``Trace``.
    """

    flows: int = 0
    bytes_total: int = 0
    window_count: int = 0
    workers: int = 0
    cloud: Dict[str, List[int]] = field(default_factory=dict)
    proto: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    content: Dict[str, List[int]] = field(default_factory=dict)
    hourly: List[int] = field(default_factory=lambda: [0] * 24)
    domains: SpaceSavingSketch = field(
        default_factory=lambda: SpaceSavingSketch(
            DEFAULT_SKETCH_CAPACITY, aux_len=4
        )
    )
    sample: BottomKReservoir = field(
        default_factory=lambda: BottomKReservoir(
            DEFAULT_SAMPLE_SIZE, salt=_SAMPLE_SALT
        )
    )

    def __len__(self) -> int:
        return self.flows

    def total_bytes(self) -> int:
        return self.bytes_total

    def absorb(self, state: WindowState) -> None:
        """Fold one window in.  Callers must fold in window order —
        the single ordering rule that makes sequential and sharded
        summaries byte-identical."""
        self.flows += state.flows
        self.bytes_total += state.bytes_total
        self.window_count += 1
        for provider, (nbytes, nflows) in state.cloud.items():
            cell = self.cloud.setdefault(provider, [0, 0])
            cell[0] += nbytes
            cell[1] += nflows
        for bucket, labels in state.proto.items():
            mine = self.proto.setdefault(bucket, {})
            for label, (nbytes, nflows) in labels.items():
                cell = mine.setdefault(label, [0, 0])
                cell[0] += nbytes
                cell[1] += nflows
        for ct, (nbytes, count, max_bytes) in state.content.items():
            cell = self.content.setdefault(ct, [0, 0, 0])
            cell[0] += nbytes
            cell[1] += count
            if max_bytes > cell[2]:
                cell[2] = max_bytes
        for hour, nbytes in enumerate(state.hourly):
            self.hourly[hour] += nbytes
        self.domains.merge(state.domains)
        self.sample.merge(state.sample)

    # -- BroAnalyzer-shaped views ------------------------------------

    def cloud_shares(self) -> Dict[str, ProtocolStats]:
        return {
            provider: ProtocolStats(bytes=nbytes, flows=nflows)
            for provider, (nbytes, nflows) in self.cloud.items()
        }

    def protocol_breakdown(self) -> Dict[str, Dict[str, ProtocolStats]]:
        return {
            bucket: {
                label: ProtocolStats(bytes=nbytes, flows=nflows)
                for label, (nbytes, nflows) in labels.items()
            }
            for bucket, labels in self.proto.items()
        }

    def domain_traffic(self) -> Dict[str, DomainTraffic]:
        """Per-domain totals from the sketch (size lists not retained;
        exact whenever the sketch never saturated)."""
        result: Dict[str, DomainTraffic] = {}
        for key, _count, _error, aux in self.domains.items():
            name, provider = key.split("\t", 1)
            result[name] = DomainTraffic(
                domain=name,
                provider=provider,
                http_bytes=aux[_AUX_HTTP_BYTES],
                https_bytes=aux[_AUX_HTTPS_BYTES],
                http_flows=aux[_AUX_HTTP_FLOWS],
                https_flows=aux[_AUX_HTTPS_FLOWS],
            )
        return result

    def content_types(self) -> List[ContentTypeStats]:
        return sorted(
            (
                ContentTypeStats(
                    content_type=ct, bytes=nbytes, count=count,
                    max_bytes=max_bytes,
                )
                for ct, (nbytes, count, max_bytes) in self.content.items()
            ),
            key=lambda s: s.bytes,
            reverse=True,
        )

    def hourly_volume(self) -> List[int]:
        return list(self.hourly)

    def sampled_flows(self) -> List[Tuple[str, tuple]]:
        return self.sample.items()


def _fold(states: Dict[int, WindowState], workers: int) -> (
        StreamingCaptureSummary):
    summary = StreamingCaptureSummary(workers=workers)
    for window in sorted(states):
        summary.absorb(states[window])
    return summary


def streaming_capture_summary(
    world,
    workers: int = 0,
    obs: Observability = NOOP,
) -> StreamingCaptureSummary:
    """Generate-and-analyze the capture without materializing it.

    ``workers > 1`` shards by capture day through the fork fan-out:
    each worker regenerates the full deterministic flow stream (flow
    generation is a strictly sequential RNG program and cannot skip
    ahead) but aggregates only its contiguous day range, so the fan-out
    bounds *aggregate* memory and the parent never holds a flow.  The
    parent folds the returned window states in window order and applies
    the (shard-identical, verified) DNS/metric side effects once.
    """
    generator = world._capture_generator()
    domains = world.traffic_domains()
    days = generator.config.capture_days
    resolver = generator.resolver

    # The sharded path needs a *real* fork: each shard replays the
    # whole RNG program from the forked snapshot, which fork_map's
    # in-process fallback cannot do — the second shard would resume an
    # already-consumed stream.
    can_shard = (
        workers and workers > 1 and days > 1 and fork_pool_available()
    )
    with obs.tracer.span("capture-streaming", windows=days):
        if can_shard:
            bounds = partition(days, min(workers, days))
            counter_baseline = world.dns.dynamic_query_counts()
            resolver_baseline = (resolver.query_count, resolver.cache_keys())
            checkpoint = obs.metrics.counter_checkpoint()

            def _run_shard(index: int):
                lo, hi = bounds[index]
                analyzer = StreamAnalyzer(
                    generator.cloud_ranges, keep_windows=range(lo, hi)
                )
                analyzer.consume(generator.iter_flows(domains))
                counter_deltas = {}
                for key, count in world.dns.dynamic_query_counts().items():
                    delta = count - counter_baseline.get(key, 0)
                    if delta:
                        counter_deltas[key] = delta
                cache_entries = resolver.export_cache_entries(
                    resolver_baseline[1]
                )
                query_delta = resolver.query_count - resolver_baseline[0]
                metric_deltas = obs.metrics.take_counter_deltas(checkpoint)
                return (
                    analyzer.windows,
                    counter_deltas,
                    (query_delta, cache_entries),
                    metric_deltas,
                )

            results = fork_map(_run_shard, len(bounds), len(bounds))
            # Every shard replayed the same stream, so their side
            # effects must agree exactly; disagreement means the world
            # diverged across forks.
            reference = results[0]
            for index, result in enumerate(results[1:], start=1):
                if (
                    result[1] != reference[1]
                    or result[2][0] != reference[2][0]
                ):
                    raise RuntimeError(
                        f"capture shard {index} drifted from shard 0: "
                        f"counters {result[1]} != {reference[1]} or "
                        f"resolver delta {result[2][0]} != "
                        f"{reference[2][0]}"
                    )
            states: Dict[int, WindowState] = {}
            for windows, _counters, _resolver, _metrics in results:
                for window, state in windows.items():
                    if window in states:
                        raise RuntimeError(
                            f"window {window} produced by two shards"
                        )
                    states[window] = state
            world.dns.apply_dynamic_query_deltas(reference[1])
            resolver.query_count += reference[2][0]
            resolver.adopt_cache_entries(reference[2][1])
            obs.metrics.apply_counter_deltas(reference[3])
            return _fold(states, workers)

        analyzer = StreamAnalyzer(generator.cloud_ranges)
        analyzer.consume(generator.iter_flows(domains))
        return _fold(analyzer.windows, 0)
