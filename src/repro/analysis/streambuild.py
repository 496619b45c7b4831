"""The fork fan-out §2.1 dataset build: one driver for every forked build.

The ranked domain list is cut into contiguous rank slices, and each
slice runs the full enumerate → filter → lookups → NS-dig pipeline in
a forked worker (:func:`repro.analysis.shards._build_shard`) against a
copy-on-write view of the world.  Slices fork in *groups*, one worker
per slice, and each group is merged in rank order before the next one
starts.  The world alone decides what the groups are:

* a **fully built** world is cut into ``workers`` work-balanced slices
  (:func:`~repro.analysis.shards.partition_sites`) forming one group;
  worker resolver caches are exported and adopted, and nothing is
  released;
* a **deferred** world (``World(defer_tenants=True)``) is cut into
  fixed-size chunks (:func:`repro.flags.streaming_chunk_size`) in
  groups of ``max(1, workers)``.  Each group's tenants are deployed
  before it forks and released after it merges, so peak memory is
  bounded by one group's tenants plus the dataset, whatever the domain
  count.  Worker caches are dropped (cache keys are domain-unique fqdns
  no later stage re-digs), and ``discovered`` keeps only the domains
  that appear in the dataset's records (every analysis consumer joins
  it through ``by_domain``); the total discovered count stays exact.

Every slice forks, even a lone one (``force_fork``): chunk digs never
advance the parent's rotation counters or write its caches, which is
what lets one ``counter_baseline`` serve every group and the rotation
replay run once, at the end.

Rotation state is the part a naive fan-out gets wrong (see
:mod:`repro.analysis.shards` for the recorder and the replay).  Before
each group forks, dynamic names whose rotation could interleave across
slices are flagged *conservatively*
(:meth:`DnsInfrastructure.cross_chunk_dynamic_names`): the future
chunks of a deferred world have not deployed yet, so shared-ness cannot
be read from the final alias graph, and a fully built world runs the
same analysis with every ranked tenant in its window.  Workers log the
flagged digs instead of trusting their local answers, and the parent
replays them in sequential global order against the finalized world —
sound because every dynamic name lives in a global provider zone that
tenant releases never touch.  The reconcile then requires the replay
to consume exactly the queries the workers reported, and treats an
unflagged name that rotated in two or more slices as a hard error: a
name the analysis missed fails loud, never drifts silently.

Name-server resolution (the survey's global, first-seen-deduped half)
runs on the parent once per group, after the group's caches are adopted
and before its zones are released.  NS targets are static A records, so
these digs rotate nothing, and the persistent dedup set visits
hostnames in the sequential first-seen order.

Probe events the workers' lookup campaigns emitted ride back per phase
and are emitted after the last group, lookup phase first, in slice
order — the sequential build's log, byte for byte.  Metric counter
increments are re-applied in slice order.

Records, NS addresses, dynamic query counters, resolver query counts,
the event log and the deterministic metrics are bit-identical to the
in-process build; for a fully built world so are the ``discovered``
map and every resolver cache.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.analysis.shards import (
    _PHASE_RANK,
    _build_shard,
    partition_sites,
    replay_shared_rotations,
)
from repro.campaign.fanout import fork_map
from repro.dns.records import RRType
from repro.flags import streaming_chunk_size


def build_fanout(builder, workers: int = 0):
    """Build the §2.1 dataset over forked rank slices, bit-identically.

    See the module docstring for the grouping and the
    merge/replay/reconcile contract.  Callers go through
    :meth:`DatasetBuilder.build`, which gates on
    :meth:`DatasetBuilder.fans_out`.
    """
    from repro.analysis.dataset import AlexaSubdomainsDataset

    world = builder.world
    sites = world.alexa.sites
    deferred = world.pending_tenants
    if deferred:
        chunk = streaming_chunk_size()
        bounds = [
            (lo, min(lo + chunk, len(sites)))
            for lo in range(0, len(sites), chunk)
        ]
        group_size = max(1, workers)
    else:
        bounds = partition_sites(sites, world.dns, workers)
        group_size = max(1, len(bounds))
    export_caches = not deferred
    counter_baseline = world.dns.dynamic_query_counts()
    resolvers = {v.name: world.resolver_for(v) for v in world.dns_vantages()}

    records: list = []
    cloudfront_records: list = []
    record_offsets: List[int] = []
    cloudfront_offsets: List[int] = []
    discovered: Dict[str, List[str]] = {}
    other_cdn: Dict[str, List[str]] = {}
    ns_addresses: Dict[str, object] = {}
    lookup_events: list = []
    cloudfront_events: list = []
    total = 0
    kept_results: list = []
    step_totals: Dict[str, float] = {}
    released_zones = 0
    resolve_s = 0.0
    metrics = builder.obs.metrics
    tracer = builder.obs.tracer

    with tracer.span(
        "dataset:fanout", category="shard",
        slices=len(bounds), group=group_size,
    ):
        for group_lo in range(0, len(bounds), group_size):
            group = bounds[group_lo:group_lo + group_size]
            if deferred:
                window = [
                    deployed.plan.domain
                    for deployed in world.ensure_deployed_through(
                        group[-1][1]
                    )
                ]
            else:
                window = [site.domain for site in sites]
            shared = world.dns.cross_chunk_dynamic_names(window)
            resolver_baselines = {
                name: (
                    resolver.query_count,
                    resolver.cache_keys() if export_caches else frozenset(),
                )
                for name, resolver in resolvers.items()
            }
            # The closure (builder, world, bounds, baselines) reaches
            # workers by copy-on-write, never by pickling.
            results = fork_map(
                lambda index: _build_shard(
                    builder, bounds, shared, resolver_baselines,
                    counter_baseline, group_lo + index,
                    export_caches=export_caches,
                ),
                len(group), group_size, force_fork=True,
            )
            ns_name_lists: List[List[str]] = []
            for result in results:
                record_offsets.append(len(records))
                cloudfront_offsets.append(len(cloudfront_records))
                records.extend(result.records)
                cloudfront_records.extend(result.cloudfront_records)
                other_cdn.update(result.other_cdn)
                total += result.total
                if deferred:
                    wanted = {record.domain for record in result.records}
                    wanted.update(
                        record.domain for record in result.cloudfront_records
                    )
                    wanted.update(result.other_cdn)
                    for domain in wanted:
                        if domain in result.discovered:
                            discovered[domain] = result.discovered[domain]
                else:
                    discovered.update(result.discovered)
                ns_name_lists.extend(result.ns_name_lists)
                lookup_events.extend(result.lookup_events)
                cloudfront_events.extend(result.cloudfront_events)
                if metrics.enabled:
                    metrics.apply_counter_deltas(result.metric_deltas)
                    metrics.histogram(
                        "shard_merge_records", volatile=True,
                        campaign="dataset",
                    ).observe(len(result.records))
                # Cache keys are (fqdn, rtype) and fqdns are
                # domain-unique, so the per-slice exports are disjoint.
                for vantage_name, (query_delta, entries) in (
                    result.resolver_payload.items()
                ):
                    resolver = resolvers[vantage_name]
                    resolver.query_count += query_delta
                    resolver.adopt_cache_entries(entries)
                # Keep only what the replay and reconcile need; the
                # heavy outputs were merged above.
                result.records = ()
                result.cloudfront_records = ()
                result.discovered = {}
                result.other_cdn = {}
                result.ns_name_lists = []
                result.lookup_events = []
                result.cloudfront_events = []
                kept_results.append(result)
            resolve_start = time.perf_counter()
            builder.resolve_ns_hostnames(ns_name_lists, into=ns_addresses)
            resolve_s += time.perf_counter() - resolve_start
            for step in (
                "enumerate", "filter", "distributed_lookups", "ns_survey",
            ):
                step_totals[step] = step_totals.get(step, 0.0) + max(
                    result.step_timings.get(f"{step}_s", 0.0)
                    for result in results
                )
            if deferred:
                released_zones += world.release_window()

        # The parent must still be dig-pristine: any parent-side
        # rotation would shift the replay's index assignment away from
        # the sequential one.
        if world.dns.dynamic_query_counts() != counter_baseline:
            raise RuntimeError(
                "fan-out build: parent advanced dynamic counters "
                "mid-build (NS resolution hit a rotating name?)"
            )
        if deferred:
            world.finalize_tenants()
        sink = builder.obs.events
        sink.emit_many(lookup_events)
        sink.emit_many(cloudfront_events)

        # -- replay flagged rotations in sequential global order -------
        tagged = sorted(
            (
                (_PHASE_RANK[entry.phase], result.shard_index, entry.seq,
                 result, entry)
                for result in kept_results
                for entry in result.entries
            ),
            key=lambda item: item[:3],
        )

        def patch_cache(result, entry, addresses):
            payload = result.resolver_payload[entry.vantage_name][1]
            cached = payload.get((entry.qname, RRType.A))
            if cached is None:
                raise RuntimeError(
                    f"slice {result.shard_index} logged a cache patch for "
                    f"{entry.qname} but exported no matching entry"
                )
            cached.response.addresses = list(addresses)

        def patch_record(result, entry, addresses):
            offsets = (
                record_offsets
                if entry.phase == "lookup"
                else cloudfront_offsets
            )
            target = (
                records if entry.phase == "lookup" else cloudfront_records
            )
            target[
                offsets[result.shard_index] + entry.position
            ].addresses.update(addresses)

        replay_counts = replay_shared_rotations(
            world, tagged, counter_baseline,
            patch_cache if export_caches else None, patch_record,
        )

        # -- reconcile rotation counters -------------------------------
        total_deltas: Dict[Tuple[str, str], int] = {}
        slices_touching: Dict[Tuple[str, str], int] = {}
        for result in kept_results:
            for key, delta in result.counter_deltas.items():
                total_deltas[key] = total_deltas.get(key, 0) + delta
                slices_touching[key] = slices_touching.get(key, 0) + 1
        for key, count in replay_counts.items():
            if total_deltas.get(key, 0) != count:
                raise RuntimeError(
                    f"replay drift for {key[1]}: replayed {count} "
                    f"queries, workers reported "
                    f"{total_deltas.get(key, 0)}"
                )
        for key, touched in slices_touching.items():
            if touched >= 2 and key not in replay_counts:
                raise RuntimeError(
                    f"dynamic name {key[1]} rotated in {touched} slices "
                    f"with no replay descriptors — cross-chunk analysis "
                    f"missed it"
                )
        world.dns.apply_dynamic_query_deltas(total_deltas)

    if metrics.enabled:
        metrics.counter(
            "dataset_shards_merged_total", volatile=True
        ).inc(len(kept_results))
        metrics.gauge(
            "dataset_zones_released", volatile=True
        ).set(released_zones)
    if tracer.enabled:
        # Forked workers' own spans die with them, so the parent
        # records the critical-path (max over a group's slices)
        # duration each step contributed, summed over groups.
        for step in ("enumerate", "filter", "distributed_lookups"):
            tracer.record(
                step, category="dataset-step",
                seconds=step_totals.get(step, 0.0),
                slices=len(kept_results),
            )
        tracer.record(
            "ns_survey", category="dataset-step",
            seconds=step_totals.get("ns_survey", 0.0) + resolve_s,
            slices=len(kept_results),
        )

    return AlexaSubdomainsDataset(
        records=records,
        discovered=discovered,
        ns_addresses=ns_addresses,
        total_discovered_subdomains=total,
        cloudfront_records=cloudfront_records,
        other_cdn_subdomains=other_cdn,
    )
