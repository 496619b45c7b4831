"""Building the Alexa subdomains dataset (§2.1).

The pipeline:

1. for every ranked domain, attempt a zone transfer; fall back to
   dnsmap-style wordlist brute forcing (150 enumeration nodes in the
   paper — we round-robin over the configured vantage set);
2. one DNS lookup per discovered subdomain from a single node; keep
   subdomains whose answers contain an EC2/Azure published-range
   address — the *cloud-using subdomains*;
3. look every cloud-using subdomain up from all distributed vantage
   points, accumulating addresses and CNAME chains (geo-dependent and
   rotating answers make multiple vantages matter);
4. the NS survey: collect NS names per cloud-using subdomain and
   resolve each name server's address with flushed caches.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.campaign.engine import CampaignEngine
from repro.campaign.probes import DnsLookupCampaign
from repro.dns.enumeration import SubdomainEnumerator
from repro.dns.records import RRType
from repro.faults.scenarios import OutageScenario
from repro.flags import columnar_runtime_enabled
from repro.net.ipv4 import IPv4Address
from repro.net.prefixset import PrefixSet
from repro.obs import NOOP, Observability
from repro.sim import fork_pool_available
from repro.world import World

log = logging.getLogger("repro.analysis.dataset")


@dataclass(slots=True)
class SubdomainRecord:
    """Everything the distributed lookups learned about one subdomain."""

    fqdn: str
    domain: str
    rank: Optional[int]
    addresses: Set[IPv4Address] = field(default_factory=set)
    cnames: Set[str] = field(default_factory=set)
    ns_names: Set[str] = field(default_factory=set)
    lookups: int = 0

    def cname_contains(self, *fragments: str) -> bool:
        return any(
            fragment in cname
            for cname in self.cnames
            for fragment in fragments
        )

    @property
    def has_cname(self) -> bool:
        return bool(self.cnames)


@dataclass
class AlexaSubdomainsDataset:
    """The §2.1 dataset: cloud-using subdomains with their DNS records."""

    records: List[SubdomainRecord]
    #: fqdn → record, for joins.
    by_fqdn: Dict[str, SubdomainRecord] = field(default_factory=dict)
    #: domain → its cloud-using subdomain records.
    by_domain: Dict[str, List[SubdomainRecord]] = field(default_factory=dict)
    #: domain → all discovered subdomains (cloud-using or not).
    discovered: Dict[str, List[str]] = field(default_factory=dict)
    #: name-server hostname → resolved address (None if unresolvable).
    ns_addresses: Dict[str, Optional[IPv4Address]] = field(
        default_factory=dict
    )
    total_discovered_subdomains: int = 0
    #: Subdomains resolving into CloudFront's (separate) address range,
    #: found while filtering; not part of the EC2/Azure-using records.
    cloudfront_records: List[SubdomainRecord] = field(default_factory=list)
    #: domain → subdomains whose CNAMEs look like a third-party CDN.
    other_cdn_subdomains: Dict[str, List[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_fqdn:
            self.by_fqdn = {r.fqdn: r for r in self.records}
        if not self.by_domain:
            for record in self.records:
                self.by_domain.setdefault(record.domain, []).append(record)

    def domains(self) -> List[str]:
        return list(self.by_domain)

    def __len__(self) -> int:
        return len(self.records)


class DatasetBuilder:
    """Runs the §2.1 methodology against a world.

    ``range_coverage`` models the paper's footnote-2 assumption ("we
    assume the IP address ranges published by EC2 and Azure are
    relatively complete"): values below 1.0 deterministically drop a
    fraction of the published blocks from the classification, so the
    sensitivity of every downstream count to stale range lists can be
    measured.
    """

    def __init__(
        self,
        world: World,
        range_coverage: float = 1.0,
        scenario: Optional[OutageScenario] = None,
        obs: Observability = NOOP,
    ):
        if not 0.0 < range_coverage <= 1.0:
            raise ValueError(
                f"range_coverage must be in (0, 1]: {range_coverage}"
            )
        self.world = world
        self.range_coverage = range_coverage
        #: Outage drill the lookup campaigns run under.  DNS probes are
        #: deliberately scenario-transparent (see
        #: :mod:`repro.campaign.probes`), so today this only tags the
        #: engine runs; it is threaded for uniformity with the WAN side.
        self.scenario = scenario
        #: Observability plane: ``dataset-step`` spans around the four
        #: pipeline phases, campaign spans via the engine, and — when
        #: the sink is live — probe-level events that the fan-out build
        #: merges back phase-major (see :mod:`repro.analysis.streambuild`),
        #: byte-identically to the in-process build.
        self.obs = obs
        self.ranges = world.published_ranges()
        labelled = (
            [(net, "ec2") for net in world.ec2.published_ranges()]
            + [(net, "azure") for net in world.azure.published_ranges()]
        )
        if range_coverage < 1.0:
            keep = max(1, int(len(labelled) * range_coverage))
            labelled = labelled[:keep]
        self._cloud_membership = PrefixSet(labelled)
        #: Fan-out hook: a ``ShardRecorder`` tagging digs whose
        #: rotation state crosses slice boundaries (None in-process).
        self._recorder = None

    def _engine(self) -> CampaignEngine:
        return CampaignEngine(
            self.world.streams.seed, scenario=self.scenario,
            obs=self.obs,
        )

    def _is_cloud_address(self, address: IPv4Address) -> bool:
        return address in self._cloud_membership

    # -- step 1+2: enumerate and filter ------------------------------------

    def discover_subdomains(
        self, sites: Optional[Sequence] = None, offset: int = 0
    ) -> Tuple[Dict[str, List[str]], int]:
        """Enumerate subdomains for every ranked domain.

        ``sites``/``offset`` let shard workers enumerate a contiguous
        rank slice while keeping the vantage round-robin aligned with
        each site's *global* rank position, so every domain is brute
        forced from the same enumeration node as in a sequential build.
        """
        vantages = self.world.dns_vantages()
        recorder = self._recorder
        observer = None
        if recorder is not None:
            observer = (
                lambda resolver, qname, response:
                recorder.note_cached_dig(resolver.vantage.name, qname, response)
            )
        enumerators = [
            SubdomainEnumerator(
                self.world.dns,
                self.world.resolver_for(vantage),
                dig_observer=observer,
            )
            for vantage in vantages[: min(6, len(vantages))]
        ]
        if sites is None:
            sites = self.world.alexa.sites
        discovered: Dict[str, List[str]] = {}
        total = 0
        for i, site in enumerate(sites, start=offset):
            enumerator = enumerators[i % len(enumerators)]
            result = enumerator.enumerate(site.domain)
            discovered[site.domain] = result.subdomains
            total += len(result.subdomains)
        return discovered, total

    def filter_cloud_using(
        self, discovered: Dict[str, List[str]]
    ) -> Tuple[
        List[Tuple[str, str]],
        List[Tuple[str, str]],
        Dict[str, List[str]],
    ]:
        """Classify every discovered subdomain from one vantage.

        Returns (cloud_using, cloudfront_using, other_cdn) where
        cloud_using are (domain, fqdn) pairs resolving into EC2/Azure
        ranges, cloudfront_using resolve into CloudFront's range, and
        other_cdn maps domains to subdomains whose CNAME chain names a
        CDN outside the clouds.
        """
        fast = self._classify_columnar(discovered)
        if fast is not None:
            return fast
        vantage = self.world.dns_vantages()[0]
        resolver = self.world.resolver_for(vantage)
        recorder = self._recorder
        cloudfront_ranges = self.ranges["cloudfront"]
        cloud_using: List[Tuple[str, str]] = []
        cloudfront_using: List[Tuple[str, str]] = []
        other_cdn: Dict[str, List[str]] = {}
        for domain, subdomains in discovered.items():
            for fqdn in subdomains:
                response = resolver.dig(fqdn)
                if recorder is not None:
                    recorder.note_cached_dig(vantage.name, fqdn, response)
                if any(
                    self._is_cloud_address(addr)
                    for addr in response.addresses
                ):
                    cloud_using.append((domain, fqdn))
                elif any(
                    addr in cloudfront_ranges
                    for addr in response.addresses
                ):
                    cloudfront_using.append((domain, fqdn))
                elif any("cdn" in cname for cname in response.chain):
                    other_cdn.setdefault(domain, []).append(fqdn)
        return cloud_using, cloudfront_using, other_cdn

    def _classify_columnar(self, discovered: Dict[str, List[str]]):
        """Vectorized :meth:`filter_cloud_using` body, or None.

        Runs the exact same digs in the exact same order (digs write
        caches and advance rotation counters, so they cannot move),
        then classifies every answered address in one batched
        ``searchsorted`` per range table instead of two bisects per
        address.  Unavailable (None) when the columnar plane is off.
        """
        if not columnar_runtime_enabled():
            return None
        import numpy as np

        from repro.columnar.dataset import prefix_membership, segment_any

        vantage = self.world.dns_vantages()[0]
        resolver = self.world.resolver_for(vantage)
        recorder = self._recorder
        index = self.world.dns.static_index
        n_static = 0
        rows: List[Tuple[str, str, List[str]]] = []
        values: List[int] = []
        bounds_lo: List[int] = []
        bounds_hi: List[int] = []
        for domain, subdomains in discovered.items():
            for fqdn in subdomains:
                # Static fqdns read the shared index memo instead of a
                # full dig: the values are identical (whether the
                # scalar dig would have hit the resolver cache or
                # re-resolved), nothing rotates, the recorder is
                # provably a no-op, and the skipped cache write is
                # value-neutral (see the enumeration screening path).
                memo = (
                    index.peek(fqdn, RRType.A, resolver)
                    if index is not None else None
                )
                if memo is not None:
                    n_static += 1
                    response = memo
                else:
                    response = resolver.dig(fqdn)
                    if recorder is not None:
                        recorder.note_cached_dig(
                            vantage.name, fqdn, response
                        )
                bounds_lo.append(len(values))
                values.extend(a.value for a in response.addresses)
                bounds_hi.append(len(values))
                rows.append((domain, fqdn, response.chain))
        resolver.query_count += n_static
        value_arr = np.asarray(values, dtype=np.int64)
        lo = np.asarray(bounds_lo, dtype=np.int64)
        hi = np.asarray(bounds_hi, dtype=np.int64)
        in_cloud = segment_any(
            prefix_membership(self._cloud_membership, value_arr), lo, hi
        )
        in_cloudfront = segment_any(
            prefix_membership(self.ranges["cloudfront"], value_arr),
            lo, hi,
        )
        cloud_using: List[Tuple[str, str]] = []
        cloudfront_using: List[Tuple[str, str]] = []
        other_cdn: Dict[str, List[str]] = {}
        for i, (domain, fqdn, chain) in enumerate(rows):
            if in_cloud[i]:
                cloud_using.append((domain, fqdn))
            elif in_cloudfront[i]:
                cloudfront_using.append((domain, fqdn))
            elif any("cdn" in cname for cname in chain):
                other_cdn.setdefault(domain, []).append(fqdn)
        return cloud_using, cloudfront_using, other_cdn

    # -- step 3: distributed lookups --------------------------------------------

    def distributed_lookups(
        self, cloud_using: Iterable[Tuple[str, str]]
    ) -> List[SubdomainRecord]:
        """Dig every cloud-using subdomain from all DNS vantages.

        Runs as a target-major :class:`~repro.campaign.DnsLookupCampaign`
        through the engine (digs advance rotation counters, so the
        campaign itself never forks; rank-sliced shard workers run it
        per slice instead) and folds the probe records into
        :class:`SubdomainRecord` accumulators.
        """
        targets = list(cloud_using)
        fast = self._lookups_columnar(targets)
        if fast is not None:
            return fast
        campaign = DnsLookupCampaign(
            self.world, targets, recorder=self._recorder
        )
        result = self._engine().run(campaign)
        vantage_count = result.num_vantages
        records: List[SubdomainRecord] = []
        for position, (domain, fqdn) in enumerate(targets):
            record = SubdomainRecord(
                fqdn=fqdn,
                domain=domain,
                rank=self.world.alexa.rank_of(domain),
            )
            lo = position * vantage_count
            for probe in result.records[lo:lo + vantage_count]:
                response, withheld = probe.payload
                record.lookups += 1
                if withheld:
                    # Shared-rotation answer: the addresses belong to a
                    # query index only the merge can assign; the parent
                    # replays them onto the merged record.
                    record.cnames.update(response.chain)
                    continue
                record.addresses.update(response.addresses)
                record.cnames.update(response.chain)
            records.append(record)
        return records

    def _lookups_columnar(
        self, targets: List[Tuple[str, str]]
    ) -> Optional[List[SubdomainRecord]]:
        """Static-name bypass for :meth:`distributed_lookups`, or None.

        A provably static fqdn (see :mod:`repro.dns.staticindex`)
        answers identically from every vantage at every time, so its
        V fresh digs collapse to one shared resolution: the record is
        built directly from the memo, per-resolver query counters are
        advanced in one batched add, and — inside shard workers — the
        recorder provably never flags it (a static chain cannot
        terminate on a shared dynamic name).  Dynamic-reaching fqdns
        keep the exact per-vantage dig sequence, so rotation counters
        and caches evolve as in the engine run.  The engine's
        campaign span and probe metrics are emulated; a live probe
        event sink needs the real per-probe engine loop, so the
        bypass declines (returns None) and the caller falls through.
        """
        if not columnar_runtime_enabled() or self.obs.events.enabled:
            return None
        index = self.world.dns.static_index
        if index is None:
            return None
        start = time.perf_counter()
        vantages = self.world.dns_vantages()
        resolvers = [self.world.resolver_for(v) for v in vantages]
        recorder = self._recorder
        rank_of = self.world.alexa.rank_of
        records: List[SubdomainRecord] = []
        n_static = 0
        with self.obs.tracer.span(
            "dns-lookup",
            category="campaign",
            rounds=1,
            vantages=len(vantages),
            targets=len(targets),
            workers=0,
        ):
            for position, (domain, fqdn) in enumerate(targets):
                record = SubdomainRecord(
                    fqdn=fqdn, domain=domain, rank=rank_of(domain)
                )
                records.append(record)
                if not resolvers:
                    continue
                memo = index.peek(fqdn, RRType.A, resolvers[0])
                if memo is not None:
                    n_static += 1
                    record.lookups = len(resolvers)
                    record.addresses.update(memo.addresses)
                    record.cnames.update(memo.chain)
                    continue
                for vantage, resolver in zip(vantages, resolvers):
                    response = resolver.dig(fqdn, fresh=True)
                    withheld = (
                        recorder is not None
                        and recorder.note_lookup(
                            position, vantage.name, fqdn, response
                        )
                    )
                    record.lookups += 1
                    if withheld:
                        record.cnames.update(response.chain)
                        continue
                    record.addresses.update(response.addresses)
                    record.cnames.update(response.chain)
        if n_static:
            for resolver in resolvers:
                resolver.query_count += n_static
        elapsed = time.perf_counter() - start
        metrics = self.obs.metrics
        if metrics.enabled:
            n_records = len(vantages) * len(targets)
            if n_records:
                metrics.counter(
                    "probes_total", kind="dns-lookup"
                ).inc(n_records)
            if elapsed > 0:
                metrics.gauge(
                    "campaign_records_per_s",
                    campaign="dns-lookup",
                    volatile=True,
                ).set(n_records / elapsed)
        return records

    # -- step 4: the NS survey ------------------------------------------------------

    def ns_dig_survey(
        self, records: List[SubdomainRecord]
    ) -> List[List[str]]:
        """NS-survey step 4a: one fresh NS dig per cloud-using record.

        Returns each record's NS names in answer order (the order that
        drives :meth:`resolve_ns_hostnames`'s first-seen dedup).  NS
        digs are fresh and the surveyed chains are static, so the step
        has no cache or rotation side effects — which is what lets
        shard workers run it locally.
        """
        vantages = self.world.dns_vantages()
        survey_vantages = vantages[: min(10, len(vantages))]
        # The surveying resolver is the same object for every record;
        # fetching it per record was just loop-invariant overhead.
        resolver = self.world.resolver_for(survey_vantages[0])
        recorder = self._recorder
        ordered: List[List[str]] = []
        for record in records:
            response = resolver.dig(record.fqdn, RRType.NS, fresh=True)
            if recorder is not None:
                recorder.note_counter_dig(record.fqdn, response)
            record.ns_names.update(response.ns_names)
            ordered.append(list(response.ns_names))
        return ordered

    def resolve_ns_hostnames(
        self, ns_name_lists: Iterable[List[str]],
        into: Optional[Dict[str, Optional[IPv4Address]]] = None,
    ) -> Dict[str, Optional[IPv4Address]]:
        """NS-survey step 4b: resolve each distinct NS hostname once.

        Walks the per-record NS lists in order, resolving each hostname
        the first time it appears with the paper's flush-and-fresh
        discipline.  The fan-out build runs this on the parent only:
        the dedup set is global, so splitting it would re-pay (and
        re-side-effect) duplicate hostname resolutions per slice.  It
        passes ``into`` to resolve incrementally — one group's lists at
        a time against the accumulated dedup set, which visits
        hostnames in the same global first-seen order.
        """
        vantages = self.world.dns_vantages()
        survey_vantages = vantages[: min(10, len(vantages))]
        ns_addresses: Dict[str, Optional[IPv4Address]] = (
            into if into is not None else {}
        )
        for ns_names in ns_name_lists:
            for hostname in ns_names:
                if hostname in ns_addresses:
                    continue
                address: Optional[IPv4Address] = None
                for vantage in survey_vantages:
                    ns_resolver = self.world.resolver_for(vantage)
                    ns_resolver.flush_cache()
                    answer = ns_resolver.dig(hostname, fresh=True)
                    if answer.addresses:
                        address = answer.addresses[0]
                        break
                ns_addresses[hostname] = address
        return ns_addresses

    def ns_survey(
        self, records: List[SubdomainRecord]
    ) -> Dict[str, Optional[IPv4Address]]:
        """Collect and resolve each cloud-using subdomain's NS set."""
        return self.resolve_ns_hostnames(self.ns_dig_survey(records))

    # -- putting it together -----------------------------------------------------------

    def fans_out(self, workers: int) -> bool:
        """Whether :meth:`build` runs the forked fan-out driver.

        The fan-out needs fork-based pools and full published-range
        coverage: below 1.0 a subdomain's cloud classification can
        depend on *which* rotated answer a query index returns, so the
        filter's control flow would no longer be counter-independent
        and the merge could not replay it.  Given both, a deferred
        world always fans out (its tenants are deployed and released
        chunk by chunk), and a fully built one does when ``workers > 1``.
        """
        return (
            fork_pool_available()
            and self.range_coverage >= 1.0
            and (self.world.pending_tenants or workers > 1)
        )

    def build(self, workers: int = 0) -> AlexaSubdomainsDataset:
        """Run the full §2.1 pipeline.

        Where :meth:`fans_out` allows, the ranked domain list is cut
        into contiguous rank slices built in forked worker processes
        and merged back in rank order
        (:func:`repro.analysis.streambuild.build_fanout`); records, NS
        addresses, query counters, the event log and the deterministic
        metrics are bit-identical to the in-process build.  Otherwise
        the pipeline runs in-process, after a deferred world catches up
        to a batch-equivalent state.
        """
        if self.fans_out(workers):
            from repro.analysis.streambuild import build_fanout

            return build_fanout(self, workers)
        self.world.catch_up_tenants()
        tracer = self.obs.tracer
        with tracer.span("enumerate", category="dataset-step"):
            discovered, total = self.discover_subdomains()
        with tracer.span("filter", category="dataset-step"):
            cloud_using, cloudfront_using, other_cdn = (
                self.filter_cloud_using(discovered)
            )
        log.info(
            "dataset: %d discovered subdomains, %d cloud-using",
            total, len(cloud_using),
        )
        with tracer.span("distributed_lookups", category="dataset-step"):
            records = self.distributed_lookups(cloud_using)
            cloudfront_records = self.distributed_lookups(
                cloudfront_using
            )
        with tracer.span("ns_survey", category="dataset-step"):
            ns_name_lists = self.ns_dig_survey(records)
            ns_addresses = self.resolve_ns_hostnames(ns_name_lists)
        return AlexaSubdomainsDataset(
            records=records,
            discovered=discovered,
            ns_addresses=ns_addresses,
            total_discovered_subdomains=total,
            cloudfront_records=cloudfront_records,
            other_cdn_subdomains=other_cdn,
        )
