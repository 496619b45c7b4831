"""World assembly: one seed in, the entire simulated universe out.

:class:`World` wires the substrates together in dependency order —
DNS, EC2/Azure and their value-added services, the Alexa ranking, the
sampled deployment plans, their materialization, the wide-area models,
and (lazily) the packet capture.  Everything is a deterministic
function of :class:`WorldConfig`.

Ground truth (the plans) is exposed for *validation only*; the
measurement pipeline in :mod:`repro.analysis` works exclusively from
external observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.capture.generator import (
    CaptureConfig,
    CaptureGenerator,
    TrafficDomain,
)
from repro.capture.flow import Trace
from repro.cloud.azure import AzureCloud
from repro.cloud.base import InstanceRole
from repro.cloud.cdn import AzureCDN, CloudFront
from repro.cloud.ec2 import EC2Cloud
from repro.cloud.elb import ELBFleet
from repro.cloud.paas import BeanstalkPlatform, HerokuPlatform
from repro.cloud.route53 import Route53
from repro.dns.infrastructure import DnsInfrastructure
from repro.dns.resolver import StubResolver
from repro.internet.latency import LatencyModel
from repro.internet.routing import RoutingModel
from repro.internet.throughput import ThroughputModel
from repro.internet.vantage import CAMPUS_VANTAGE, VantagePoint, planetlab_sites
from repro.net.prefixset import PrefixSet
from repro.probing.directory import EndpointDirectory
from repro.probing.httpget import HttpDownloader
from repro.probing.ping import Prober
from repro.sim import Clock, StreamRegistry
from repro.workload.alexa import AlexaRanking
from repro.workload.customers import CustomerModel
from repro.workload.deploy import DeployedDomain, Deployer
from repro.workload.mixtures import Mixtures
from repro.workload.notable import capture_notables
from repro.workload.plans import DomainPlan, PlanGenerator


@dataclass
class WorldConfig:
    """Scale and seed knobs for one simulated universe."""

    seed: int = 7
    #: Alexa list size (the paper's 1M, scaled down; percentages in the
    #: analyses are scale-free).
    num_domains: int = 20_000
    #: Vantage points used for distributed DNS lookups when building
    #: the Alexa subdomains dataset (the paper used 200).
    num_dns_vantages: int = 24
    #: Vantage points for latency/throughput probing (the paper's 80).
    num_probe_vantages: int = 40
    #: Vantage points used as traceroute destinations (the paper's 200).
    num_traceroute_vantages: int = 60
    #: Fraction of Alexa cloud-using domains that show up in the campus
    #: capture, and how many capture-only domains to add per Alexa one.
    capture_visibility: float = 0.5
    capture_extra_ratio: float = 0.97
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    mixtures: Mixtures = field(default_factory=Mixtures)

    def __post_init__(self) -> None:
        if self.num_domains < 1:
            raise ValueError(
                f"num_domains must be positive: {self.num_domains}"
            )
        for name in (
            "num_dns_vantages", "num_probe_vantages",
            "num_traceroute_vantages",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.capture_visibility <= 1.0:
            raise ValueError(
                f"capture_visibility must be a fraction: "
                f"{self.capture_visibility}"
            )


class World:
    """The fully built simulation.

    With ``defer_tenants=True`` only the substrate — clouds, DNS, the
    ranking, the plan and deploy machinery — is built up front; the
    tenant population is deployed incrementally in rank order through
    :meth:`ensure_deployed_through` / :meth:`release_window` /
    :meth:`finalize_tenants` (the streaming chunked build), or all at
    once through :meth:`catch_up_tenants` (the batch fallback).  Every
    RNG substream is consumed in the same within-stream order either
    way, so the two construction modes are bit-identical.
    """

    def __init__(
        self, config: Optional[WorldConfig] = None,
        defer_tenants: bool = False,
    ):
        self.config = config or WorldConfig()
        self.streams = StreamRegistry(self.config.seed)
        self.clock = Clock()
        self.dns = DnsInfrastructure()
        # Clouds and their value-added services.
        self.ec2 = EC2Cloud(self.streams, self.dns)
        self.azure = AzureCloud(self.streams, self.dns)
        self.elb_fleet = ELBFleet(self.ec2)
        self.cloudfront = CloudFront(self.streams, self.dns)
        self.route53 = Route53(self.cloudfront, self.dns)
        self.heroku = HerokuPlatform(self.ec2, self.elb_fleet)
        self.beanstalk = BeanstalkPlatform(self.ec2, self.elb_fleet)
        self.azure_cdn = AzureCDN(self.azure)
        # Tenant population.
        self.alexa = AlexaRanking(
            self.config.num_domains, self.streams.stream("alexa")
        )
        self.plan_generator = PlanGenerator(
            self.config.mixtures, self.streams, self.alexa
        )
        self.defer_tenants = defer_tenants
        self._finalized = not defer_tenants
        self._released_tenants = False
        self._next_rank = 0
        self._deploy_window: List[DeployedDomain] = []
        self._n_cloud_plans = 0
        self._n_cloud_subdomains = 0
        self._customer_country: Dict[str, Optional[str]] = {}
        self._traffic: List[TrafficDomain] = []
        self._traffic_seen: set = set()
        self.plans: List[DomainPlan] = []
        self.capture_only_plans: List[DomainPlan] = []
        self.deployer = Deployer(
            streams=self.streams,
            dns=self.dns,
            ec2=self.ec2,
            azure=self.azure,
            elb_fleet=self.elb_fleet,
            beanstalk=self.beanstalk,
            heroku=self.heroku,
            cloudfront=self.cloudfront,
            azure_cdn=self.azure_cdn,
            route53=self.route53,
        )
        self.deployed: List[DeployedDomain] = []
        self.customers: Optional[CustomerModel] = None
        self.providers: Dict[str, object] = {
            "ec2": self.ec2,
            "azure": self.azure,
        }
        self.latency: Optional[LatencyModel] = None
        self.routing: Optional[RoutingModel] = None
        self.throughput: Optional[ThroughputModel] = None
        self.directory: Optional[EndpointDirectory] = None
        self.prober: Optional[Prober] = None
        self.downloader: Optional[HttpDownloader] = None
        self._capture_trace: Optional[Trace] = None
        self._resolvers: Dict[str, StubResolver] = {}
        if not defer_tenants:
            self.plans = self.plan_generator.generate()
            self.capture_only_plans = [
                self.plan_generator.plan_capture_only_domain(spec)
                for spec in capture_notables()
                if not spec.in_alexa or spec.rank > self.config.num_domains
            ]
            self.capture_only_plans.extend(self._offlist_cloud_plans())
            self.deployed = self.deployer.deploy_all(
                self.plans + self.capture_only_plans
            )
            self.customers = CustomerModel(
                self.plans + self.capture_only_plans
            )
            self._build_wan_substrate()

    def _build_wan_substrate(self) -> None:
        self.latency = LatencyModel(self.streams, self.providers)
        self.routing = RoutingModel(self.streams, self.providers)
        self.throughput = ThroughputModel(self.streams, self.latency)
        self.directory = EndpointDirectory([self.ec2, self.azure])
        self.prober = Prober(self.latency, self.directory)
        self.downloader = HttpDownloader(self.throughput)

    def _offlist_cloud_plans(
        self, n_alexa_cloud: Optional[int] = None
    ) -> List[DomainPlan]:
        """Cloud-using domains the capture sees but the Alexa list does
        not (roughly one per visible Alexa cloud domain in the paper:
        6,702 of 13,604)."""
        from repro.workload.names import DomainNameFactory

        if n_alexa_cloud is None:
            n_alexa_cloud = sum(1 for p in self.plans if p.is_cloud_using)
        count = int(
            n_alexa_cloud
            * self.config.capture_visibility
            * self.config.capture_extra_ratio
        )
        factory = DomainNameFactory(self.streams.stream("capture", "names"))
        for domain in self.alexa.domains():
            factory.reserve(domain)
        return [
            self.plan_generator.plan_offlist_cloud_domain(factory.fresh())
            for _ in range(count)
        ]

    # -- incremental tenant population (chunked builds) -----------------------

    @property
    def pending_tenants(self) -> bool:
        """True while a deferred world still owes tenant deployments."""
        return self.defer_tenants and not self._finalized

    def ensure_deployed_through(self, hi_rank: int) -> List[DeployedDomain]:
        """Plan and deploy ranked sites up to (excluding) ``hi_rank``.

        Sites are visited strictly in rank order, so the ``plans`` and
        ``deploy`` streams advance exactly as a whole-list build's
        would.  Returns the un-released deploy window.
        """
        if not self.pending_tenants:
            raise RuntimeError(
                "ensure_deployed_through needs a deferred, un-finalized "
                "world"
            )
        sites = self.alexa.sites
        hi = min(hi_rank, len(sites))
        while self._next_rank < hi:
            plan = self.plan_generator.plan_site(sites[self._next_rank])
            if plan.is_cloud_using:
                self._n_cloud_plans += 1
                self._n_cloud_subdomains += len(plan.cloud_subdomains())
            self._deploy_window.append(self.deployer.deploy_domain(plan))
            self._customer_country[plan.domain] = plan.customer_country
            self._next_rank += 1
        return self._deploy_window

    def _note_traffic_domain(self, deployed: DeployedDomain) -> bool:
        """One domain's slice of the batch :meth:`traffic_domains` loop.

        Called once per deployed domain *in deploy order*, it consumes
        the same ``capture/domains`` draws a whole-list pass would (the
        stream registry memoizes, so both modes advance one shared
        generator), and returns whether the capture will revisit the
        domain — the retention decision for its zone.
        """
        rng = self.streams.stream("capture", "domains")
        plan = deployed.plan
        if not plan.is_cloud_using or plan.domain in self._traffic_seen:
            return False
        cloud_subs = plan.cloud_subdomains()
        if not cloud_subs:
            return False
        provider = (
            "azure" if plan.category.startswith("azure") else "ec2"
        )
        notable = plan.notable
        capture_only = plan.rank is None and notable is None
        if notable is not None and notable.capture_share > 0:
            self._traffic.append(TrafficDomain(
                domain=plan.domain,
                provider=provider,
                hostnames=[s.fqdn for s in cloud_subs[:6]],
                byte_share=notable.capture_share,
                https_fraction=notable.https_fraction,
                storage_profile=notable.https_fraction > 0.8,
            ))
            self._traffic_seen.add(plan.domain)
            return True
        if capture_only or rng.random() < self.config.capture_visibility:
            self._traffic.append(TrafficDomain(
                domain=plan.domain,
                provider=provider,
                hostnames=[s.fqdn for s in cloud_subs[:4]],
            ))
            self._traffic_seen.add(plan.domain)
            return True
        return False

    def release_window(self) -> int:
        """Decide capture retention for the deploy window and release
        the rest.

        Retained domains (the capture's traffic domains) keep their
        zone and name-server registrations; everything else gives back
        its zone, its per-domain name servers, and the deployer's
        bookkeeping — the terms that grow linearly with rank.  Cloud
        instances and value-added services always stay: the WAN
        campaigns probe them.  Returns the number of zones released.
        """
        released = 0
        window_domains = []
        for deployed in self._deploy_window:
            domain = deployed.plan.domain
            window_domains.append(domain)
            keep = self._note_traffic_domain(deployed)
            if keep or deployed.plan.notable is not None:
                # Notables can share a zone with cloud service
                # infrastructure (msecnd.net is the Azure CDN's zone);
                # they are few, so retain them unconditionally.
                continue
            if self.dns.release_zone(domain):
                released += 1
            suffix = "." + domain
            for server in deployed.nameservers:
                if server.hostname.endswith(suffix):
                    self.dns.unregister_nameserver(server.hostname)
        self.deployer.release_domains(window_domains)
        self._deploy_window = []
        self._released_tenants = True
        return released

    def finalize_tenants(self) -> None:
        """Deploy the capture-only tail and build the WAN substrate.

        After this the world answers every query a batch-built one
        does; a releasing build's :meth:`traffic_domains` returns the
        list accumulated during :meth:`release_window`, a catch-up
        build keeps the batch code paths.
        """
        if self._finalized:
            raise RuntimeError("tenants already finalized")
        if self._next_rank < len(self.alexa.sites):
            raise RuntimeError(
                "finalize_tenants before all ranked sites deployed"
            )
        if self._released_tenants and self._deploy_window:
            raise RuntimeError("release_window the last chunk first")
        self.capture_only_plans = [
            self.plan_generator.plan_capture_only_domain(spec)
            for spec in capture_notables()
            if not spec.in_alexa or spec.rank > self.config.num_domains
        ]
        self.capture_only_plans.extend(
            self._offlist_cloud_plans(self._n_cloud_plans)
        )
        tail = self.deployer.deploy_all(self.capture_only_plans)
        if self._released_tenants:
            for deployed in tail:
                self._note_traffic_domain(deployed)
            # Capture-only zones stay (the capture digs them); only the
            # deployer's per-domain bookkeeping is reclaimed.
            self.deployer.release_domains(
                [d.plan.domain for d in tail]
            )
        else:
            # Catch-up: expose the batch-shaped views so every
            # downstream consumer takes the batch code paths.
            self.plans = [d.plan for d in self._deploy_window]
            self.deployed = self._deploy_window + tail
            self._deploy_window = []
        mapping = dict(self._customer_country)
        for plan in self.capture_only_plans:
            mapping[plan.domain] = plan.customer_country
        self.customers = CustomerModel.from_mapping(mapping)
        self._build_wan_substrate()
        self._finalized = True

    def catch_up_tenants(self) -> None:
        """Deploy every remaining tenant at once, batch-equivalently.

        The fallback when a deferred world reaches a consumer that
        cannot run the chunked build (partial range coverage, no fork
        support): the result is indistinguishable
        from a world built with ``defer_tenants=False``.
        """
        if not self.pending_tenants:
            return
        if self._released_tenants:
            raise RuntimeError("cannot catch up after tenant releases")
        self.ensure_deployed_through(len(self.alexa.sites))
        self.finalize_tenants()

    # -- introspection ---------------------------------------------------------

    def describe(self) -> Dict[str, int]:
        """Headline counts of the built world (ground truth side)."""
        if self._released_tenants:
            n_cloud = self._n_cloud_plans
            n_cloud_subs = self._n_cloud_subdomains
        else:
            cloud_plans = [p for p in self.plans if p.is_cloud_using]
            n_cloud = len(cloud_plans)
            n_cloud_subs = sum(
                len(p.cloud_subdomains()) for p in cloud_plans
            )
        return {
            "alexa_domains": len(self.alexa),
            "cloud_using_domains": n_cloud,
            "cloud_subdomains_planned": n_cloud_subs,
            "capture_only_domains": len(self.capture_only_plans),
            "ec2_instances": len(self.ec2.instances),
            "azure_instances": len(self.azure.instances),
            "azure_cloud_services": len(self.azure.cloud_services),
            "elb_logical": len(self.elb_fleet.all_load_balancers()),
            "elb_physical": len(self.elb_fleet.physical_proxies()),
            "heroku_apps": len(self.heroku.apps),
            "cloudfront_distributions": len(
                self.cloudfront.distributions
            ),
            "dns_zones": len(self.dns.zones()),
        }

    # -- published ranges ----------------------------------------------------

    def published_ranges(self) -> Dict[str, PrefixSet]:
        """Published cloud IP ranges by provider, plus CloudFront's."""
        return {
            "ec2": self.ec2.published_range_set(),
            "azure": self.azure.published_range_set(),
            "cloudfront": self.cloudfront.published_range_set(),
        }

    # -- vantage points -------------------------------------------------------

    def dns_vantages(self) -> List[VantagePoint]:
        return planetlab_sites(self.config.num_dns_vantages)

    def probe_vantages(self) -> List[VantagePoint]:
        return planetlab_sites(self.config.num_probe_vantages)

    def traceroute_vantages(self) -> List[VantagePoint]:
        return planetlab_sites(self.config.num_traceroute_vantages)

    def resolver_for(self, vantage: VantagePoint) -> StubResolver:
        """The vantage point's local caching resolver (one per node)."""
        resolver = self._resolvers.get(vantage.name)
        if resolver is None:
            resolver = StubResolver(self.dns, self.clock, vantage)
            self._resolvers[vantage.name] = resolver
        return resolver

    def resolvers(self) -> List[StubResolver]:
        """Every vantage resolver made so far, in creation order."""
        return list(self._resolvers.values())

    # -- ground truth (validation only) ------------------------------------------

    def plan_for(self, domain: str) -> Optional[DomainPlan]:
        deployed = self.deployer.deployed.get(domain)
        return deployed.plan if deployed else None

    # -- the packet capture -----------------------------------------------------

    def _capture_generator(self) -> CaptureGenerator:
        """A fresh border-capture generator with background targets set
        (consumes the ``capture/background`` stream)."""
        generator = CaptureGenerator(
            streams=self.streams,
            resolver=self.resolver_for(CAMPUS_VANTAGE),
            cloud_ranges={
                "ec2": self.ec2.published_range_set(),
                "azure": self.azure.published_range_set(),
            },
            config=self.config.capture,
        )
        generator.set_background_targets(self._background_targets())
        return generator

    def capture_trace(self) -> Trace:
        """The week-long campus capture (generated once, cached)."""
        if self._capture_trace is None:
            generator = self._capture_generator()
            self._capture_trace = generator.generate(self.traffic_domains())
        return self._capture_trace

    def adopt_capture_trace(self, trace: Trace) -> None:
        """Take a capture generated from this world's state elsewhere
        (an artifact-cache hit) as this world's capture."""
        self._capture_trace = trace

    def capture_summary(self, workers: int = 0, obs=None):
        """Stream-analyze the capture without materializing a trace.

        One pass of bounded-memory aggregation (optionally sharded by
        capture day when ``workers > 1``); totals match the batch
        analyzer's exactly — see :mod:`repro.capture.streaming`.
        """
        from repro.capture.streaming import streaming_capture_summary
        from repro.obs import NOOP

        return streaming_capture_summary(
            self, workers=workers, obs=obs if obs is not None else NOOP
        )

    def _background_targets(self):
        # Tenant instances only: the study's own probe fleets (the WAN
        # campaign's, the cartography methods') postdate the capture,
        # and leaving them out keeps the capture independent of which
        # measurements ran before it.
        rng = self.streams.stream("capture", "background")
        targets = {}
        for provider_name, provider in self.providers.items():
            instances = [
                inst for inst in provider.all_instances()
                if inst.public_ip is not None
                and inst.role is not InstanceRole.PROBE
            ]
            sample = rng.sample(instances, k=min(200, len(instances)))
            targets[provider_name] = [inst.public_ip for inst in sample]
        return targets

    def traffic_domains(self) -> List[TrafficDomain]:
        """The domains the campus population talks to.

        All capture notables (Table 5), a sampled slice of the other
        Alexa cloud-using domains, and the capture-only tail.  A
        releasing chunked build made these decisions while the tenants
        were still deployed, so it returns the accumulated list; the
        batch path draws them here.
        """
        if self._released_tenants:
            if not self._finalized:
                raise RuntimeError(
                    "traffic_domains before finalize_tenants"
                )
            return list(self._traffic)
        rng = self.streams.stream("capture", "domains")
        result: List[TrafficDomain] = []
        seen = set()
        for deployed in self.deployed:
            plan = deployed.plan
            if not plan.is_cloud_using or plan.domain in seen:
                continue
            cloud_subs = plan.cloud_subdomains()
            if not cloud_subs:
                continue
            provider = (
                "azure" if plan.category.startswith("azure") else "ec2"
            )
            notable = plan.notable
            capture_only = plan.rank is None and notable is None
            if notable is not None and notable.capture_share > 0:
                result.append(TrafficDomain(
                    domain=plan.domain,
                    provider=provider,
                    hostnames=[s.fqdn for s in cloud_subs[:6]],
                    byte_share=notable.capture_share,
                    https_fraction=notable.https_fraction,
                    storage_profile=notable.https_fraction > 0.8,
                ))
                seen.add(plan.domain)
            elif capture_only or rng.random() < self.config.capture_visibility:
                result.append(TrafficDomain(
                    domain=plan.domain,
                    provider=provider,
                    hostnames=[s.fqdn for s in cloud_subs[:4]],
                ))
                seen.add(plan.domain)
        return result
