"""Wide-area performance and fault tolerance (§5).

Reproduces the paper's active-measurement campaign: m1.medium
instances in every EC2 zone, geographically spread PlanetLab clients
pinging them and fetching a 2 MB object repeatedly over several days,
plus traceroutes from every zone to count downstream ISPs.

Products: per-client per-region latency/throughput averages (Figures
9-10), a best-region-over-time series (Figure 11), the optimal
k-region deployment frontier (Figure 12), and the downstream-ISP
diversity table (Table 16).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.engine import CampaignEngine
from repro.campaign.model import ProbeKind, ProbePolicy
from repro.campaign.probes import TracerouteCampaign, WanMeasurementCampaign
from repro.cloud.base import Instance, InstanceRole, InstanceType
from repro.faults.scenarios import OutageScenario
from repro.internet.vantage import VantagePoint
from repro.obs import NOOP, Observability
from repro.probing.traceroute import TracerouteTool
from repro.sim import advance_gauss
from repro.world import World

#: Account the measurement instances run under.
WAN_ACCOUNT = "wan-measurement"

US_REGIONS = ("us-east-1", "us-west-1", "us-west-2")


@dataclass
class WanConfig:
    """Scale knobs for the WAN campaign (paper values in comments)."""

    rounds: int = 36            # paper: 288 (every 15 min for 3 days)
    round_seconds: float = 7200.0   # paper: 900
    pings_per_round: int = 3    # paper: 5
    instances_per_zone: int = 2  # paper: 2
    traceroute_instances_per_zone: int = 3  # paper: 3
    #: Fan the measurement rounds out over this many forked workers.
    #: 0 or 1 keeps the campaign sequential; any value produces
    #: bit-identical series.  (The DNS dataset stage shards the same
    #: way — see ``repro.analysis.shards`` — so one ``--workers`` knob
    #: drives both campaigns.)
    workers: int = 0


class WanAnalysis:
    """Runs the §5 measurements over a world.

    ``world`` may be a built :class:`World` or a zero-argument provider
    returning one; with a provider, the world is only constructed when
    something actually needs it.  Combined with ``clients``/``regions``
    overrides and :meth:`preload_measurements`, an analysis revived from
    cached matrices answers every matrix-derived question — figures
    9-12, headline statistics — without ever building a world.

    All active measurement runs through the
    :class:`~repro.campaign.engine.CampaignEngine`; ``scenario`` puts
    every campaign under an outage drill (down regions/zones time the
    probes out, failed ISPs strand traceroutes) and ``policy`` sets the
    engine's retry/timeout/loss semantics.
    """

    def __init__(
        self,
        world: Union[World, Callable[[], World]],
        config: Optional[WanConfig] = None,
        clients: Optional[Sequence[VantagePoint]] = None,
        regions: Optional[Sequence[str]] = None,
        scenario: Optional[OutageScenario] = None,
        policy: Optional[ProbePolicy] = None,
        obs: Observability = NOOP,
    ):
        if callable(world):
            self._world: Optional[World] = None
            self._world_provider = world
        else:
            self._world = world
            self._world_provider = None
        self.config = config or WanConfig()
        self.scenario = scenario
        self.policy = policy
        #: Observability plane, threaded into every engine campaign
        #: this analysis runs (campaign spans, probe counters, events).
        self.obs = obs
        self._clients = list(clients) if clients is not None else None
        self._regions = list(regions) if regions is not None else None
        self._instances: Optional[Dict[str, List[Instance]]] = None
        self._latency: Optional[Dict[Tuple[str, str], List[float]]] = None
        self._throughput: Optional[Dict[Tuple[str, str], List[float]]] = None
        #: Called once with (latency, throughput) right after a campaign
        #: fills the matrices; the artifact cache stores them from here.
        self.on_measured: Optional[Callable] = None

    @property
    def world(self) -> World:
        if self._world is None:
            self._world = self._world_provider()
        return self._world

    @property
    def clients(self) -> List[VantagePoint]:
        if self._clients is None:
            self._clients = self.world.probe_vantages()
        return self._clients

    @property
    def regions(self) -> List[str]:
        if self._regions is None:
            self._regions = list(self.world.ec2.region_names())
        return self._regions

    def preload_measurements(
        self,
        latency: Dict[Tuple[str, str], List[float]],
        throughput: Dict[Tuple[str, str], List[float]],
    ) -> None:
        """Adopt cached campaign matrices; :meth:`_measure` becomes a
        no-op, so neither the fleet nor the world is ever built."""
        self._latency = dict(latency)
        self._throughput = dict(throughput)

    def replay_side_effects(self) -> None:
        """Reproduce the world mutations a real campaign would make.

        Serving the matrices from the artifact cache skips
        :meth:`_measure`, but the campaign's *world* side effects — the
        launched measurement fleet and the jitter/noise stream draws —
        are state later direct consumers of the world may depend on.
        Launching the fleet and fast-forwarding the streams past the
        campaign (the per-round draw counts are exact, see
        :meth:`~repro.campaign.probes.WanMeasurementCampaign.stream_advances`)
        restores that state at a fraction of the measurement cost.
        """
        campaign = self._campaign()
        rounds = self.config.rounds
        for stream, per_round in campaign.stream_advances(self.scenario):
            advance_gauss(stream, rounds * per_round)

    # -- instance fleet ----------------------------------------------------

    def instances(self) -> Dict[str, List[Instance]]:
        """Measurement instances per region (N per zone)."""
        if self._instances is None:
            fleet: Dict[str, List[Instance]] = defaultdict(list)
            for region_name in self.regions:
                region = self.world.ec2.region(region_name)
                for zone in range(region.num_zones):
                    for _ in range(self.config.instances_per_zone):
                        fleet[region_name].append(
                            self.world.ec2.launch_instance(
                                account_id=WAN_ACCOUNT,
                                region_name=region_name,
                                physical_zone=zone,
                                itype=InstanceType.M1_MEDIUM,
                                role=InstanceRole.PROBE,
                            )
                        )
            self._instances = dict(fleet)
        return self._instances

    # -- the measurement campaign ----------------------------------------------

    def _engine(self) -> CampaignEngine:
        return CampaignEngine(
            self.world.streams.seed,
            scenario=self.scenario,
            policy=self.policy,
            obs=self.obs,
        )

    def _campaign(self) -> WanMeasurementCampaign:
        """The §5 grid: clients × the flattened region-ordered fleet."""
        fleet = self.instances()
        pairs = [
            (region_name, instance)
            for region_name in self.regions
            for instance in fleet[region_name]
        ]
        return WanMeasurementCampaign(
            self.world,
            self.clients,
            pairs,
            rounds=self.config.rounds,
            round_seconds=self.config.round_seconds,
            pings_per_round=self.config.pings_per_round,
        )

    def _columnar_measure(self) -> bool:
        """Run the batched matrix fill unless the input needs the engine.

        The columnar path reproduces the plain campaign bit for bit
        (matrices, stream positions, span and deterministic metrics) —
        see :mod:`repro.columnar.wan` — but it does not model outage
        scenarios, non-default probe policies, or per-record event
        emission, so any of those leaves the fill to the engine.
        Worker fan-out is ignored on purpose: the engine's sharding is
        bit-identical to sequential, and the batched fill outruns it.
        """
        if self.scenario is not None or self.obs.events.enabled:
            return False
        if self.policy is not None and not self.policy.is_default:
            return False
        from repro.columnar.wan import measure_columnar

        measure_columnar(self)
        return True

    def _measure(self) -> None:
        """Fill the latency and throughput matrices.

        Keys are (client name, region); values are one sample per
        round: the mean ping RTT (ms) and the measured download rate
        (KB/s) averaged over the region's instances.
        """
        if self._latency is not None:
            return
        if not self._columnar_measure():
            self._engine_measure()
        if self.on_measured is not None:
            self.on_measured(self._latency, self._throughput)

    def _engine_measure(self) -> None:
        """Fill the matrices from a campaign run through the engine.

        The engine fans the rounds out over ``config.workers`` forked
        workers; the matrices are bit-identical to a sequential
        campaign and to the batched columnar fill.
        """
        campaign = self._campaign()
        result = self._engine().run(campaign, workers=self.config.workers)
        latency: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        throughput: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        records = result.records
        index = 0
        for _round in range(campaign.rounds):
            for client in self.clients:
                rtts_by_region: Dict[str, List[float]] = defaultdict(list)
                rates_by_region: Dict[str, List[float]] = defaultdict(list)
                for region_name, _instance in campaign.pairs:
                    ping_record = records[index]
                    get_record = records[index + 1]
                    index += 2
                    ping = ping_record.payload
                    if ping_record.observed and ping.responded:
                        valid = [r for r in ping.rtts_ms if r is not None]
                        rtts_by_region[region_name].append(
                            sum(valid) / len(valid)
                        )
                    download = get_record.payload
                    if get_record.observed and download.completed:
                        rates_by_region[region_name].append(
                            download.rate_kb_per_s
                        )
                for region_name in self.regions:
                    key = (client.name, region_name)
                    rtts = rtts_by_region.get(region_name, [])
                    rates = rates_by_region.get(region_name, [])
                    latency[key].append(
                        sum(rtts) / len(rtts) if rtts else float("nan")
                    )
                    throughput[key].append(
                        sum(rates) / len(rates) if rates else 0.0
                    )
        self._latency = dict(latency)
        self._throughput = dict(throughput)

    def latency_series(self, client_name: str, region: str) -> List[float]:
        self._measure()
        return self._latency[(client_name, region)]

    def throughput_series(self, client_name: str, region: str) -> List[float]:
        self._measure()
        return self._throughput[(client_name, region)]

    # -- Figures 9 and 10 ------------------------------------------------------------

    def per_client_region_averages(
        self,
        regions: Sequence[str] = US_REGIONS,
        max_clients: int = 15,
    ) -> List[dict]:
        """Average latency/throughput per (client, US region)."""
        self._measure()
        rows = []
        for client in self.clients[:max_clients]:
            entry = {"client": client.name}
            for region in regions:
                lat = self._latency[(client.name, region)]
                thr = self._throughput[(client.name, region)]
                valid = [v for v in lat if v == v]  # drop NaNs
                entry[f"latency_ms:{region}"] = (
                    sum(valid) / len(valid) if valid else float("nan")
                )
                entry[f"throughput_kbps:{region}"] = (
                    sum(thr) / len(thr) if thr else 0.0
                )
            rows.append(entry)
        return rows

    def region_average(self, region: str, metric: str = "latency") -> float:
        """Average across all clients and rounds for one region."""
        self._measure()
        table = self._latency if metric == "latency" else self._throughput
        values = [
            v
            for (_, r), series in table.items()
            if r == region
            for v in series
            if v == v
        ]
        return sum(values) / len(values) if values else float("nan")

    # -- Figure 11 ----------------------------------------------------------------------

    def best_region_flips(
        self,
        client_name: str,
        regions: Sequence[str] = US_REGIONS,
    ) -> dict:
        """Per-round best region for one client, and how often it flips."""
        self._measure()
        best: List[str] = []
        for round_index in range(self.config.rounds):
            candidates = [
                (self._latency[(client_name, region)][round_index], region)
                for region in regions
            ]
            candidates = [(v, r) for v, r in candidates if v == v]
            best.append(min(candidates)[1] if candidates else "none")
        flips = sum(
            1 for a, b in zip(best, best[1:]) if a != b
        )
        return {
            "best_by_round": best,
            "flips": flips,
            "distinct_best": len(set(best)),
        }

    # -- Figure 12 ---------------------------------------------------------------------------

    def optimal_k_regions(self, metric: str = "latency") -> List[dict]:
        """The optimal k-region deployment frontier.

        For each k, enumerate all size-k region subsets, score each by
        the mean over clients and rounds of the per-round best region
        in the subset, and keep the best subset.
        """
        self._measure()
        table = self._latency if metric == "latency" else self._throughput
        better = min if metric == "latency" else max
        frontier = []
        for k in range(1, len(self.regions) + 1):
            best_score: Optional[float] = None
            best_subset: Optional[Tuple[str, ...]] = None
            for subset in combinations(self.regions, k):
                total = 0.0
                count = 0
                for client in self.clients:
                    for round_index in range(self.config.rounds):
                        values = [
                            table[(client.name, region)][round_index]
                            for region in subset
                        ]
                        values = [v for v in values if v == v]
                        if not values:
                            continue
                        total += better(values)
                        count += 1
                if count == 0:
                    continue
                score = total / count
                if best_score is None or (
                    score < best_score
                    if metric == "latency"
                    else score > best_score
                ):
                    best_score = score
                    best_subset = subset
            frontier.append({
                "k": k,
                "score": best_score,
                "regions": best_subset,
            })
        return frontier

    @staticmethod
    def improvement_at_k(frontier: List[dict], k: int) -> float:
        """Relative change of the metric at k versus k=1."""
        base = frontier[0]["score"]
        at_k = frontier[k - 1]["score"]
        return (base - at_k) / base

    # -- §5.1: performance across zones of one region ----------------------------

    def zone_performance_comparison(self, region_name: str) -> dict:
        """Per-zone latency/throughput averages within one region.

        The paper found "the zone has little impact on latency" while
        throughput varied somewhat more (local contention).  Returns
        per-zone means and the relative spread of each metric.
        """
        self._measure()
        fleet = self.instances()[region_name]
        by_zone: Dict[int, List[Instance]] = defaultdict(list)
        for instance in fleet:
            by_zone[instance.zone_index].append(instance)
        engine = self._engine()
        latency_means: Dict[int, float] = {}
        throughput_means: Dict[int, float] = {}
        for zone, instances in sorted(by_zone.items()):
            campaign = WanMeasurementCampaign(
                self.world,
                self.clients[:20],
                [(region_name, instance) for instance in instances],
                rounds=self.config.rounds,
                round_seconds=self.config.round_seconds,
                pings_per_round=1,
                name=f"wan-zone:{region_name}#{zone}",
            )
            result = engine.run(campaign, workers=self.config.workers)
            rtts: List[float] = []
            rates: List[float] = []
            for record in result.records:
                if not record.observed:
                    continue
                if record.task.kind is ProbeKind.TCP_PING:
                    if record.payload.min_ms is not None:
                        rtts.append(record.payload.min_ms)
                elif record.payload.completed:
                    rates.append(record.payload.rate_kb_per_s)
            latency_means[zone] = sum(rtts) / len(rtts) if rtts else 0.0
            throughput_means[zone] = (
                sum(rates) / len(rates) if rates else 0.0
            )

        def relative_spread(values: Dict[int, float]) -> float:
            numbers = list(values.values())
            mean = sum(numbers) / len(numbers)
            return (max(numbers) - min(numbers)) / mean if mean else 0.0

        return {
            "latency_ms_by_zone": latency_means,
            "throughput_kbps_by_zone": throughput_means,
            "latency_relative_spread": relative_spread(latency_means),
            "throughput_relative_spread": relative_spread(
                throughput_means
            ),
        }

    # -- Table 16: ISP diversity ----------------------------------------------------------------

    def isp_diversity(self) -> Dict[str, dict]:
        """Distinct downstream ISPs per region and zone, plus the
        unevenness of the route spread."""
        vantages = self.world.traceroute_vantages()
        tool = TracerouteTool(
            self.world.routing, self.world.ec2.published_range_set()
        )
        engine = self._engine()
        result: Dict[str, dict] = {}
        for region_name in self.regions:
            region = self.world.ec2.region(region_name)
            instances: List[Instance] = []
            zone_of: Dict[str, int] = {}
            for zone in range(region.num_zones):
                for _ in range(self.config.traceroute_instances_per_zone):
                    instance = self.world.ec2.launch_instance(
                        account_id=WAN_ACCOUNT,
                        region_name=region_name,
                        physical_zone=zone,
                        itype=InstanceType.M1_MEDIUM,
                        role=InstanceRole.PROBE,
                    )
                    instances.append(instance)
                    zone_of[instance.instance_id] = zone
            campaign = TracerouteCampaign(
                tool, instances, vantages,
                name=f"traceroute:{region_name}",
            )
            sweep = engine.run(campaign, workers=self.config.workers)
            zone_ases: Dict[int, set] = defaultdict(set)
            route_counter: Counter = Counter()
            for record in sweep.records:
                if not record.observed:
                    continue
                asn = record.payload.first_external_asn
                if asn is None:
                    continue
                zone = zone_of[record.task.target]
                zone_ases[zone].add(asn)
                route_counter[asn] += 1
            total_routes = sum(route_counter.values()) or 1
            top_share = (
                route_counter.most_common(1)[0][1] / total_routes
                if route_counter else 0.0
            )
            result[region_name] = {
                "per_zone": {
                    zone: len(ases) for zone, ases in zone_ases.items()
                },
                "region_total": len(
                    set().union(*zone_ases.values()) if zone_ases else set()
                ),
                "top_isp_route_share": top_share,
            }
        return result
