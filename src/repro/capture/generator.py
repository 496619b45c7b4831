"""Generating the week-long campus border capture.

The generator is **budget driven** on two axes so that the capture
reproduces both Table 1 (per-cloud bytes *and* flows) and Table 2
(per-cloud protocol mix by bytes and flows): every (cloud, protocol)
cell gets a byte budget and a flow budget, the byte budget is divided
over domains (planted Table 5 shares first, a Zipf tail for the rest),
each domain gets flows in proportion to its bytes, and flow sizes are
drawn from heavy-tailed shape distributions then rescaled to meet the
domain budget exactly.  Content types follow Table 6's mixture.

Destination addresses come from *resolving the domains' names through
the simulated DNS* — the capture reflects the same deployments the
Alexa dataset measures — and the capture filter keeps only flows whose
destination falls within EC2/Azure published ranges, exactly as
tcpdump at the border did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.capture.flow import FlowRecord, Trace
from repro.dns.resolver import StubResolver
from repro.flags import columnar_runtime_enabled
from repro.net.ipv4 import IPv4Address
from repro.net.prefixset import PrefixSet
from repro.sampling import IndexedWeightedChooser, WeightedChooser
from repro.sim import StreamRegistry

#: HTTP content types: (name, byte share within HTTP, mean object bytes,
#: max object bytes) — Table 6, with the remainder split over common
#: small types the table truncates.
CONTENT_TYPES: Tuple[Tuple[str, float, int, int], ...] = (
    ("text/html", 0.2410, 16_000, 3_700_000),
    ("text/plain", 0.2337, 5_000, 24_400_000),
    ("image/jpeg", 0.1064, 20_000, 18_700_000),
    ("application/x-shockwave-flash", 0.0866, 36_000, 22_900_000),
    ("application/octet-stream", 0.0785, 29_000, 2_147_000_000),
    ("application/pdf", 0.0315, 656_000, 25_700_000),
    ("text/xml", 0.0310, 5_000, 4_900_000),
    ("image/png", 0.0294, 6_000, 24_900_000),
    ("application/zip", 0.0281, 1_664_000, 5_010_000_000),
    ("video/mp4", 0.0221, 6_578_000, 143_000_000),
    ("text/css", 0.0400, 7_000, 2_000_000),
    ("application/javascript", 0.0400, 11_000, 4_000_000),
    ("image/gif", 0.0317, 9_000, 8_000_000),
)

#: Per-cloud flow-count mix (Table 2 flow columns, normalized).
FLOW_MIX: Dict[str, Dict[str, float]] = {
    "ec2": {
        "http": 0.8013, "https": 0.0742, "dns": 0.1175,
        "icmp": 0.0003, "other_tcp": 0.0045, "other_udp": 0.0022,
    },
    "azure": {
        "http": 0.6543, "https": 0.0692, "dns": 0.1159,
        "icmp": 0.0018, "other_tcp": 0.0110, "other_udp": 0.1477,
    },
}

#: Per-cloud byte mix (Table 2 byte columns).
BYTE_MIX: Dict[str, Dict[str, float]] = {
    "ec2": {
        "http": 0.1626, "https": 0.8090, "dns": 0.0011,
        "icmp": 0.0001, "other_tcp": 0.0240, "other_udp": 0.0028,
    },
    "azure": {
        "http": 0.5997, "https": 0.3720, "dns": 0.0010,
        "icmp": 0.0001, "other_tcp": 0.0241, "other_udp": 0.0031,
    },
}

#: Target split of total capture bytes/flows between clouds (Table 1).
CLOUD_BYTE_SPLIT = {"ec2": 0.8173, "azure": 0.1827}
CLOUD_FLOW_SPLIT = {"ec2": 0.8070, "azure": 0.1930}

_HEADER_BYTES = 600
_MIN_FLOW_BYTES = 80


@dataclass(slots=True)
class TrafficDomain:
    """One domain contributing HTTP(S) traffic to the capture."""

    domain: str
    provider: str  # 'ec2' | 'azure'
    hostnames: List[str]
    #: Byte budget as a percentage of total HTTP(S) bytes (Table 5), or
    #: None for a Zipf-shared tail domain.
    byte_share: Optional[float] = None
    https_fraction: Optional[float] = None
    #: Storage services (Dropbox-like) move much larger HTTPS objects.
    storage_profile: bool = False


@dataclass
class CaptureConfig:
    """Scale knobs for the generated capture."""

    #: Total capture bytes ("1.4 TB", scaled down).
    total_bytes: int = 700_000_000
    #: Total capture flows; sets the overall mean flow size.
    total_flows: int = 28_000
    capture_days: int = 7
    num_clients: int = 1500


class CaptureGenerator:
    """Expands traffic domains into a :class:`Trace`."""

    def __init__(
        self,
        streams: StreamRegistry,
        resolver: StubResolver,
        cloud_ranges: Dict[str, PrefixSet],
        config: Optional[CaptureConfig] = None,
    ):
        self.streams = streams
        self.resolver = resolver
        self.cloud_ranges = cloud_ranges
        self.config = config or CaptureConfig()
        self.rng = streams.stream("capture")
        self._ct_mean = {name: mean for name, _, mean, _ in CONTENT_TYPES}
        self._ct_max = {name: cap for name, _, _, cap in CONTENT_TYPES}
        total_share = sum(share for _, share, _, _ in CONTENT_TYPES)
        # The per-flow weighted draws (content type, client, and hour of
        # day) are compiled once; WeightedChooser replays random.choices
        # bit-for-bit at O(log n) per draw.
        self._ct_chooser = WeightedChooser(
            [name for name, *_ in CONTENT_TYPES],
            [
                (share / total_share) / mean
                for _, share, mean, _ in CONTENT_TYPES
            ],
        )
        # The campus population is implicit: the chooser holds only the
        # packed cumulative weights (8 bytes/client — a paper-tier
        # capture observes millions of clients) and the name is
        # formatted from the drawn index on demand.  Draw-identical to
        # the old WeightedChooser over pre-built name strings.
        self._client_chooser = IndexedWeightedChooser(
            1.0 / (i + 1) ** 0.6 for i in range(self.config.num_clients)
        )
        self._hour_chooser = WeightedChooser(
            range(24),
            [
                1.0 + 0.8 * math.sin(math.pi * (h - 6) / 16.0)
                if 6 <= h <= 22 else 0.35
                for h in range(24)
            ],
        )
        self._fallback_ips: Dict[str, List[IPv4Address]] = {}

    # -- small helpers ------------------------------------------------------

    def set_background_targets(
        self, targets: Dict[str, Sequence[IPv4Address]]
    ) -> None:
        """Cloud addresses for non-HTTP background flows, per provider."""
        self._fallback_ips = {
            provider: list(addresses)
            for provider, addresses in targets.items()
        }

    def _timestamp(self) -> float:
        day = self.rng.randrange(self.config.capture_days)
        hour = self._hour_chooser.choose(self.rng)
        return day * 86400.0 + hour * 3600.0 + self.rng.random() * 3600.0

    def _client(self) -> str:
        return f"campus-{self._client_chooser.choose(self.rng):05d}"

    def _duration_for(self, size: int, persistent_ok: bool = False) -> float:
        """Transfer time, plus (for eligible flows) a long-lived hold.

        A slice of HTTPS connections are persistent — storage-client
        notify channels and the like — and stay open for minutes to
        hours after moving few bytes, giving §3.3 its hours-long tail.
        """
        rate = self.rng.lognormvariate(math.log(250_000), 1.0)
        duration = max(0.01, size / max(rate, 10_000.0))
        if persistent_ok and self.rng.random() < 0.06:
            duration += self.rng.expovariate(1.0 / 2500.0)
        return duration

    def _resolve_targets(self, td: TrafficDomain) -> List[IPv4Address]:
        """Cloud addresses the domain's hostnames resolve to (capture
        filter applied: only EC2/Azure published ranges)."""
        ranges = self.cloud_ranges[td.provider]
        addresses: List[IPv4Address] = []
        for hostname in td.hostnames[:4]:
            response = self.resolver.dig(hostname)
            for addr in response.addresses:
                if addr in ranges and addr not in addresses:
                    addresses.append(addr)
        return addresses

    # -- size shapes ----------------------------------------------------------

    def _http_shape(self, count: int) -> List[Tuple[str, int]]:
        """``count`` (content type, object size) draws from Table 6."""
        draws = []
        for _ in range(count):
            name = self._ct_chooser.choose(self.rng)
            mean = self._ct_mean[name]
            sigma = 1.4
            mu = math.log(mean) - sigma * sigma / 2.0
            size = int(self.rng.lognormvariate(mu, sigma)) + 1
            draws.append((name, min(size, self._ct_max[name])))
        return draws

    def _https_shape(self, count: int, storage: bool) -> List[int]:
        sigma = 2.2 if storage else 1.7
        median = 25_000 if storage else 6_000
        return [
            int(self.rng.lognormvariate(math.log(median), sigma)) + 1
            for _ in range(count)
        ]

    # -- generation -----------------------------------------------------------

    def generate(self, domains: Sequence[TrafficDomain]) -> Trace:
        if columnar_runtime_enabled():
            from repro.columnar.capture import generate_columnar

            # Bit-identical draws and ordering; see
            # repro.columnar.capture.
            return generate_columnar(self, domains)
        trace = Trace(self.iter_flows(domains))
        trace.sort_by_time()
        return trace

    def iter_flows(
        self, domains: Sequence[TrafficDomain]
    ) -> Iterator[FlowRecord]:
        """Yield every capture flow in scalar generation order.

        This is the streaming entry point: the flows come out in *draw*
        order (per provider, HTTP(S) before background), not time
        order, and nothing is retained between yields — a one-pass
        consumer sees the whole capture in O(1) flow memory.  The
        batch :meth:`generate` is exactly ``Trace(iter_flows(...))``
        plus the stable time sort, so both paths consume the
        ``capture`` RNG stream identically.
        """
        for provider in ("ec2", "azure"):
            cloud_bytes = self.config.total_bytes * CLOUD_BYTE_SPLIT[provider]
            cloud_flows = self.config.total_flows * CLOUD_FLOW_SPLIT[provider]
            members = [d for d in domains if d.provider == provider]
            yield from self._iter_httpx(
                members, provider, cloud_bytes, cloud_flows
            )
            yield from self._iter_background(
                provider, cloud_bytes, cloud_flows
            )

    def _domain_budgets(
        self,
        domains: List[TrafficDomain],
        provider: str,
        proto: str,
        proto_bytes: float,
    ) -> Dict[str, float]:
        """Byte budget per domain within one (cloud, protocol) cell.

        Planted Table 5 shares are percentages of *total* HTTP(S)
        bytes across both clouds; the tail shares what remains,
        Zipf-weighted in a shuffled order.
        """
        total_httpx = self.config.total_bytes * sum(
            CLOUD_BYTE_SPLIT[p] * (BYTE_MIX[p]["http"] + BYTE_MIX[p]["https"])
            for p in ("ec2", "azure")
        )
        budgets: Dict[str, float] = {}
        planted_total = 0.0
        tail: List[TrafficDomain] = []
        for td in domains:
            if td.byte_share is None:
                tail.append(td)
                continue
            https_fraction = (
                td.https_fraction if td.https_fraction is not None else 0.25
            )
            fraction = (
                https_fraction if proto == "https" else 1.0 - https_fraction
            )
            amount = total_httpx * td.byte_share / 100.0 * fraction
            budgets[td.domain] = amount
            planted_total += amount
        remainder = max(0.0, proto_bytes - planted_total)
        if tail and remainder > 0:
            order = list(range(len(tail)))
            self.rng.shuffle(order)
            weights = [1.0 / (i + 1) ** 1.1 for i in range(len(tail))]
            total_weight = sum(weights)
            for position, idx in enumerate(order):
                budgets[tail[idx].domain] = (
                    remainder * weights[position] / total_weight
                )
        return budgets

    def _iter_httpx(
        self,
        domains: List[TrafficDomain],
        provider: str,
        cloud_bytes: float,
        cloud_flows: float,
    ) -> Iterator[FlowRecord]:
        mix_f = FLOW_MIX[provider]
        mix_b = BYTE_MIX[provider]
        targets_by_domain = {
            td.domain: self._resolve_targets(td) for td in domains
        }
        for proto in ("http", "https"):
            proto_bytes = cloud_bytes * mix_b[proto]
            proto_flows = max(1, round(cloud_flows * mix_f[proto]))
            budgets = self._domain_budgets(
                domains, provider, proto, proto_bytes
            )
            budget_total = sum(budgets.values()) or 1.0
            for td in domains:
                targets = targets_by_domain[td.domain]
                budget = budgets.get(td.domain, 0.0)
                if not targets or budget <= 0:
                    continue
                n_flows = max(
                    1, round(proto_flows * budget / budget_total)
                )
                if proto == "http":
                    yield from self._iter_http(td, targets, budget, n_flows)
                else:
                    yield from self._iter_https(td, targets, budget, n_flows)

    def _iter_http(
        self, td, targets, budget: float, n_flows: int
    ) -> Iterator[FlowRecord]:
        draws = self._http_shape(n_flows)
        drawn_total = sum(size for _, size in draws) or 1
        scale = max(0.0, budget - n_flows * _HEADER_BYTES) / drawn_total
        for content_type, raw_size in draws:
            size = max(1, int(raw_size * scale))
            size = min(size, self._ct_max[content_type])
            yield FlowRecord(
                ts=self._timestamp(),
                duration=self._duration_for(size),
                src=self._client(),
                dst=self.rng.choice(targets),
                proto="tcp",
                dport=80,
                total_bytes=size + _HEADER_BYTES,
                http_host=self.rng.choice(td.hostnames),
                content_type=content_type,
                content_length=size,
            )

    def _iter_https(
        self, td, targets, budget: float, n_flows: int
    ) -> Iterator[FlowRecord]:
        sizes = self._https_shape(n_flows, td.storage_profile)
        drawn_total = sum(sizes) or 1
        scale = max(0.0, budget - n_flows * _HEADER_BYTES) / drawn_total
        for raw_size in sizes:
            size = max(1, int(raw_size * scale)) + _HEADER_BYTES
            yield FlowRecord(
                ts=self._timestamp(),
                duration=self._duration_for(size, persistent_ok=True),
                src=self._client(),
                dst=self.rng.choice(targets),
                proto="tcp",
                dport=443,
                total_bytes=size,
                tls_common_name=td.domain,
            )

    def _iter_background(
        self, provider: str, cloud_bytes: float, cloud_flows: float
    ) -> Iterator[FlowRecord]:
        """DNS, ICMP, and other TCP/UDP flows per the cloud's mix."""
        targets = self._fallback_ips.get(provider)
        if not targets:
            return
        mix_f = FLOW_MIX[provider]
        mix_b = BYTE_MIX[provider]
        for kind in ("dns", "icmp", "other_tcp", "other_udp"):
            n_flows = round(cloud_flows * mix_f[kind])
            if n_flows <= 0:
                continue
            byte_budget = cloud_bytes * mix_b[kind]
            proto = {"dns": "udp", "icmp": "icmp",
                     "other_tcp": "tcp", "other_udp": "udp"}[kind]
            sizes = [
                max(
                    _MIN_FLOW_BYTES,
                    int(self.rng.lognormvariate(math.log(300), 0.8)),
                )
                for _ in range(n_flows)
            ]
            scale = byte_budget / (sum(sizes) or 1)
            for raw_size in sizes:
                if kind == "dns":
                    dport = 53
                elif kind == "other_tcp":
                    dport = self.rng.choice((25, 21, 22, 6667, 8080, 41))
                elif kind == "other_udp":
                    dport = self.rng.choice((123, 4500, 5004, 3478))
                else:
                    dport = 0
                size = max(_MIN_FLOW_BYTES, int(raw_size * scale))
                yield FlowRecord(
                    ts=self._timestamp(),
                    duration=self._duration_for(size),
                    src=self._client(),
                    dst=self.rng.choice(targets),
                    proto=proto,
                    dport=dport,
                    total_bytes=size,
                )
