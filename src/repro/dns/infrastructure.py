"""The global DNS namespace: zones plus the name servers hosting them.

:class:`DnsInfrastructure` is the single authority the stub resolvers
query.  It performs longest-suffix zone matching (a stand-in for the
delegation walk a real recursive resolver performs) and tracks, for every
zone, which :class:`NameServer` hosts it — the paper classifies those
server addresses against cloud IP ranges in §4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dns.records import RRType, ResourceRecord, normalize_name, parent_of
from repro.dns.zone import Zone
from repro.flags import columnar_runtime_enabled
from repro.net.ipv4 import IPv4Address


@dataclass(frozen=True, slots=True)
class NameServer:
    """An authoritative name server: a hostname and its address."""

    hostname: str
    address: IPv4Address

    def __post_init__(self) -> None:
        object.__setattr__(self, "hostname", normalize_name(self.hostname))


class DnsInfrastructure:
    """Registry of zones and the servers that host them."""

    #: Entry cap for the ``zone_for`` memo; one-shot names from wordlist
    #: brute forcing would otherwise grow it without bound at large
    #: ``--domains`` scales.  The repetitive phases' working set is far
    #: smaller, so a full clear on overflow rebuilds cheaply.
    _ZONE_CACHE_MAX = 262144

    def __init__(self) -> None:
        self._zones: Dict[str, Zone] = {}
        self._nameservers: Dict[str, NameServer] = {}
        self._zone_cache: Dict[str, Optional[Zone]] = {}
        #: Bumped on any zone registration or record mutation; derived
        #: indexes compare against it to invalidate lazily.
        self.topology_version = 0
        self._children_index: Dict[str, Dict[str, Zone]] = {}
        self._children_version = -1
        self.static_index = None
        if columnar_runtime_enabled():
            # Pure-Python accelerator (no NumPy requirement); see
            # repro.dns.staticindex for the staticness proof.
            from repro.dns.staticindex import StaticResolutionIndex

            self.static_index = StaticResolutionIndex(self)

    def _bump_topology(self) -> None:
        self.topology_version += 1

    # -- registration -------------------------------------------------

    def add_zone(self, zone: Zone) -> Zone:
        if zone.origin in self._zones:
            raise ValueError(f"zone {zone.origin} already registered")
        self._zones[zone.origin] = zone
        zone._on_change = self._bump_topology
        self._bump_topology()
        # A new zone can be more specific than a cached suffix match
        # (or turn a cached miss into a hit), so drop the memo wholesale.
        self._zone_cache.clear()
        return zone

    def register_nameserver(self, server: NameServer) -> NameServer:
        self._nameservers[server.hostname] = server
        return server

    def unregister_nameserver(self, hostname: str) -> None:
        """Forget a registered name server (chunked-build release)."""
        self._nameservers.pop(normalize_name(hostname), None)

    # -- release (chunked builds) -------------------------------------

    def release_zone(self, origin: str) -> bool:
        """Drop a zone once no later pipeline stage can query it.

        The streaming chunked build deploys tenants in rank chunks and
        releases each chunk's zones — the dominant memory term at paper
        scale — after measuring them, keeping only the zones the packet
        capture will revisit.  Returns False when no such zone exists.
        """
        zone = self._zones.pop(normalize_name(origin), None)
        if zone is None:
            return False
        zone._on_change = None
        self._zone_cache.clear()
        self._bump_topology()
        return True

    # -- lookup -------------------------------------------------------

    def zone_for(self, qname: str) -> Optional[Zone]:
        """The most specific registered zone enclosing ``qname``.

        Memoized per name (misses included); the memo is invalidated
        by :meth:`add_zone`, the only operation that can change which
        zone encloses a name.
        """
        qname = normalize_name(qname)
        cache = self._zone_cache
        if qname in cache:
            return cache[qname]
        zone: Optional[Zone] = None
        name: Optional[str] = qname
        while name is not None:
            zone = self._zones.get(name)
            if zone is not None:
                break
            name = parent_of(name)
        if len(cache) >= self._ZONE_CACHE_MAX:
            cache.clear()
        cache[qname] = zone
        return zone

    def get_zone(self, origin: str) -> Optional[Zone]:
        return self._zones.get(normalize_name(origin))

    def child_zone_for(
        self, name: str, parent_zone: Optional[Zone]
    ) -> Optional[Zone]:
        """``zone_for(name)`` given the parent's zone, without the walk.

        ``name`` must be normalized and one label below a name whose
        :meth:`zone_for` is ``parent_zone``; then the suffix walk can
        only yield ``name``'s own origin zone or the parent's answer.
        Used by wordlist enumeration, whose one-shot candidates would
        otherwise churn the ``zone_for`` memo.
        """
        zone = self._zones.get(name)
        return zone if zone is not None else parent_zone

    def child_zones_below(self, parent: str) -> Dict[str, Zone]:
        """``label -> zone`` for zones registered one label below
        ``parent`` (which must be normalized).

        Lazily indexed over all zone origins and rebuilt whenever the
        topology version moves; wordlist enumeration uses it to screen
        a whole domain's candidates by set intersection instead of one
        registry probe per wordlist entry.
        """
        if self._children_version != self.topology_version:
            index: Dict[str, Dict[str, Zone]] = {}
            for origin, zone in self._zones.items():
                above = parent_of(origin)
                if above is not None:
                    label = origin[: -(len(above) + 1)]
                    index.setdefault(above, {})[label] = zone
            self._children_index = index
            self._children_version = self.topology_version
        return self._children_index.get(parent, {})

    def zones(self) -> List[Zone]:
        return list(self._zones.values())

    def nameserver(self, hostname: str) -> Optional[NameServer]:
        return self._nameservers.get(normalize_name(hostname))

    def authoritative_lookup(
        self, qname: str, rtype: RRType, vantage: object = None
    ) -> List[ResourceRecord]:
        """Answer records for one query, or [] (NXDOMAIN / no data).

        NS queries for a name with no NS records of its own fall back to
        the enclosing zone's apex NS set, matching what a ``dig NS``
        against the zone's servers reports for a subdomain.
        """
        zone = self.zone_for(qname)
        if zone is None:
            return []
        answers = zone.lookup(qname, rtype, vantage)
        if rtype is RRType.NS:
            # A CNAME at the name does not make it a zone cut; report
            # the enclosing zone's apex NS set, like a dig NS would.
            answers = [a for a in answers if a.rtype is RRType.NS]
            if not answers:
                return zone.lookup(zone.origin, RRType.NS, vantage)
        return answers

    def name_exists(self, qname: str) -> bool:
        """True if any zone has data (of any type) at ``qname``."""
        zone = self.zone_for(qname)
        return zone is not None and zone.has_name(qname)

    # -- shard reconciliation -----------------------------------------

    def dynamic_query_counts(self) -> Dict[Tuple[str, str], int]:
        """All nonzero ``(zone origin, name) -> query count`` counters.

        The rotation state of every dynamic name in one snapshot; shard
        workers diff two snapshots to report how far their queries
        advanced each counter.
        """
        counts: Dict[Tuple[str, str], int] = {}
        for origin, zone in self._zones.items():
            for name, count in zone.query_counts().items():
                counts[(origin, name)] = count
        return counts

    def apply_dynamic_query_deltas(
        self, deltas: Dict[Tuple[str, str], int]
    ) -> None:
        """Advance dynamic-name counters by per-name deltas, as if the
        queries a shard worker answered had been answered here."""
        for (origin, name), delta in deltas.items():
            zone = self._zones.get(origin)
            if zone is None:
                raise KeyError(f"no zone {origin} for counter delta")
            zone.advance_query_count(name, delta)

    def cross_chunk_dynamic_names(
        self, window_domains: Iterable[str]
    ) -> Set[str]:
        """Dynamic names whose rotation can interleave across build
        slices.

        The fan-out §2.1 build (:mod:`repro.analysis.streambuild`)
        measures one window of rank slices at a time; over a deferred
        world, queries (and aliases) from *future* windows do not exist
        yet when a window's digs run, and a fully built world passes
        every ranked tenant as one window.  A dynamic name is safe to
        rotate window-locally only when every alias pointing at it lives in
        exactly one of the window's own tenant zones; then the name's
        whole query history belongs to that window and the local
        counter equals the sequential one.  Conservatively flag
        everything else:

        * any alias outside the window's tenant zones — an alias
          population that can keep growing chunk after chunk
          (``proxy.heroku.com`` accumulates one ``herokuapp.com`` alias
          per app, across all chunks);
        * two or more aliases even within the window (deployer flows
          never produce this; defensive).

        Flagged names' digs are logged and replayed at the end of the
        build, and the final reconcile turns any name this analysis
        missed into a hard error, never silent drift.
        """
        window = {normalize_name(domain) for domain in window_domains}
        alias_origins: Dict[str, List[str]] = {}
        for origin, zone in self._zones.items():
            for _name, target in zone.cname_links():
                alias_origins.setdefault(target, []).append(origin)
        flagged: Set[str] = set()
        for zone in self._zones.values():
            for dynamic_name in zone.dynamic_names():
                origins = alias_origins.get(dynamic_name, ())
                if not origins:
                    continue
                if len(origins) >= 2 or any(
                    origin not in window for origin in origins
                ):
                    flagged.add(dynamic_name)
        return flagged

    def nameserver_address(self, hostname: str) -> Optional[IPv4Address]:
        """Resolve a name-server hostname to its address.

        Prefers the registered :class:`NameServer` table and falls back
        to an authoritative A lookup (name servers for small sites are
        often plain A records in someone else's zone).
        """
        server = self.nameserver(hostname)
        if server is not None:
            return server.address
        answers = self.authoritative_lookup(hostname, RRType.A)
        for record in answers:
            if record.rtype is RRType.A:
                return record.value
        return None
