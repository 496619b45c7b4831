"""A caching stub resolver — the simulation's ``dig``.

Each vantage point owns one resolver, so caches are per-vantage just as
each PlanetLab node's local resolver was.  The paper flushed resolver
caches and queried with ``+norecurse`` to avoid stale answers; we expose
the same controls (:meth:`StubResolver.flush_cache` and the
``fresh=True`` argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dns.infrastructure import DnsInfrastructure
from repro.dns.records import DnsResponse, RRType, normalize_name
from repro.sim import Clock

_MAX_CNAME_CHAIN = 12


@dataclass(slots=True)
class _CacheEntry:
    response: DnsResponse
    expires_at: float


class StubResolver:
    """Resolves names against a :class:`DnsInfrastructure`, with caching.

    ``vantage`` is passed through to zones so geo-aware names can answer
    differently per querying location.
    """

    def __init__(
        self,
        infra: DnsInfrastructure,
        clock: Optional[Clock] = None,
        vantage: object = None,
    ):
        self.infra = infra
        self.clock = clock or Clock()
        self.vantage = vantage
        self._cache: Dict[Tuple[str, RRType], _CacheEntry] = {}
        self.query_count = 0

    def flush_cache(self) -> None:
        self._cache.clear()

    # -- shard reconciliation -----------------------------------------

    def cache_keys(self) -> set:
        """The current set of cache keys (a cheap pre-fork baseline)."""
        return set(self._cache)

    def export_cache_entries(
        self, exclude: Optional[set] = None
    ) -> Dict[Tuple[str, RRType], _CacheEntry]:
        """Cache entries not present in a baseline key set.

        Shard workers call this after building their slice; with the
        pre-fork baseline as ``exclude`` it yields exactly the entries
        the shard's queries populated (entries are only ever written on
        a miss, so a baseline key can never be overwritten mid-build —
        the clock does not advance, hence nothing expires).
        """
        exclude = exclude or set()
        return {
            key: entry
            for key, entry in self._cache.items()
            if key not in exclude
        }

    def adopt_cache_entries(
        self, entries: Dict[Tuple[str, RRType], _CacheEntry]
    ) -> None:
        """Install entries exported from a shard worker's resolver."""
        self._cache.update(entries)

    # -- artifact restores --------------------------------------------

    def cache_state(self) -> list:
        """The whole cache as ``(key, seconds left, response)`` triples
        in insertion order.

        Expiry is relative to the clock, so the state restores exactly
        onto a world whose clock reads differently (a later epoch).
        """
        now = self.clock.now
        return [
            (key, entry.expires_at - now, entry.response)
            for key, entry in self._cache.items()
        ]

    def set_cache_state(self, state: list) -> None:
        """Replace the cache with a :meth:`cache_state` snapshot."""
        now = self.clock.now
        self._cache = {
            key: _CacheEntry(response, now + remaining)
            for key, remaining, response in state
        }

    def dig(
        self, qname: str, rtype: RRType = RRType.A, fresh: bool = False
    ) -> DnsResponse:
        """Resolve ``qname``; follows CNAME chains for A queries.

        With ``fresh=True`` the cache is bypassed (and not populated),
        mirroring the paper's flush-and-norecurse discipline for the
        name-server location survey.
        """
        qname = normalize_name(qname)
        self.query_count += 1
        key = (qname, rtype)
        if not fresh:
            entry = self._cache.get(key)
            if entry is not None and entry.expires_at > self.clock.now:
                cached = _copy_response(entry.response)
                cached.from_cache = True
                return cached
        response = self._resolve(qname, rtype)
        if not fresh and response.exists and response.ttl > 0:
            self._cache[key] = _CacheEntry(
                _copy_response(response), self.clock.now + response.ttl
            )
        return response

    def _resolve(self, qname: str, rtype: RRType) -> DnsResponse:
        # Provably-static names share one resolution across all
        # vantages via the infrastructure's index; the index declines
        # dynamic-reaching names, which fall through to the real walk
        # below in exact sequential order.  qname is already normalized
        # here, so peek directly; the copy hands the caller a privately
        # owned response.
        memo = self.infra.static_index.peek(qname, rtype, self)
        if memo is not None:
            return _copy_response(memo)
        return self._resolve_uncached(qname, rtype)

    def _resolve_uncached(self, qname: str, rtype: RRType) -> DnsResponse:
        response = DnsResponse(qname=qname, qtype=rtype)
        infra = self.infra
        # One suffix walk for the whole query: the qname's zone also
        # answers the trailing NXDOMAIN-vs-no-data existence check, so
        # it is never recomputed per hop.
        qzone = infra.zone_for(qname)
        if rtype is RRType.NS:
            answers = infra.authoritative_lookup(
                qname, RRType.NS, self.vantage
            )
            response.ns_names = [str(r.value) for r in answers]
            response.exists = bool(answers) or (
                qzone is not None and qzone.has_name(qname)
            )
            response.ttl = min((r.ttl for r in answers), default=0)
            return response

        name = qname
        zone = qzone
        min_ttl: Optional[int] = None
        for _ in range(_MAX_CNAME_CHAIN):
            # For A/CNAME queries authoritative_lookup is exactly the
            # zone's own answer (the NS apex fallback never applies).
            answers = (
                zone.lookup(name, rtype, self.vantage)
                if zone is not None else []
            )
            if not answers:
                break
            cname_answers = [a for a in answers if a.rtype is RRType.CNAME]
            if cname_answers and rtype is not RRType.CNAME:
                target = str(cname_answers[0].value)
                response.chain.append(target)
                ttl = cname_answers[0].ttl
                min_ttl = ttl if min_ttl is None else min(min_ttl, ttl)
                name = target
                zone = infra.zone_for(name)
                continue
            for record in answers:
                if record.rtype is rtype:
                    if rtype is RRType.A:
                        response.addresses.append(record.value)
                    elif rtype is RRType.CNAME:
                        response.chain.append(str(record.value))
                    ttl = record.ttl
                    min_ttl = ttl if min_ttl is None else min(min_ttl, ttl)
            break
        response.exists = bool(
            response.addresses or response.chain
        ) or (qzone is not None and qzone.has_name(qname))
        response.ttl = min_ttl or 0
        return response

    def resolve_addresses(self, qname: str, fresh: bool = False):
        """Convenience: the terminal A-record addresses for ``qname``."""
        return self.dig(qname, RRType.A, fresh=fresh).addresses


def _copy_response(response: DnsResponse) -> DnsResponse:
    # Positional: called once or twice per dig, so the keyword-argument
    # overhead of the dataclass constructor is measurable at scale.
    return DnsResponse(
        response.qname,
        response.qtype,
        response.exists,
        list(response.chain),
        list(response.addresses),
        list(response.ns_names),
        response.from_cache,
        response.ttl,
    )
