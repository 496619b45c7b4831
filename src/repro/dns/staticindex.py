"""Memoized resolution for provably-static names.

The dataset pipeline digs the same fully-qualified names over and over
— once per vantage in the distributed-lookup survey, once per candidate
in wordlist screening — and almost all of those names resolve through
*static* zone data only.  Static answers are, by construction,
independent of the querying vantage, the clock, and query history, so
one resolution can be shared by every resolver against the same
:class:`DnsInfrastructure`.

A name is *proven* static conservatively:

* For A/CNAME queries: the name must not be able to reach a dynamic
  name through the static CNAME alias graph (computed by a reverse BFS
  from every dynamic name over all zones' ``cname_links()``, the alias
  graph ``cross_chunk_dynamic_names`` also walks).  Any name outside that
  closure resolves through static records at every chain hop.
* For NS queries: neither the name itself nor the apex of its
  enclosing zone may be dynamic (the apex-fallback lookup touches the
  origin name).
* Any other query type is never memoized.

Dynamic-name resolutions advance per-name rotation counters, so they
must keep hitting the zones in exact sequential order — the index
simply declines them and the resolver falls through to its normal
path.  Zone/infrastructure mutations bump a topology version (wired up
in :meth:`DnsInfrastructure.add_zone`), which lazily invalidates both
the closure and the memo.

The index is pure Python (no NumPy) but is part of the columnar data
plane's speed budget; every :class:`DnsInfrastructure` carries one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.dns.records import DnsResponse, RRType, normalize_name


class StaticResolutionIndex:
    """Shared memo of static-name resolutions for one infrastructure."""

    #: Same overflow discipline as ``DnsInfrastructure._ZONE_CACHE_MAX``:
    #: cap the memo and clear wholesale; the repetitive phases' working
    #: set rebuilds cheaply.  (A 4x-larger cap was benchmarked at the
    #: mid tier and showed no win — re-fills after a clear are cheap
    #: relative to the dict pressure of a multi-million-entry memo.)
    _MEMO_MAX = 262144

    def __init__(self, infra) -> None:
        self.infra = infra
        self._seen_version = -1
        self._dynamic: Set[str] = set()
        self._reaching: Set[str] = set()
        self._memo: Dict[Tuple[str, RRType], DnsResponse] = {}
        self.hits = 0
        self.misses = 0

    # -- closure maintenance ------------------------------------------

    def _refresh(self) -> None:
        version = self.infra.topology_version
        if version == self._seen_version:
            return
        dynamic: Set[str] = set()
        sources: Dict[str, List[str]] = {}
        for zone in self.infra.zones():
            dynamic.update(zone.dynamic_names())
            for name, target in zone.cname_links():
                sources.setdefault(target, []).append(name)
        # Reverse BFS: every name whose static CNAME chain *could*
        # terminate in a dynamic name (conservative superset).
        reaching = set(dynamic)
        stack = list(dynamic)
        while stack:
            target = stack.pop()
            for alias in sources.get(target, ()):
                if alias not in reaching:
                    reaching.add(alias)
                    stack.append(alias)
        self._dynamic = dynamic
        self._reaching = reaching
        self._memo.clear()
        self._seen_version = version

    # -- classification -----------------------------------------------

    def is_static(self, qname: str, rtype: RRType) -> bool:
        """Whether ``qname``/``rtype`` provably resolves through static
        data only.  ``qname`` must already be normalized."""
        self._refresh()
        if rtype is RRType.NS:
            if qname in self._dynamic:
                return False
            zone = self.infra.zone_for(qname)
            return zone is None or zone.origin not in self._dynamic
        if rtype is RRType.A or rtype is RRType.CNAME:
            return qname not in self._reaching
        return False

    # -- resolution ---------------------------------------------------

    def peek(self, qname: str, rtype: RRType, resolver) -> Optional[
        DnsResponse
    ]:
        """The *shared* memoized response for a static name, else None.

        ``qname`` must already be normalized.  The returned object is
        the memo itself — the caller must treat it as frozen (read
        addresses/chain, never mutate).  A memo hit is its own
        staticness proof (the memo is cleared whenever the topology
        version moves), so the closure check only runs on misses.

        Misses are filled through the *calling* resolver's uncached
        path — legitimate because static answers are identical from
        every vantage at every time.  The caller must not have advanced
        any state for this query yet (the resolver consults the index
        before touching zones).
        """
        if self._seen_version != self.infra.topology_version:
            self._refresh()
        key = (qname, rtype)
        memo = self._memo.get(key)
        if memo is not None:
            self.hits += 1
            return memo
        if not self.is_static(qname, rtype):
            return None
        self.misses += 1
        memo = resolver._resolve_uncached(qname, rtype)
        if len(self._memo) >= self._MEMO_MAX:
            self._memo.clear()
        self._memo[key] = memo
        return memo

    def lookup(self, qname: str, rtype: RRType, resolver) -> Optional[
        DnsResponse
    ]:
        """A fresh (privately owned) response for a static name, else
        ``None``.  See :meth:`peek` for the fill discipline."""
        memo = self.peek(normalize_name(qname), rtype, resolver)
        return None if memo is None else _copy(memo)


def _copy(response: DnsResponse) -> DnsResponse:
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
