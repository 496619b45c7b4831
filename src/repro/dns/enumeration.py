"""Subdomain discovery: zone transfer first, wordlist brute force second.

Reproduces the paper's §2.1 methodology: attempt an AXFR for each Alexa
domain (succeeded for ~8% of domains), and fall back to dnsmap-style
brute forcing with a wordlist (dnsmap's list augmented with knock's) for
the rest.  Brute force is an intentional *lower bound*: subdomains whose
labels are not in the wordlist go undiscovered, and the workload
generator does create such labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from repro.dns.infrastructure import DnsInfrastructure
from repro.dns.records import RRType, normalize_name
from repro.dns.resolver import StubResolver
from repro.dns.zone import TransferRefused

#: Labels from dnsmap's built-in wordlist plus knock's, trimmed to the
#: entries that matter for web-service front ends.  The workload
#: generator draws most (not all) subdomain labels from this list.
_DEFAULT_WORDLIST: Sequence[str] = (
    "www", "m", "ftp", "cdn", "mail", "staging", "blog", "support",
    "test", "dev", "api", "app", "beta", "shop", "store", "news",
    "static", "img", "images", "media", "video", "search", "login",
    "secure", "admin", "portal", "forum", "help", "docs", "wiki",
    "status", "assets", "files", "download", "downloads", "upload",
    "web", "webmail", "smtp", "pop", "imap", "ns1", "ns2", "mx",
    "vpn", "remote", "gateway", "proxy", "cache", "db", "data",
    "demo", "sandbox", "stage", "preview", "qa", "uat", "prod",
    "internal", "intranet", "extranet", "partners", "payments", "pay",
    "checkout", "cart", "account", "accounts", "auth", "sso", "id",
    "mobile", "wap", "touch", "chat", "live", "stream", "events",
    "analytics", "stats", "metrics", "track", "tracking", "ads",
    "ad", "email", "newsletter", "feedback", "jobs", "careers",
    "community", "developer", "developers", "labs", "research", "edge",
    "origin", "mirror", "backup", "old", "new", "v2", "my", "go",
    "get", "sites", "service", "services", "cloud", "s3", "git",
    "svn", "ci", "build", "jenkins", "monitor", "graphs", "alpha",
    "dl", "cs", "us", "eu", "asia", "de", "fr", "jp", "uk", "corp",
)


def default_wordlist() -> List[str]:
    """A fresh copy of the built-in brute-force wordlist."""
    return list(_DEFAULT_WORDLIST)


@dataclass
class EnumerationResult:
    """Everything discovered for one domain."""

    domain: str
    subdomains: List[str] = field(default_factory=list)
    via_axfr: bool = False
    queries_issued: int = 0


class SubdomainEnumerator:
    """Discovers the subdomains of a domain, as an outsider would."""

    def __init__(
        self,
        infra: DnsInfrastructure,
        resolver: StubResolver,
        wordlist: Iterable[str] | None = None,
        dig_observer=None,
    ):
        self.infra = infra
        self.resolver = resolver
        self.wordlist = list(wordlist) if wordlist is not None else default_wordlist()
        #: Called as ``observer(resolver, qname, response)`` after every
        #: brute-force ``dig`` that executed (shard builds use it to tag
        #: answers whose rotation state crosses shard boundaries).
        self.dig_observer = dig_observer

    def try_zone_transfer(self, domain: str) -> List[str]:
        """Names learned via AXFR; raises TransferRefused when refused."""
        domain = normalize_name(domain)
        zone = self.infra.get_zone(domain)
        if zone is None:
            raise TransferRefused(domain)
        names = set()
        for record in zone.transfer():
            if record.name != domain:
                names.add(record.name)
        # AXFR reveals every name, including dynamic ones.
        for name in zone.names():
            if name != domain:
                names.add(name)
        return sorted(names)

    def brute_force(self, domain: str) -> EnumerationResult:
        """Query ``word.domain`` for every wordlist entry.

        Most candidates are NXDOMAIN, and an NXDOMAIN ``dig`` has no
        observable effect beyond the query counters: ``exists`` is
        exactly "the candidate's zone has the name" (answers can only
        come from a zone that carries the name), nothing is cached
        (TTL 0), and no dynamic-name rotation advances.  So the whole
        domain is screened at once — the labels that would pass that
        zone check are a set intersection with the wordlist, and misses
        never even compose their candidate string — and only hits pay
        for a full ``dig``, which preserves every side effect hits ever
        had.  A wordlist with duplicates would dig a hit more than once
        (rotating its answers), so it takes the per-candidate loop
        (:meth:`_brute_force_each`) instead.
        """
        domain = normalize_name(domain)
        wordlist = self.wordlist
        if len(set(wordlist)) != len(wordlist):
            return self._brute_force_each(domain)
        result = EnumerationResult(domain=domain)
        resolver = self.resolver
        infra = self.infra
        present = self._present_labels(domain, infra.zone_for(domain))
        hits = [word for word in wordlist if word in present]
        index = infra.static_index
        skipped = 0
        for word in hits:
            candidate = f"{word}.{domain}"
            if index.is_static(candidate, RRType.A):
                # A screening hit *is* ``exists`` (answers can only
                # come from a zone carrying the name), and a static dig
                # has no other observable effect: nothing rotates, the
                # shard recorder is provably a no-op (a static chain
                # cannot end on a shared dynamic name), and the TTL'd
                # cache write is value-neutral — any later non-fresh
                # dig re-resolves to the identical answer through the
                # index memo at cache-hit cost.  So only the query
                # counter advances.
                skipped += 1
                result.subdomains.append(candidate)
                continue
            response = resolver.dig(candidate, RRType.A)
            if self.dig_observer is not None:
                self.dig_observer(resolver, candidate, response)
            if response.exists:
                result.subdomains.append(candidate)
        resolver.query_count += len(wordlist) - len(hits) + skipped
        result.queries_issued = len(wordlist)
        result.subdomains.sort()
        return result

    def _brute_force_each(self, domain: str) -> EnumerationResult:
        """:meth:`brute_force` one candidate at a time, in wordlist order.

        Each candidate passes the zone check on its own, so a label
        listed twice is dug twice.  For a duplicate-free wordlist the
        result, counters and side effects equal :meth:`brute_force`'s.
        """
        domain = normalize_name(domain)
        result = EnumerationResult(domain=domain)
        resolver = self.resolver
        infra = self.infra
        domain_zone = infra.zone_for(domain)
        for word in self.wordlist:
            # Wordlist labels and the normalized domain compose to an
            # already-normalized candidate one label below ``domain``.
            candidate = f"{word}.{domain}"
            zone = infra.child_zone_for(candidate, domain_zone)
            if zone is None or candidate not in zone:
                resolver.query_count += 1
                result.queries_issued += 1
                continue
            response = resolver.dig(candidate, RRType.A)
            result.queries_issued += 1
            if self.dig_observer is not None:
                self.dig_observer(resolver, candidate, response)
            if response.exists:
                result.subdomains.append(candidate)
        result.subdomains.sort()
        return result

    def _present_labels(self, domain, domain_zone) -> set:
        """Labels whose ``label.domain`` passes the screening check.

        Exactly the per-candidate condition: a zone registered at the
        candidate decides membership by itself (it shadows the parent
        zone in ``child_zone_for``); otherwise the candidate must be a
        name in ``domain_zone``.  One label below means the extracted
        label never contains a dot.
        """
        suffix = "." + domain
        cut = len(suffix)
        present: set = set()
        shadowed: set = set()
        for label, zone in self.infra.child_zones_below(domain).items():
            shadowed.add(label)
            if label + suffix in zone:
                present.add(label)
        if domain_zone is not None:
            for name in domain_zone.names():
                if name.endswith(suffix):
                    label = name[:-cut]
                    if "." not in label and label not in shadowed:
                        present.add(label)
        return present

    def enumerate(self, domain: str) -> EnumerationResult:
        """AXFR if the zone permits it, wordlist brute force otherwise."""
        domain = normalize_name(domain)
        try:
            names = self.try_zone_transfer(domain)
        except TransferRefused:
            return self.brute_force(domain)
        return EnumerationResult(
            domain=domain, subdomains=names, via_axfr=True
        )
