"""Scalar reference paths the columnar suites compare against.

The production pipeline runs only the columnar plane; these are the
scalar loops it replaced, kept as oracles: a static-resolution index
that never answers (every dig takes ``StubResolver._resolve_uncached``),
the per-candidate enumeration loop, and a dataset builder whose filter
is the scalar classify body and whose lookups run through the engine.
"""

from repro.analysis.dataset import DatasetBuilder
from repro.dns.enumeration import SubdomainEnumerator


class NoIndex:
    """A static-resolution index that never proves anything static, so
    every dig takes ``StubResolver._resolve_uncached``."""

    def peek(self, qname, rtype, resolver):
        return None

    def is_static(self, qname, rtype):
        return False


class EachEnumerator(SubdomainEnumerator):
    brute_force = SubdomainEnumerator._brute_force_each


class ReferenceBuilder(DatasetBuilder):
    """The §2.1 pipeline on the scalar reference paths."""

    def discover_subdomains(self, sites=None, offset=0):
        vantages = self.world.dns_vantages()
        recorder = self._recorder
        observer = None
        if recorder is not None:
            observer = (
                lambda resolver, qname, response:
                recorder.note_cached_dig(
                    resolver.vantage.name, qname, response
                )
            )
        enumerators = [
            EachEnumerator(
                self.world.dns,
                self.world.resolver_for(vantage),
                dig_observer=observer,
            )
            for vantage in vantages[: min(6, len(vantages))]
        ]
        if sites is None:
            sites = self.world.alexa.sites
        discovered = {}
        total = 0
        for i, site in enumerate(sites, start=offset):
            result = enumerators[i % len(enumerators)].enumerate(site.domain)
            discovered[site.domain] = result.subdomains
            total += len(result.subdomains)
        return discovered, total

    def filter_cloud_using(self, discovered):
        """The classify oracle: one dig and a range test per address."""
        vantage = self.world.dns_vantages()[0]
        resolver = self.world.resolver_for(vantage)
        recorder = self._recorder
        cloud_ranges = self._cloud_membership
        cloudfront_ranges = self.ranges["cloudfront"]
        cloud_using = []
        cloudfront_using = []
        other_cdn = {}
        for domain, subdomains in discovered.items():
            for fqdn in subdomains:
                response = resolver.dig(fqdn)
                if recorder is not None:
                    recorder.note_cached_dig(vantage.name, fqdn, response)
                if any(addr in cloud_ranges for addr in response.addresses):
                    cloud_using.append((domain, fqdn))
                elif any(
                    addr in cloudfront_ranges
                    for addr in response.addresses
                ):
                    cloudfront_using.append((domain, fqdn))
                elif any("cdn" in cname for cname in response.chain):
                    other_cdn.setdefault(domain, []).append(fqdn)
        return cloud_using, cloudfront_using, other_cdn

    def distributed_lookups(self, cloud_using):
        return self._engine_lookups(list(cloud_using))
