"""Columnar dataset build against the scalar reference pipeline.

Property tests over a seed sweep: the production build (enumeration
screening, vectorized filter classification, static-name lookup
bypass, all reading the static-resolution index) must be bit-identical
to a reference build — records, discovered maps, NS addresses, resolver
query counters, and dynamic rotation state.  The reference runs the
scalar paths directly: the per-candidate enumeration loop, the classify
oracle (the scalar ``filter_cloud_using`` body), the engine's lookup
campaign, and every dig through ``StubResolver._resolve_uncached`` (the
world's index never answers); see ``tests/columnar/reference.py``.
"""

import numpy  # noqa: F401  (a hard dependency: fail, never skip)
import pytest

from repro.analysis.dataset import DatasetBuilder
from repro.dns.enumeration import SubdomainEnumerator
from repro.dns.records import RRType
from repro.world import World, WorldConfig
from tests.columnar.reference import (
    EachEnumerator,
    NoIndex,
    ReferenceBuilder,
)

SEEDS = [7, 23, 1999]


def _world(seed, num_domains=70, reference=False):
    world = World(WorldConfig(
        seed=seed,
        num_domains=num_domains,
        num_dns_vantages=4,
        num_probe_vantages=3,
    ))
    if reference:
        world.dns.static_index = NoIndex()
    return world


def _build(seed, reference, workers=0):
    world = _world(seed, reference=reference)
    builder_cls = ReferenceBuilder if reference else DatasetBuilder
    dataset = builder_cls(world).build(workers=workers)
    return world, dataset


def _record_tuple(record):
    return (
        record.fqdn,
        record.domain,
        record.rank,
        sorted(a.value for a in record.addresses),
        sorted(record.cnames),
        sorted(record.ns_names),
        record.lookups,
    )


def _assert_datasets_equal(scalar, columnar):
    assert [_record_tuple(r) for r in scalar.records] == [
        _record_tuple(r) for r in columnar.records
    ]
    assert [_record_tuple(r) for r in scalar.cloudfront_records] == [
        _record_tuple(r) for r in columnar.cloudfront_records
    ]
    assert scalar.discovered == columnar.discovered
    assert scalar.other_cdn_subdomains == columnar.other_cdn_subdomains
    assert scalar.ns_addresses == columnar.ns_addresses
    assert (
        scalar.total_discovered_subdomains
        == columnar.total_discovered_subdomains
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_dataset_bit_identical(seed):
    world_s, scalar = _build(seed, reference=True)
    world_c, columnar = _build(seed, reference=False)
    _assert_datasets_equal(scalar, columnar)
    # Server-side state evolved identically: rotation counters and
    # per-vantage resolver query counts.
    assert (
        world_s.dns.dynamic_query_counts()
        == world_c.dns.dynamic_query_counts()
    )
    for vantage in world_s.dns_vantages():
        assert (
            world_s.resolver_for(vantage).query_count
            == world_c.resolver_for(vantage).query_count
        ), vantage.name


def test_dataset_columnar_matches_sharded_scalar():
    _, scalar = _build(7, reference=True, workers=2)
    _, columnar = _build(7, reference=False)
    _assert_datasets_equal(scalar, columnar)


def test_dataset_columnar_sharded_matches_sequential():
    _, sequential = _build(7, reference=False)
    _, sharded = _build(7, reference=False, workers=2)
    _assert_datasets_equal(sequential, sharded)


def _enumerate_all(world, enumerator):
    per_domain = [
        enumerator.enumerate(site.domain) for site in world.alexa.sites
    ]
    return (
        [
            (r.domain, r.subdomains, r.via_axfr, r.queries_issued)
            for r in per_domain
        ],
        enumerator.resolver.query_count,
        world.dns.dynamic_query_counts(),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_enumeration_screening_identical(seed):
    results = {}
    for reference in (True, False):
        world = _world(seed, num_domains=40, reference=reference)
        enumerator_cls = (
            EachEnumerator if reference else SubdomainEnumerator
        )
        enumerator = enumerator_cls(
            world.dns, world.resolver_for(world.dns_vantages()[0])
        )
        results[reference] = _enumerate_all(world, enumerator)
    assert results[True] == results[False]


def test_enumeration_duplicate_wordlist_falls_back():
    from repro.dns.enumeration import default_wordlist

    words = default_wordlist()
    words.append(words[0])  # duplicate: screening must not engage
    results = []
    for enumerate_each in (True, False):
        world = _world(7, num_domains=10)
        enumerator = SubdomainEnumerator(
            world.dns, world.resolver_for(world.dns_vantages()[0]),
            wordlist=words,
        )
        domain = world.alexa.sites[0].domain
        result = (
            enumerator._brute_force_each(domain) if enumerate_each
            else enumerator.brute_force(domain)
        )
        assert result.queries_issued == len(words)
        results.append((
            result.subdomains,
            enumerator.resolver.query_count,
            world.dns.dynamic_query_counts(),
        ))
    assert results[0] == results[1]


def test_static_index_declines_dynamic_names():
    world = _world(7, num_domains=40)
    index = world.dns.static_index
    dynamic = [
        name
        for zone in world.dns.zones()
        for name in zone.dynamic_names()
    ]
    assert dynamic, "world should deploy rotating names"
    for name in dynamic:
        assert not index.is_static(name, RRType.A)


@pytest.mark.parametrize("seed", SEEDS)
def test_static_index_memo_matches_uncached_resolution(seed):
    # Every memoized answer equals the full resolver walk, from every
    # vantage: the index may only skip work, never change a value.
    world = _world(seed, num_domains=40)
    index = world.dns.static_index
    names = sorted({
        name for zone in world.dns.zones() for name in zone.names()
    })
    checked = 0
    for vantage in world.dns_vantages():
        resolver = world.resolver_for(vantage)
        for name in names:
            memo = index.peek(name, RRType.A, resolver)
            if memo is None:
                continue
            walk = resolver._resolve_uncached(name, RRType.A)
            assert (
                memo.addresses, memo.chain, memo.exists, memo.ttl
            ) == (
                walk.addresses, walk.chain, walk.exists, walk.ttl
            ), name
            checked += 1
    assert checked, "world should have provably static names"
