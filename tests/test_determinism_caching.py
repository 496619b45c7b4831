"""Determinism under caching.

The hot-path caches (memoized ``zone_for``, the RNG-derivation digest
cache, the persistent wide-area base-RTT product, episode factors, the
probe-response coin cache) must be *transparent*: a world whose caches
were warmed by harmless reads has to produce byte-for-byte the same
measurements as a fresh one, and the opt-in parallel WAN campaign has to
match the sequential campaign exactly.

Only side-effect-free operations may be used for warming.  ``dig`` on a
dynamic name is NOT one of them — it advances the server-side ELB
rotation counter — which is precisely why those counters are never
cached or parallelised (see docs/PERFORMANCE.md).
"""

import random

import pytest

from repro.analysis import streambuild
from repro.analysis.dataset import DatasetBuilder
from repro.analysis.shards import replay_shared_rotations
from repro.analysis.wan import WanAnalysis, WanConfig
from repro.dns.records import normalize_name
from repro.sampling import WeightedChooser
from repro.sim import (
    advance_gauss,
    derive_rng,
    derive_seed,
    fork_pool_available,
)
from repro.world import World, WorldConfig

TINY = WorldConfig(seed=21, num_domains=200)


def _warm_caches(world: World) -> None:
    """Exercise every read-only cache without touching server state."""
    for zone in world.dns.zones():
        world.dns.zone_for(zone.origin)
        world.dns.zone_for("nonexistent." + zone.origin)
        for name in zone.names():
            normalize_name(name + ".")
    clients = world.probe_vantages()[:4]
    instances = world.ec2.all_instances()[:6]
    for client in clients:
        for instance in instances:
            # base_rtt_ms draws only hash-derived persistent factors;
            # the shared jitter/noise streams never move.
            world.latency.base_rtt_ms(client, instance, time_s=0.0)
            world.latency.base_rtt_ms(client, instance, time_s=7200.0)


def _record_key(record):
    return (
        record.fqdn,
        record.domain,
        record.rank,
        tuple(sorted(str(a) for a in record.addresses)),
        tuple(sorted(record.cnames)),
        tuple(sorted(record.ns_names)),
        record.lookups,
    )


class TestCacheTransparency:
    def test_warmed_world_matches_fresh_world(self):
        fresh = World(TINY)
        warmed = World(TINY)
        _warm_caches(warmed)

        assert fresh.describe() == warmed.describe()

        fresh_records = sorted(
            _record_key(r) for r in DatasetBuilder(fresh).build().records
        )
        warmed_records = sorted(
            _record_key(r) for r in DatasetBuilder(warmed).build().records
        )
        assert fresh_records == warmed_records

    def test_warmed_world_matches_fresh_wan_series(self):
        config = WanConfig(rounds=3)
        fresh = World(TINY)
        warmed = World(TINY)
        _warm_caches(warmed)
        fresh_wan = WanAnalysis(fresh, config)
        warmed_wan = WanAnalysis(warmed, config)
        fresh_wan._measure()
        warmed_wan._measure()
        assert fresh_wan._latency == warmed_wan._latency
        assert fresh_wan._throughput == warmed_wan._throughput

    def test_zone_cache_invalidated_by_add_zone(self, tiny_world):
        from repro.dns.zone import Zone

        infra = tiny_world.dns
        parent = next(z for z in infra.zones())
        sub_origin = "brand-new-sub." + parent.origin
        assert infra.zone_for(sub_origin) is parent  # cached miss-to-parent
        child = infra.add_zone(Zone(sub_origin))
        assert infra.zone_for(sub_origin) is child


class TestDerivedRngCaching:
    def test_repeated_derivations_identical(self):
        first = derive_rng(7, "stream", 3).random()
        second = derive_rng(7, "stream", 3).random()
        assert first == second

    def test_digest_cache_distinguishes_equal_but_distinct_labels(self):
        # 1 == 1.0 in Python; a cache keyed on label *equality* would
        # collapse these two streams.  The digest cache keys on repr.
        assert derive_seed(7, 1) != derive_seed(7, 1.0)
        assert derive_seed(7, "1") != derive_seed(7, 1)

    def test_advance_gauss_fast_forwards_exactly(self):
        walked = random.Random(99)
        jumped = random.Random(99)
        consumed = [walked.gauss(2.0, 5.0) for _ in range(7)]
        assert len(consumed) == 7
        advance_gauss(jumped, 7)
        assert walked.getstate() == jumped.getstate()
        assert walked.gauss(0.0, 1.0) == jumped.gauss(0.0, 1.0)


class TestWeightedChooser:
    def test_bit_identical_to_random_choices(self):
        population = [f"item-{i}" for i in range(137)]
        weights = [1.0 / (i + 1) ** 0.6 for i in range(137)]
        chooser = WeightedChooser(population, weights)
        direct = random.Random(4242)
        compiled = random.Random(4242)
        for _ in range(2000):
            expected = direct.choices(population, weights=weights, k=1)[0]
            assert chooser.choose(compiled) == expected
        assert direct.getstate() == compiled.getstate()


class TestShardedDataset:
    """The fork-pool dataset shards must match sequential bit for bit.

    Beyond the dataset outputs themselves, the merge has to leave the
    *server and resolver state* — dynamic rotation counters and every
    per-vantage resolver cache — exactly where a sequential build leaves
    it, because the downstream capture stage consumes that state.
    """

    # Smallest config whose tenants share a dynamic name (the Heroku
    # routing proxy), so the shard-log replay path is truly exercised.
    SHARED = WorldConfig(seed=7, num_domains=300)

    @classmethod
    def _full_state(cls, workers):
        world = World(cls.SHARED)
        dataset = DatasetBuilder(world).build(workers=workers)
        resolvers = {
            name: (
                resolver.query_count,
                sorted(
                    (
                        key,
                        tuple(
                            sorted(
                                str(a)
                                for a in entry.response.addresses
                            )
                        ),
                        tuple(sorted(entry.response.chain)),
                        entry.expires_at,
                    )
                    for key, entry in resolver._cache.items()
                ),
            )
            for name, resolver in sorted(world._resolvers.items())
        }
        return {
            "records": [_record_key(r) for r in dataset.records],
            "cloudfront": [
                _record_key(r) for r in dataset.cloudfront_records
            ],
            "discovered": dataset.discovered,
            "total": dataset.total_discovered_subdomains,
            "other_cdn": dataset.other_cdn_subdomains,
            "ns_addresses": sorted(
                (k, str(v)) for k, v in dataset.ns_addresses.items()
            ),
            "counters": sorted(world.dns.dynamic_query_counts().items()),
            "resolvers": resolvers,
        }

    def test_config_exercises_shared_dynamic_names(self, monkeypatch):
        # Guard: if the fan-out ever stops replaying descriptors for
        # the shared proxy the tests below would silently stop covering
        # the shared-name replay machinery.
        if not fork_pool_available():
            pytest.skip("the fan-out build needs fork")
        replayed = []

        def counting_replay(world, tagged, *args):
            replayed.extend(entry.name for *_, entry in tagged)
            return replay_shared_rotations(world, tagged, *args)

        monkeypatch.setattr(
            streambuild, "replay_shared_rotations", counting_replay
        )
        DatasetBuilder(World(self.SHARED)).build(workers=2)
        assert "proxy.heroku.com" in replayed

    def test_sharded_build_bit_identical_to_sequential(self):
        sequential = self._full_state(workers=0)
        for workers in (2, 4):
            assert self._full_state(workers) == sequential

    def test_fan_out_requires_full_range_coverage(self):
        world = World(TINY)
        partial = DatasetBuilder(world, range_coverage=0.8)
        assert not partial.fans_out(workers=4)
        full = DatasetBuilder(world)
        assert not full.fans_out(workers=0)
        assert not full.fans_out(workers=1)

    def test_workers_one_falls_back_to_sequential(self):
        # workers=1 gains nothing from forking; it must take the
        # sequential path and still produce identical output.
        base = sorted(
            _record_key(r)
            for r in DatasetBuilder(World(TINY)).build().records
        )
        single = sorted(
            _record_key(r)
            for r in DatasetBuilder(World(TINY)).build(workers=1).records
        )
        assert single == base


class TestParallelWan:
    def test_workers_bit_identical_to_sequential(self):
        sequential_world = World(TINY)
        parallel_world = World(TINY)
        sequential = WanAnalysis(sequential_world, WanConfig(rounds=4))
        parallel = WanAnalysis(
            parallel_world, WanConfig(rounds=4, workers=2)
        )
        sequential._measure()
        parallel._measure()
        assert sequential._latency == parallel._latency
        assert sequential._throughput == parallel._throughput
        # The parent fast-forwards its streams past the campaign, so
        # anything measured afterwards stays aligned too.
        assert (
            sequential_world.latency._jitter_rng.getstate()
            == parallel_world.latency._jitter_rng.getstate()
        )
        assert (
            sequential_world.throughput._noise_rng.getstate()
            == parallel_world.throughput._noise_rng.getstate()
        )

    def test_worker_count_does_not_change_results(self):
        base_world = World(TINY)
        base = WanAnalysis(base_world, WanConfig(rounds=5, workers=3))
        base._measure()
        other_world = World(TINY)
        other = WanAnalysis(other_world, WanConfig(rounds=5, workers=5))
        other._measure()
        assert base._latency == other._latency
        assert base._throughput == other._throughput
