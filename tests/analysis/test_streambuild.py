"""The chunked, constant-memory dataset build must be bit-identical to
the batch build — records, NS addresses, rotation counters, resolver
query counts, traffic domains, and the downstream capture — across
worker counts and chunk sizes, while actually releasing tenant state.
Also covers :meth:`DatasetBuilder.fans_out`, the one check choosing
between the fan-out and the in-process build."""

import os

import pytest

from repro import flags
from repro.analysis.dataset import DatasetBuilder
from repro.faults.scenarios import OutageScenario
from repro.obs import Observability
from repro.world import World, WorldConfig

SEED = 7
DOMAINS = 400

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="chunk workers need os.fork"
)


def _record_key(record):
    return (
        record.fqdn, record.domain, record.rank,
        tuple(sorted(a.value for a in record.addresses)),
        tuple(sorted(record.cnames)),
        tuple(sorted(record.ns_names)),
        record.lookups,
    )


def _dataset_view(dataset):
    return {
        "records": [_record_key(r) for r in dataset.records],
        "cloudfront": [_record_key(r) for r in dataset.cloudfront_records],
        "ns": {
            name: (address.value if address is not None else None)
            for name, address in dataset.ns_addresses.items()
        },
        "total": dataset.total_discovered_subdomains,
        "other_cdn": dataset.other_cdn_subdomains,
    }


def _chunked_build(workers, chunk):
    previous = flags.set_chunk_size(chunk)
    try:
        world = World(
            WorldConfig(seed=SEED, num_domains=DOMAINS),
            defer_tenants=True,
        )
        dataset = DatasetBuilder(world).build(workers)
    finally:
        flags.set_chunk_size(previous)
    return world, dataset


@pytest.fixture(scope="module")
def batch():
    world = World(WorldConfig(seed=SEED, num_domains=DOMAINS))
    dataset = DatasetBuilder(world).build(0)
    return world, dataset


@pytest.fixture(
    scope="module",
    params=[(1, 80), (2, 80), (2, 73)],  # 73: chunk does not divide 400
    ids=["w1-c80", "w2-c80", "w2-c73-nondivisor"],
)
def chunked(request):
    if not hasattr(os, "fork"):
        pytest.skip("chunk workers need os.fork")
    workers, chunk = request.param
    return _chunked_build(workers, chunk)


@needs_fork
class TestChunkedEqualsBatch:

    def test_dataset_identical(self, batch, chunked):
        _, batch_dataset = batch
        _, dataset = chunked
        assert _dataset_view(dataset) == _dataset_view(batch_dataset)

    def test_discovered_restriction_is_consistent(self, batch, chunked):
        _, batch_dataset = batch
        _, dataset = chunked
        # Restricted, but every kept entry matches the batch map and
        # every domain an analysis can join on is present.
        for domain, subs in dataset.discovered.items():
            assert batch_dataset.discovered.get(domain) == subs
        needed = {r.domain for r in dataset.records}
        needed.update(r.domain for r in dataset.cloudfront_records)
        needed.update(dataset.other_cdn_subdomains)
        assert needed <= set(dataset.discovered)

    def test_world_state_identical(self, batch, chunked):
        batch_world, _ = batch
        world, _ = chunked
        assert (
            world.dns.dynamic_query_counts()
            == batch_world.dns.dynamic_query_counts()
        )
        assert {
            name: r.query_count for name, r in world._resolvers.items()
        } == {
            name: r.query_count
            for name, r in batch_world._resolvers.items()
        }
        batch_describe = batch_world.describe()
        describe = world.describe()
        for key, value in batch_describe.items():
            if key == "dns_zones":  # released tenants, by design
                continue
            assert describe.get(key) == value, key

    def test_traffic_domains_identical(self, batch, chunked):
        batch_world, _ = batch
        world, _ = chunked
        # The batch world records traffic lazily — consume its stream
        # once here; the chunked world recorded during release.
        if not hasattr(batch_world, "_pinned_traffic"):
            batch_world._pinned_traffic = batch_world.traffic_domains()
        assert world.traffic_domains() == batch_world._pinned_traffic

    def test_tenant_state_released(self, batch, chunked):
        batch_world, _ = batch
        world, _ = chunked
        assert len(world.dns.zones()) < len(batch_world.dns.zones()) / 2
        assert not world.deployer.deployed


@needs_fork
class TestChunkedCapture:
    def test_capture_matches_batch_world(self):
        # Fresh worlds: capture parity needs the dataset built first on
        # both sides (the sequential pipeline order), and the batch
        # traffic stream must be consumed exactly once per world.
        batch_world = World(WorldConfig(seed=SEED, num_domains=DOMAINS))
        DatasetBuilder(batch_world).build(0)
        batch_summary = batch_world.capture_summary()
        world, _ = _chunked_build(2, 80)
        summary = world.capture_summary()
        assert (len(summary), summary.total_bytes()) == (
            len(batch_summary), batch_summary.total_bytes()
        )
        assert summary.cloud_shares() == batch_summary.cloud_shares()
        assert (
            summary.domains.items() == batch_summary.domains.items()
        )


class TestFallbackMatrix:
    """:meth:`DatasetBuilder.fans_out` is the one check between the
    fan-out and the in-process build; observing a run or drilling an
    outage must not change which one runs."""

    def _deferred_world(self):
        return World(
            WorldConfig(seed=SEED, num_domains=150), defer_tenants=True
        )

    def _assert_fans_out_like_batch(self, workers, **builder_kwargs):
        batch_world = World(WorldConfig(seed=SEED, num_domains=150))
        batch_obs = Observability.collecting(events=True)
        batch_dataset = DatasetBuilder(
            batch_world, obs=batch_obs, **builder_kwargs
        ).build(0)
        world = self._deferred_world()
        obs = Observability.collecting(events=True)
        builder = DatasetBuilder(world, obs=obs, **builder_kwargs)
        assert builder.fans_out(workers)
        # Four chunks in groups of ``workers``: events from every group
        # must still come out lookup phase first, in rank order.
        previous = flags.set_chunk_size(40)
        try:
            dataset = builder.build(workers)
        finally:
            flags.set_chunk_size(previous)
        assert _dataset_view(dataset) == _dataset_view(batch_dataset)
        assert batch_obs.events.to_ndjson()
        assert obs.events.to_ndjson() == batch_obs.events.to_ndjson()
        assert len(world.dns.zones()) < len(batch_world.dns.zones())
        assert not world.deployer.deployed

    def test_eligible_by_default(self):
        if not hasattr(os, "fork"):
            pytest.skip("fork required for the eligible case")
        builder = DatasetBuilder(self._deferred_world())
        assert builder.fans_out(0)

    @needs_fork
    def test_live_event_sink_fans_out_like_batch(self):
        self._assert_fans_out_like_batch(workers=0)

    @needs_fork
    def test_outage_scenario_fans_out_like_batch(self):
        # DNS probes are scenario-transparent, so a drill changes
        # neither the records nor the event log.
        self._assert_fans_out_like_batch(
            workers=2, scenario=OutageScenario(name="drill")
        )

    def test_partial_range_coverage_declines(self):
        builder = DatasetBuilder(
            self._deferred_world(), range_coverage=0.5
        )
        assert not builder.fans_out(0)

    def test_ineligible_deferred_world_catches_up_to_batch(self):
        batch_world = World(WorldConfig(seed=SEED, num_domains=150))
        batch_dataset = DatasetBuilder(
            batch_world, range_coverage=0.5
        ).build(0)
        world = self._deferred_world()
        dataset = DatasetBuilder(world, range_coverage=0.5).build(0)
        assert not world.pending_tenants
        assert _dataset_view(dataset) == _dataset_view(batch_dataset)
        assert world.traffic_domains() == batch_world.traffic_domains()


class TestDeferredWorldGuards:
    def test_traffic_requires_finalized_world(self):
        world = World(
            WorldConfig(seed=SEED, num_domains=150), defer_tenants=True
        )
        window = world.ensure_deployed_through(150)
        assert len(window) == 150
        world.release_window()
        with pytest.raises(RuntimeError):
            world.traffic_domains()
        with pytest.raises(RuntimeError):
            world.catch_up_tenants()  # released windows cannot catch up
        world.finalize_tenants()
        assert world.traffic_domains() == world.traffic_domains()

    def test_finalized_world_rejects_more_deploys(self):
        world = World(WorldConfig(seed=SEED, num_domains=150))
        with pytest.raises(RuntimeError):
            world.ensure_deployed_through(10)


class TestChunkSizeFlag:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flags.set_chunk_size(0)

    def test_env_fallback_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "777")
        assert flags.streaming_chunk_size() == 777
        previous = flags.set_chunk_size(123)
        try:
            assert flags.streaming_chunk_size() == 123
        finally:
            flags.set_chunk_size(previous)
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "bogus")
        assert (
            flags.streaming_chunk_size() == flags.DEFAULT_CHUNK_SIZE
        )
