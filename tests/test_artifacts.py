"""The content-addressed artifact cache: keys, store, and context use.

The cache may only ever be a pure accelerator: a warm hit has to hand
back exactly what a cold build would have produced, a key has to change
whenever the build inputs (configs or code) change, and anything
corrupt on disk has to be rejected, deleted, and rebuilt.
"""

import pickle
import shutil

import pytest

from repro.analysis.wan import WanConfig
from repro.artifacts import (
    ArtifactStore,
    artifact_key,
    canonical,
    code_fingerprint,
)
from repro.experiments.context import ExperimentContext
from repro.world import WorldConfig


class TestCanonical:
    def test_dataclass_encoding_in_field_order(self):
        config = WanConfig(rounds=3)
        text = canonical(config)
        assert text.startswith("WanConfig(")
        assert "rounds=3" in text

    def test_dict_key_order_irrelevant(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})

    def test_distinguishes_equal_but_distinct_primitives(self):
        # 1 == 1.0, but a world seeded with either is NOT the same
        # build; the repr fallback keeps them apart.
        assert canonical(1) != canonical(1.0)
        assert canonical("1") != canonical(1)

    def test_nested_structures(self):
        value = {"outer": [WanConfig(rounds=2), (1, 2)], "s": {3, 1}}
        assert canonical(value) == canonical(
            {"s": {1, 3}, "outer": [WanConfig(rounds=2), (1, 2)]}
        )


class TestArtifactKey:
    def test_stable_for_identical_inputs(self):
        a = artifact_key("dataset", {"world": WorldConfig(seed=7)})
        b = artifact_key("dataset", {"world": WorldConfig(seed=7)})
        assert a == b

    def test_config_change_changes_key(self):
        a = artifact_key("dataset", {"world": WorldConfig(seed=7)})
        b = artifact_key("dataset", {"world": WorldConfig(seed=8)})
        assert a != b

    def test_kind_change_changes_key(self):
        components = {"world": WorldConfig(seed=7)}
        assert artifact_key("dataset", components) != artifact_key(
            "capture", components
        )

    def test_code_version_changes_key(self):
        components = {"world": WorldConfig(seed=7)}
        a = artifact_key("dataset", components, code="deadbeef")
        b = artifact_key("dataset", components, code="cafef00d")
        assert a != b
        # The default code argument is the real package fingerprint.
        assert artifact_key("dataset", components) == artifact_key(
            "dataset", components, code=code_fingerprint()
        )


class TestArtifactStore:
    def test_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifact = {"rows": [1, 2, 3], "label": "x"}
        store.store("dataset", "k" * 64, artifact)
        loaded = store.load("dataset", "k" * 64)
        assert loaded == artifact
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 0, "stores": 1, "invalid": 0,
        }

    def test_absent_key_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("dataset", "absent") is None
        assert store.stats.misses == 1
        assert store.stats.invalid == 0

    def test_corrupt_payload_rejected_and_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.store("dataset", "key1", [1, 2, 3])
        raw = path.read_bytes()
        path.write_bytes(raw[:-2] + b"!!")  # flip payload bytes
        assert store.load("dataset", "key1") is None
        assert not path.exists()
        assert store.stats.invalid == 1
        assert store.stats.misses == 1

    def test_missing_header_rejected_and_deleted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("dataset", "key2")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps([1, 2, 3]))  # headerless file
        assert store.load("dataset", "key2") is None
        assert not path.exists()
        assert store.stats.invalid == 1

    def test_rebuild_after_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.store("dataset", "key3", "original")
        path.write_bytes(b"garbage")
        assert store.load("dataset", "key3") is None
        store.store("dataset", "key3", "rebuilt")
        assert store.load("dataset", "key3") == "rebuilt"


TINY = WorldConfig(seed=21, num_domains=200)
WAN = WanConfig(rounds=3)


def _run_pipeline(context):
    dataset = context.dataset
    trace = context.trace
    wan = context.wan
    wan._measure()
    return (
        sorted((r.fqdn, tuple(sorted(str(a) for a in r.addresses)))
               for r in dataset.records),
        (len(trace.flows), sum(f.total_bytes for f in trace.flows)),
        sorted(wan._latency.items()),
        sorted(wan._throughput.items()),
    )


def _world_state(ctx, order):
    """Touch the artifacts in ``order``, then read the world state the
    builds (or restores) left: streams, rotation counters, resolvers,
    the fleet, the kept capture, and the deterministic counters."""
    for name in order:
        if name == "wan":
            ctx.wan.region_average("us-east-1")
        else:
            getattr(ctx, name)
    world = ctx.world  # materializes; runs queued restores
    streams = world.streams.getstate()
    return (
        world.latency._jitter_rng.getstate(),
        world.throughput._noise_rng.getstate(),
        {k: v for k, v in streams.items() if k[0] == "capture"},
        sorted(world.dns.dynamic_query_counts().items()),
        {
            resolver.vantage.name: (
                resolver.query_count, resolver.cache_state()
            )
            for resolver in world.resolvers()
            if resolver.query_count or resolver.cache_state()
        },
        len(world.ec2.all_instances()),
        len(world.capture_trace()),
        ctx.obs.metrics.deterministic_snapshot(),
    )


class TestContextCaching:
    def test_warm_run_matches_cold_and_skips_every_build(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = ExperimentContext(TINY, WAN, artifact_store=store)
        cold_out = _run_pipeline(cold)
        assert store.stats.misses >= 3
        assert store.stats.stores >= 3

        warm_store = ArtifactStore(tmp_path)
        warm = ExperimentContext(TINY, WAN, artifact_store=warm_store)
        warm_out = _run_pipeline(warm)
        assert warm_out == cold_out
        assert warm_store.stats.misses == 0
        assert warm_store.stats.hits >= 3
        # Fully warm means the world itself was never constructed.
        assert warm._world is None

    def test_cached_outputs_match_uncached_pipeline(self, tmp_path):
        uncached = _run_pipeline(ExperimentContext(TINY, WAN))
        store = ArtifactStore(tmp_path)
        cached = _run_pipeline(
            ExperimentContext(TINY, WAN, artifact_store=store)
        )
        assert cached == uncached

    def test_worker_count_shares_wan_entries(self, tmp_path):
        # Parallel campaigns are bit-identical, so keys exclude worker
        # counts: a sequential run's artifacts serve a parallel context.
        store = ArtifactStore(tmp_path)
        _run_pipeline(ExperimentContext(TINY, WAN, artifact_store=store))
        parallel_store = ArtifactStore(tmp_path)
        parallel = ExperimentContext(
            TINY,
            WanConfig(rounds=3, workers=2),
            workers=2,
            artifact_store=parallel_store,
        )
        _run_pipeline(parallel)
        assert parallel_store.stats.misses == 0
        assert parallel._world is None

    def test_cache_hits_replay_world_side_effects(self, tmp_path):
        # The builds mutate the world (WAN: fleet + stream draws;
        # dataset: rotation counters + resolver caches; capture: the
        # campus resolver and the capture streams) and count probes.
        # A consumer that reads world state directly after cache hits
        # must see exactly the state a cold run's call sequence leaves,
        # whichever artifact it touches first.
        orders = (
            ("dataset", "trace", "wan"),
            ("trace", "dataset", "wan"),
            ("wan", "dataset", "trace"),
        )
        states = []
        for index, order in enumerate(orders):
            root = tmp_path / str(index)
            cold = _world_state(
                ExperimentContext(
                    TINY, WAN, artifact_store=ArtifactStore(root)
                ),
                order,
            )
            warm_store = ArtifactStore(root)
            warm_ctx = ExperimentContext(
                TINY, WAN, artifact_store=warm_store
            )
            warm = _world_state(warm_ctx, order)
            assert warm_store.stats.as_dict() == {
                "hits": 3, "misses": 0, "stores": 0, "invalid": 0,
            }, order
            assert warm == cold, order
            # Each restore ran inside its own stage span.
            stages = warm_ctx.telemetry()["stages_s"]
            assert {
                "restore:dataset_s", "restore:capture_s", "restore:wan_s",
            } <= set(stages)
            assert "dataset_s" not in stages and "capture_s" not in stages
            states.append(warm)
        # The WAN campaign is independent of the DNS-side builds, so
        # every access order ends in the same world.
        assert states[1] == states[0]
        assert states[2] == states[0]

    def test_config_change_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _run_pipeline(ExperimentContext(TINY, WAN, artifact_store=store))
        other_store = ArtifactStore(tmp_path)
        other = ExperimentContext(
            WorldConfig(seed=22, num_domains=200),
            WAN,
            artifact_store=other_store,
        )
        other.dataset
        assert other_store.stats.hits == 0
        assert other_store.stats.misses == 1


class TestCliColdWarm:
    """Cold, first-warm and steady-warm CLI runs through one cache."""

    # Capture first, then a dataset table, the WAN frontier, and a
    # traceroute table that reads the restored world directly.
    EXPERIMENTS = ("table01", "table03", "figure12", "table16")

    def test_warm_runs_restore_and_write_the_cold_manifest(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.analysis.dataset import DatasetBuilder
        from repro.capture.generator import CaptureGenerator
        from repro.experiments import cli

        calls = {"build": 0, "generate": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(DatasetBuilder, "build",
                            counted("build", DatasetBuilder.build))
        monkeypatch.setattr(CaptureGenerator, "generate",
                            counted("generate", CaptureGenerator.generate))
        manifests, cache_lines, builds = [], [], []
        for index in range(3):
            out_dir = tmp_path / f"run{index}"
            calls.update(build=0, generate=0)
            # table01 reads the capture first, so the capture resolves
            # the dataset before any experiment asks for it.
            code = cli.main([
                "--domains", "800", "--wan-rounds", "6",
                "--artifact-dir", str(tmp_path / "artifacts"),
                "--out-dir", str(out_dir), "-q", *self.EXPERIMENTS,
            ])
            assert code == 0
            output = capsys.readouterr().out
            cache_lines.append(next(
                line for line in output.splitlines()
                if line.startswith("artifact cache")
            ))
            (manifest,) = out_dir.glob("*/manifest.json")
            manifests.append(manifest.read_bytes())
            builds.append(dict(calls))
        assert cache_lines[0].endswith("0 hits, 3 misses, 3 stored")
        assert cache_lines[1].endswith("3 hits, 0 misses, 0 stored")
        assert cache_lines[2].endswith("3 hits, 0 misses, 0 stored")
        assert manifests[1] == manifests[0]
        assert manifests[2] == manifests[0]
        assert builds[0] == {"build": 1, "generate": 1}
        assert builds[1] == builds[2] == {"build": 0, "generate": 0}


@pytest.fixture(scope="module")
def cold_cache(tmp_path_factory):
    """A cache filled by one cold run, and the world state it left."""
    root = tmp_path_factory.mktemp("cold-cache")
    state = _world_state(
        ExperimentContext(TINY, WAN, artifact_store=ArtifactStore(root)),
        ("dataset", "trace", "wan"),
    )
    return root, state


def _tamper(root, kind, change):
    """Rewrite one stored artifact (with a valid file digest) after
    ``change(product, delta)`` edits it in place."""
    store = ArtifactStore(root)
    (path,) = (root / kind).glob("*.pkl")
    product, delta = store.load(kind, path.stem)
    change(product, delta)
    store.store(kind, path.stem, (product, delta))


def _stale(product, delta):
    delta.pre = "0" * 64


def _altered_payload(product, delta):
    if delta.query_counts:
        key = next(iter(delta.query_counts))
        delta.query_counts[key] += 1
    else:
        key = next(iter(delta.streams))
        delta.streams[key] = delta.streams[key][:2] + (0.5,)


class TestTamperedArtifacts:
    """A restore that cannot reproduce the build never yields a
    diverged world: it counts a miss and rebuilds identically."""

    @pytest.mark.parametrize("change", [_stale, _altered_payload],
                             ids=["pre-state", "payload"])
    def test_tampered_restore_rebuilds(self, tmp_path, cold_cache, change):
        source, cold = cold_cache
        shutil.copytree(source, tmp_path, dirs_exist_ok=True)
        for kind in ("dataset", "capture", "wan"):
            _tamper(tmp_path, kind, change)
        store = ArtifactStore(tmp_path)
        context = ExperimentContext(TINY, WAN, artifact_store=store)
        assert _world_state(context, ("dataset", "trace", "wan")) == cold
        assert store.stats.as_dict() == {
            "hits": 0, "misses": 3, "stores": 3, "invalid": 3,
        }
        # The rebuilds stored sound artifacts again.
        healed = ArtifactStore(tmp_path)
        assert _world_state(
            ExperimentContext(TINY, WAN, artifact_store=healed),
            ("dataset", "trace", "wan"),
        ) == cold
        assert healed.stats.misses == 0

    def test_rebuild_that_differs_from_the_served_product_raises(
        self, tmp_path, cold_cache
    ):
        def stale_and_wrong(product, delta):
            _stale(product, delta)
            product.records.pop()

        shutil.copytree(cold_cache[0], tmp_path, dirs_exist_ok=True)
        _tamper(tmp_path, "dataset", stale_and_wrong)
        context = ExperimentContext(
            TINY, WAN, artifact_store=ArtifactStore(tmp_path)
        )
        context.dataset
        with pytest.raises(RuntimeError, match="dataset artifact"):
            context.world
