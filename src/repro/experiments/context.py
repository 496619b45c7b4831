"""Shared state for experiment runs, each artifact resolved once.

Building the world, the Alexa dataset, the capture, and the WAN
campaign dominates runtime; experiments share one context so each
expensive artifact is produced exactly once per configuration.

With an :class:`~repro.artifacts.ArtifactStore` attached, each of the
three artifacts — dataset, capture trace, WAN matrices — resolves in
one step (:meth:`ExperimentContext._resolve`), keyed on its
configuration plus the code fingerprint.  The build is the only miss
path and the restore the only hit path:

* a **miss** builds the product against the world and stores it with
  the world state the build left behind (a
  :class:`~repro.artifacts.WorldDelta`: the streams it drew, the
  rotation counters it advanced, the resolver caches and query counts
  it changed, and the deterministic counters it bumped);
* a **hit** serves the stored product, adds its counters to the run's
  metrics at once, and *restores* its world state — never rebuilding.

The cache must be a pure accelerator even for consumers that bypass the
products and read the world directly (probing experiments, zone
analyses).  A restore therefore waits for the world: when it
materializes, pending restores run in serve order, each inside a
``restore:<kind>`` stage span, and leave the world exactly where a cold
run's builds would.  A product-only warm run never builds the world.

Dependencies are explicit.  The capture generator resolves traffic
domains through live DNS, so the trace depends on the rotation counters
and resolver caches the dataset build leaves behind: the capture always
resolves the dataset first, cached or not.  The WAN campaign is
independent and resolves when its matrices are first needed, which is
when a cold run measures them.

Every artifact records a fingerprint of the state its build started
from and one of its own payload.  A hit whose payload or live world
does not match counts a miss, rebuilds against the live world and
stores afresh; a rebuild that differs from the product already served
raises, so a run never continues on a diverged world.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional

from repro.analysis.dataset import AlexaSubdomainsDataset, DatasetBuilder
from repro.analysis.clouduse import CloudUseAnalysis
from repro.analysis.patterns import PatternAnalysis
from repro.analysis.regions import RegionAnalysis
from repro.analysis.traffic import TrafficAnalysis
from repro.analysis.wan import WanAnalysis, WanConfig
from repro.artifacts import (
    ArtifactStore,
    StateRecorder,
    WorldDelta,
    artifact_key,
    canonical,
)
from repro.analysis.zones import ZoneAnalysis
from repro.capture.flow import Trace
from repro.cloud.ec2 import ec2_region_names
from repro.faults.scenarios import OutageScenario
from repro.internet.vantage import planetlab_sites
from repro.obs import Observability
from repro.world import World, WorldConfig


class ExperimentContext:
    """Caches the world and every derived dataset/analysis."""

    def __init__(
        self,
        world_config: Optional[WorldConfig] = None,
        wan_config: Optional[WanConfig] = None,
        workers: int = 0,
        artifact_store: Optional[ArtifactStore] = None,
        scenario: Optional[OutageScenario] = None,
        obs: Optional[Observability] = None,
        epoch=None,
    ):
        self.world_config = world_config or WorldConfig()
        self.wan_config = wan_config or WanConfig()
        #: Shard count for the dataset build (the WAN campaign reads its
        #: own ``wan_config.workers``; the CLI sets both from one flag).
        self.workers = workers
        self.artifacts = artifact_store
        #: Outage drill threaded into every engine campaign this context
        #: runs (and into the dataset/WAN artifact keys — a drilled run
        #: must never be served a healthy run's products).
        self.scenario = scenario
        #: Point on a world timeline (:class:`repro.epochs.plan.Epoch`)
        #: or ``None`` for the classic single-shot pipeline.  When set,
        #: the world is built through the epoch timeline and artifact
        #: keys gain a per-kind epoch fingerprint — omitted whenever no
        #: step through this epoch touched the kind, so those artifacts
        #: keep their epoch-0 keys and hit the store.
        self.epoch = epoch
        #: Observability plane threaded into every build, campaign, and
        #: artifact-store call this context owns.  Defaults to a
        #: collecting tracer+metrics (events off) so :meth:`telemetry`
        #: keeps its historical stage/campaign timing report.
        self.obs = obs if obs is not None else Observability.collecting()
        if artifact_store is not None and not artifact_store.obs.enabled:
            artifact_store.obs = self.obs
        self._world: Optional[World] = None
        #: Cache hits waiting for the world: their restores run in
        #: serve order the moment it materializes.
        self._restores: List[Callable[[], None]] = []
        self._dataset: Optional[AlexaSubdomainsDataset] = None
        self._trace: Optional[Trace] = None
        self._clouduse: Optional[CloudUseAnalysis] = None
        self._patterns: Optional[PatternAnalysis] = None
        self._regions: Optional[RegionAnalysis] = None
        self._zones: Optional[ZoneAnalysis] = None
        self._traffic: Optional[TrafficAnalysis] = None
        self._wan: Optional[WanAnalysis] = None

    # -- artifact keys -------------------------------------------------

    def _key(self, kind: str, **extra: object) -> str:
        # The scenario joins the key only when set, so healthy-run keys
        # are unchanged across revisions that predate scenarios.
        if self.scenario is not None:
            extra["scenario"] = self.scenario.name
        # Same join-only-when-set rule for the epoch axis: the
        # fingerprint is None both for epoch 0 and for kinds no step
        # touched, so those keys equal the single-shot keys and the
        # cached artifacts are reused across the series.
        if self.epoch is not None:
            fingerprint = self.epoch.fingerprint(kind)
            if fingerprint is not None:
                extra["epoch"] = fingerprint
        return artifact_key(
            kind, {"world": self.world_config, **extra}
        )

    def _dataset_key(self) -> str:
        return self._key("dataset", range_coverage=1.0)

    def _capture_key(self) -> str:
        return self._key("capture")

    def _wan_key(self) -> str:
        # Worker counts never change outputs (the campaigns are
        # bit-identical), so sequential and parallel runs share entries.
        return self._key("wan", wan=replace(self.wan_config, workers=0))

    # -- expensive artifacts -------------------------------------------

    @property
    def world(self) -> World:
        if self._world is None:
            with self.obs.tracer.span("world", category="stage"):
                if self.epoch is not None:
                    # The epoch timeline owns world construction: base
                    # world plus every evolution step through this
                    # epoch, memoized on the Epoch.
                    self._world = self.epoch.build_world()
                else:
                    self._world = World(self.world_config)
            pending, self._restores = self._restores, []
            for restore in pending:
                restore()
        return self._world

    def _resolve(
        self,
        kind: str,
        key: str,
        build: Callable[[], object],
        prepare: Optional[Callable[[], None]] = None,
        adopt: Optional[Callable[[object], None]] = None,
    ):
        """Serve one artifact's product: build and store it on a miss,
        restore the state its build left on a hit.

        ``prepare()`` is world work that precedes the build and that a
        restore redoes rather than records (the WAN fleet launch: its
        allocations depend on what launched before).  ``adopt(product)``
        hands a restored product to the world (the capture the world
        keeps); it runs just before the delta applies.
        """
        if self.artifacts is None:
            return build()
        cached = self.artifacts.load(kind, key)
        if cached is not None and not cached[1].sound():
            self.artifacts.reject(kind, key)
            cached = None
        if cached is None:
            product, delta = self._record(build, prepare)
            self.artifacts.store(kind, key, (product, delta))
            return product
        product, delta = cached
        self.obs.metrics.apply_counter_deltas(delta.counters)

        def restore() -> None:
            self._restore(kind, key, product, delta, build, prepare, adopt)

        if self._world is None:
            self._restores.append(restore)
        else:
            restore()
        return product

    def _record(
        self,
        build: Callable[[], object],
        prepare: Optional[Callable[[], None]] = None,
    ):
        """Run ``build`` against the world; the product and its delta."""
        world = self.world
        if prepare is not None:
            prepare()
        recorder = StateRecorder(world, self.obs.metrics)
        product = build()
        return product, recorder.delta()

    def _restore(
        self,
        kind: str,
        key: str,
        product: object,
        delta: WorldDelta,
        build: Callable[[], object],
        prepare: Optional[Callable[[], None]],
        adopt: Optional[Callable[[object], None]],
    ) -> None:
        world = self._world
        with self.obs.tracer.span(f"restore:{kind}", category="stage"):
            if prepare is not None:
                prepare()
            if delta.matches(world):
                if adopt is not None:
                    adopt(product)
                delta.apply(world)
                return
        # The live world is not the one the artifact was built on:
        # take back what the hit counted and rebuild here instead.
        self.artifacts.reject(kind, key)
        self.obs.metrics.apply_counter_deltas([
            (name, labels, -amount, volatile)
            for name, labels, amount, volatile in delta.counters
        ])
        rebuilt, fresh = self._record(build)
        if not _same_product(product, rebuilt):
            raise RuntimeError(
                f"{kind} artifact {key[:12]}: the live world rebuilds a "
                f"different {kind} than the one already served"
            )
        self.artifacts.store(kind, key, (rebuilt, fresh))

    def _build_dataset(self) -> AlexaSubdomainsDataset:
        """Run the real §2.1 build against this context's world."""
        with self.obs.tracer.span("dataset", category="stage"):
            builder = DatasetBuilder(
                self.world, scenario=self.scenario, obs=self.obs
            )
            return builder.build(workers=self.workers)

    @property
    def dataset(self) -> AlexaSubdomainsDataset:
        if self._dataset is None:
            self._dataset = self._resolve(
                "dataset", self._dataset_key(), self._build_dataset
            )
        return self._dataset

    def _build_capture(self) -> Trace:
        with self.obs.tracer.span("capture", category="stage"):
            return self.world.capture_trace()

    @property
    def trace(self) -> Trace:
        """The campus capture trace (cache-aware)."""
        if self._trace is None:
            # The capture's build and restore presuppose the dataset's
            # world state.
            self.dataset
            self._trace = self._resolve(
                "capture", self._capture_key(), self._build_capture,
                adopt=lambda trace: self.world.adopt_capture_trace(trace),
            )
        return self._trace

    @property
    def wan(self) -> WanAnalysis:
        if self._wan is None:
            analysis = WanAnalysis(
                lambda: self.world,
                self.wan_config,
                clients=planetlab_sites(
                    self.world_config.num_probe_vantages
                ),
                regions=ec2_region_names(),
                scenario=self.scenario,
                obs=self.obs,
            )
            if self.artifacts is not None:
                key = self._wan_key()

                def measure(fill: Callable[[], None]) -> None:
                    def build():
                        fill()
                        return analysis._latency, analysis._throughput

                    analysis.preload_measurements(*self._resolve(
                        "wan", key, build, prepare=analysis.instances,
                    ))

                analysis.measure_hook = measure
            self._wan = analysis
        return self._wan

    # -- derived analyses ----------------------------------------------

    @property
    def clouduse(self) -> CloudUseAnalysis:
        if self._clouduse is None:
            self._clouduse = CloudUseAnalysis(self.world, self.dataset)
        return self._clouduse

    @property
    def patterns(self) -> PatternAnalysis:
        if self._patterns is None:
            self._patterns = PatternAnalysis(self.world, self.dataset)
        return self._patterns

    @property
    def regions(self) -> RegionAnalysis:
        if self._regions is None:
            self._regions = RegionAnalysis(self.world, self.dataset)
        return self._regions

    @property
    def zones(self) -> ZoneAnalysis:
        if self._zones is None:
            self._zones = ZoneAnalysis(
                self.world, self.dataset, self.patterns
            )
        return self._zones

    @property
    def traffic(self) -> TrafficAnalysis:
        if self._traffic is None:
            self._traffic = TrafficAnalysis(self.world, trace=self.trace)
        return self._traffic

    # -- run telemetry -------------------------------------------------

    def telemetry(self) -> dict:
        """Per-stage wall times and campaign telemetry for this
        context's builds, aggregated from the tracer's span tree.  Only
        stages that actually ran appear; a fully warm artifact-cache
        run reports none, and a :data:`~repro.obs.NOOP` plane reports
        empty sections."""
        tracer = self.obs.tracer
        telemetry = {
            "stages_s": {
                f"{name}_s": round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("stage").items()
                )
            },
            "dataset_steps_s": {
                name: round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("dataset-step").items()
                )
            },
            "campaigns_s": {
                name: round(seconds, 3)
                for name, seconds in sorted(
                    tracer.seconds_by_name("campaign").items()
                )
            },
        }
        if self.artifacts is not None:
            telemetry["artifact_cache"] = self.artifacts.stats.as_dict()
        return telemetry


def _same_product(served: object, rebuilt: object) -> bool:
    """Whether a rebuild reproduced a product already served: traces
    flow by flow, the rest by canonical encoding (NaN-safe)."""
    if isinstance(served, Trace):
        return list(served) == list(rebuilt)
    return canonical(served) == canonical(rebuilt)
