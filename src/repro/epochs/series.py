"""The epoch series runner: N runs along one world timeline.

``run_series`` executes the full experiment pipeline once per epoch.
Epoch 0 is exactly today's single-shot run — same world, same artifact
keys, same ``run-<hash>`` manifest directory.  Each later epoch builds
its world through the plan's cumulative steps and re-consults the
content-addressed store with epoch-fingerprinted keys: artifact kinds
no step touched keep their epoch-0 keys and are served from cache (the
WAN matrices hit at *every* epoch under every bundled plan), so only
the diffed portion of the pipeline re-probes.

Two output families per series:

* per-epoch ``run-<hash>/`` directories via the normal
  :class:`~repro.experiments.manifest.RunManifest` machinery (epoch 0
  also carries the §2.1 TSV ``release/``);
* a ``series-<hash>/`` directory with ``series.json`` (deterministic:
  epoch links, step diffs, fingerprints, snapshots, trend
  measurements), ``trends.txt`` (the rendered trend tables), and a
  volatile ``series-timings.json`` sidecar (per-epoch wall clock and
  cache hit/miss deltas — the same quarantine rule as
  ``timings.json``).

Determinism contract: ``series.json``, every ``manifest.json``, and
``trends.txt`` are byte-identical sequential vs ``--workers N`` and
cold vs warm-cache — worker counts and cache state are environmental
and live only in the timings sidecar.  Per-epoch contexts therefore
run with a private tracer and *no* metrics registry (build counters
depend on which builds the cache skipped), while the series-level
``obs`` keeps the volatile cache hit/miss counters the reuse tests
assert on.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.analysis.wan import WanConfig
from repro.artifacts import ArtifactStore, artifact_key
from repro.artifacts.keys import code_fingerprint
from repro.epochs.plan import Epoch, EpochPlan
from repro.epochs.trends import run_trends
from repro.evolution import Snapshot, take_world_snapshot
from repro.experiments.base import ExperimentResult
from repro.experiments.context import ExperimentContext
from repro.experiments.manifest import RunManifest, check_schema_version
from repro.experiments.spec import ExperimentSpec
from repro.obs import NOOP, Observability, Tracer
from repro.world import WorldConfig

logger = logging.getLogger(__name__)

#: Cache-stat fields carried into each epoch's delta record.
_CACHE_FIELDS = ("hits", "misses", "stores", "invalid")

#: Version of the ``series.json`` layout this code writes; same
#: contract as :data:`repro.experiments.manifest.MANIFEST_SCHEMA_VERSION`
#: (missing field = version 0, newer versions refused on load).
SERIES_SCHEMA_VERSION = 1


def series_identifier(
    world_config: WorldConfig,
    wan_config: WanConfig,
    plan: EpochPlan,
    epochs: int,
    experiment_ids: Tuple[str, ...],
    scenario: Optional[str] = None,
) -> str:
    """Deterministic series id (worker counts never change outputs)."""
    from dataclasses import replace

    components = {
        "world": world_config,
        "wan": replace(wan_config, workers=0),
        "plan": plan.name,
        "epochs": epochs,
        "experiments": tuple(experiment_ids),
    }
    if scenario is not None:
        components["scenario"] = scenario
    return "series-" + artifact_key("series", components)[:12]


@dataclass
class EpochRun:
    """One epoch's outputs within a series."""

    epoch: Epoch
    manifest: RunManifest
    results: List[ExperimentResult]
    snapshot: Snapshot
    #: Wall clock for the whole epoch (volatile; timings sidecar only).
    elapsed_s: float
    #: Artifact-store hit/miss/store deltas attributable to this epoch
    #: (volatile: cache state is environmental).
    cache_delta: Dict[str, int] = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    def link(self) -> dict:
        """This epoch's deterministic entry in ``series.json``."""
        epoch = self.epoch
        return {
            "index": epoch.index,
            "run_id": self.run_id,
            "virtual_time_s": epoch.virtual_time_s(),
            "steps": [step.spec() for step in epoch.steps()],
            "diffs": [diff.as_dict() for diff in epoch.diffs],
            "fingerprints": {
                kind: epoch.fingerprint(kind)
                for kind in ("dataset", "capture", "wan")
            },
            "snapshot": self.snapshot.as_dict(),
        }


@dataclass
class SeriesResult:
    """Everything one series run produced."""

    series_id: str
    plan: EpochPlan
    world_config: WorldConfig
    wan_config: WanConfig
    scenario: Optional[str]
    experiment_ids: Tuple[str, ...]
    epochs: List[EpochRun]
    trends: List[Dict[str, object]]
    #: Volatile per-epoch wall clock + cache deltas; never part of
    #: :meth:`payload`.
    timings: Dict[str, object] = field(default_factory=dict)

    @property
    def snapshots(self) -> List[Snapshot]:
        return [run.snapshot for run in self.epochs]

    def payload(self) -> dict:
        """The deterministic ``series.json`` body."""
        return {
            "schema_version": SERIES_SCHEMA_VERSION,
            "series_id": self.series_id,
            "plan": {
                "name": self.plan.name,
                "description": self.plan.description,
                "epoch_seconds": self.plan.epoch_seconds,
            },
            "config": {
                "seed": self.world_config.seed,
                "domains": self.world_config.num_domains,
                "wan_rounds": self.wan_config.rounds,
                "scenario": self.scenario,
                "epochs": len(self.epochs),
                "experiments": list(self.experiment_ids),
            },
            "code_fingerprint": code_fingerprint(),
            "epochs": [run.link() for run in self.epochs],
            "trends": [
                {
                    "id": row["id"],
                    "title": row["title"],
                    "measured": row["measured"],
                }
                for row in self.trends
            ],
        }

    def render_trends(self) -> str:
        return "\n\n".join(str(row["rendered"]) for row in self.trends)

    def write(self, out_dir: Union[str, Path]) -> Dict[str, Path]:
        """Write ``<out-dir>/<series-id>/``; per-epoch run directories
        are written by :func:`run_series` itself (same root)."""
        series_dir = Path(out_dir) / self.series_id
        series_dir.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {"series_dir": series_dir}

        paths["series"] = series_dir / "series.json"
        with paths["series"].open("w") as fh:
            json.dump(self.payload(), fh, indent=2, sort_keys=False)
            fh.write("\n")

        paths["trends"] = series_dir / "trends.txt"
        paths["trends"].write_text(self.render_trends() + "\n")

        paths["timings"] = series_dir / "series-timings.json"
        with paths["timings"].open("w") as fh:
            json.dump(self.timings, fh, indent=2, sort_keys=False)
            fh.write("\n")
        return paths


def run_series(
    specs: Sequence[ExperimentSpec],
    world_config: WorldConfig,
    wan_config: WanConfig,
    plan: EpochPlan,
    epochs: int,
    workers: int = 0,
    artifact_store: Optional[ArtifactStore] = None,
    scenario=None,
    obs: Observability = NOOP,
    out_dir: Optional[Union[str, Path]] = None,
) -> SeriesResult:
    """Run ``specs`` at every epoch of ``plan``'s timeline.

    ``obs`` is the *series-level* plane: epoch spans, volatile
    per-epoch cache counters, and the artifact store's hit/miss
    accounting hang off it.  Each epoch gets a private tracer-only
    plane so its ``manifest.json`` stays byte-identical regardless of
    cache state (see the module docstring).
    """
    if epochs < 1:
        raise ValueError(f"a series needs at least 1 epoch, got {epochs}")
    specs = list(specs)
    scenario_name = scenario.name if scenario is not None else None
    if artifact_store is not None and obs.enabled:
        # The store reports hits/misses through the series plane, not
        # any single epoch's.
        artifact_store.obs = obs
    runs: List[EpochRun] = []
    out_root = Path(out_dir) if out_dir is not None else None
    for index in range(epochs):
        epoch = Epoch(plan, index, world_config)
        before = (
            artifact_store.stats.as_dict()
            if artifact_store is not None else None
        )
        started = time.perf_counter()
        with obs.tracer.span(
            f"epoch:{index}", category="epoch", plan=plan.name
        ):
            epoch_obs = Observability(tracer=Tracer())
            context = ExperimentContext(
                world_config=world_config,
                wan_config=wan_config,
                workers=workers,
                artifact_store=artifact_store,
                scenario=scenario,
                obs=epoch_obs,
                epoch=epoch,
            )
            executed: List[
                Tuple[ExperimentSpec, ExperimentResult, float]
            ] = []
            results: List[ExperimentResult] = []
            for spec in specs:
                spec_started = time.perf_counter()
                result = spec.run(context)
                executed.append(
                    (spec, result, time.perf_counter() - spec_started)
                )
                results.append(result)
            manifest = RunManifest.from_run(context, executed)
            # Worker counts are environmental (outputs are
            # bit-identical across them); quarantine the knob in the
            # timings sidecar so series manifests are byte-identical
            # sequential vs --workers N.
            manifest.config["workers"] = 0
            manifest.timings["workers"] = workers
            snapshot = take_world_snapshot(
                epoch.build_world(), context.dataset,
                label=f"epoch-{index}", epoch=index,
            )
        elapsed = time.perf_counter() - started
        delta: Dict[str, int] = {}
        if before is not None:
            after = artifact_store.stats.as_dict()
            delta = {
                name: after[name] - before[name]
                for name in _CACHE_FIELDS
            }
            if obs.metrics.enabled:
                for name, value in delta.items():
                    if value:
                        obs.metrics.counter(
                            f"epoch_artifact_{name}_total",
                            volatile=True, epoch=str(index),
                        ).inc(value)
        run = EpochRun(
            epoch=epoch,
            manifest=manifest,
            results=results,
            snapshot=snapshot,
            elapsed_s=elapsed,
            cache_delta=delta,
        )
        if out_root is not None:
            # Epoch 0 is the single-shot run and carries the TSV
            # release; later epochs skip it (exporting reads
            # context.world, which would force artifact restores on
            # an otherwise fully warm epoch).
            manifest.write(
                out_root, results=results,
                context=context if index == 0 else None,
            )
        runs.append(run)
    trend_rows = run_trends(
        [run.snapshot for run in runs],
        world_config.num_domains,
        obs=obs,
    )
    result = SeriesResult(
        series_id=series_identifier(
            world_config, wan_config, plan, epochs,
            tuple(spec.experiment_id for spec in specs),
            scenario=scenario_name,
        ),
        plan=plan,
        world_config=world_config,
        wan_config=wan_config,
        scenario=scenario_name,
        experiment_ids=tuple(spec.experiment_id for spec in specs),
        epochs=runs,
        trends=trend_rows,
        timings={
            "workers": workers,
            "epochs_s": {
                str(run.epoch.index): round(run.elapsed_s, 3)
                for run in runs
            },
            "cache_deltas": {
                str(run.epoch.index): run.cache_delta for run in runs
            },
        },
    )
    if out_root is not None:
        result.write(out_root)
    return result


# -- reading series back ----------------------------------------------
#
# Like manifests (see repro.experiments.manifest), series used to be
# write-only; the service repository layer reads them back with the
# same schema-version contract.


def load_series(path: Union[str, Path]) -> dict:
    """Load and validate one ``series.json`` (or series directory).

    Raises ``FileNotFoundError``/``json.JSONDecodeError`` for
    unreadable files, ``ValueError`` for JSON that is not a series
    payload, and
    :class:`~repro.experiments.manifest.UnsupportedSchemaError` for
    versions newer than :data:`SERIES_SCHEMA_VERSION`.
    """
    path = Path(path)
    expected_id = None
    if path.is_dir():
        expected_id = path.name
        path = path / "series.json"
    with path.open() as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "series_id" not in payload:
        raise ValueError(f"{path} is not a series payload (no series_id)")
    if expected_id is not None and payload["series_id"] != expected_id:
        raise ValueError(
            f"{path} declares series_id {payload['series_id']!r} but "
            f"lives in {expected_id!r}"
        )
    check_schema_version(payload, SERIES_SCHEMA_VERSION, path)
    return payload


def iter_series_payloads(
    root: Union[str, Path]
) -> Iterator[Tuple[Path, dict]]:
    """Yield ``(series_dir, payload)`` for every ``series-*`` directory
    under ``root`` in sorted order, skipping corrupt ones with a
    warning (the same contract as
    :func:`repro.experiments.manifest.iter_run_manifests`)."""
    root = Path(root)
    if not root.is_dir():
        return
    for series_dir in sorted(root.glob("series-*")):
        if not series_dir.is_dir():
            continue
        try:
            yield series_dir, load_series(series_dir)
        except (OSError, ValueError) as error:
            logger.warning(
                "skipping series dir %s: %s", series_dir, error
            )
