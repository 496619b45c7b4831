"""The repository layer: a queryable catalog of runs and series.

Every experiments run leaves a ``run-<hash>/`` directory and every
longitudinal series a ``series-<hash>/`` one (see
:mod:`repro.experiments.manifest` and :mod:`repro.epochs.series`); until
now only ``ls`` could find them again.  :class:`RunRepository` indexes
one tree of those directories into SQLite and answers the questions the
scheduler, the HTTP API, and the CLI ask: list runs by scenario / seed /
fidelity status / experiment membership / epoch plan, fetch one run's
manifest, fidelity report, or timings, link a series to its epoch runs.

The index is a **pure cache**: the run directories on disk are the
source of truth, ``scan()`` rebuilds the whole index from them, and
deleting the SQLite file loses nothing — :meth:`rebuild` recreates a
query-identical index.  Corrupt or partial run directories (crashed
writers, unknown schema versions) are skipped with a warning and listed
in the :class:`ScanReport`, never fatal.

Thread safety: one connection guarded by an ``RLock`` — the HTTP API
serves from a thread pool while the scheduler ingests.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.epochs.series import load_series
from repro.experiments.manifest import LoadedRun, load_manifest
from repro.service.errors import UnknownRunError, UnknownSeriesError

logger = logging.getLogger(__name__)

#: Default index filename inside the repository root.  Dot-prefixed so
#: the run-dir globs never mistake it for a result.
INDEX_FILENAME = ".repro-index.sqlite"

#: Schema of the *index* (not of the manifests it caches).  Bumping it
#: invalidates old index files, which simply rebuild from disk.
_INDEX_SCHEMA = 1

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    path TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    seed INTEGER,
    domains INTEGER,
    wan_rounds INTEGER,
    scenario TEXT,
    epoch_plan TEXT,
    epoch_index INTEGER,
    code_fingerprint TEXT,
    fidelity_status TEXT,
    counts TEXT NOT NULL,
    experiments TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS run_experiments (
    run_id TEXT NOT NULL,
    experiment_id TEXT NOT NULL,
    status TEXT,
    PRIMARY KEY (run_id, experiment_id));
CREATE TABLE IF NOT EXISTS series (
    series_id TEXT PRIMARY KEY,
    path TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    plan TEXT,
    epochs INTEGER,
    seed INTEGER,
    domains INTEGER,
    wan_rounds INTEGER,
    scenario TEXT,
    code_fingerprint TEXT);
CREATE TABLE IF NOT EXISTS series_runs (
    series_id TEXT NOT NULL,
    epoch_index INTEGER NOT NULL,
    run_id TEXT NOT NULL,
    PRIMARY KEY (series_id, epoch_index));
"""


@dataclass(frozen=True)
class RunRecord:
    """One indexed run — the queryable projection of its manifest."""

    run_id: str
    path: str
    schema_version: int
    seed: Optional[int]
    domains: Optional[int]
    wan_rounds: Optional[int]
    scenario: Optional[str]
    epoch_plan: Optional[str]
    epoch_index: Optional[int]
    code_fingerprint: Optional[str]
    fidelity_status: Optional[str]
    counts: Dict[str, int] = field(default_factory=dict)
    experiments: Tuple[Dict[str, object], ...] = ()

    @classmethod
    def from_manifest(
        cls, run_dir: Union[str, Path], manifest: dict
    ) -> "RunRecord":
        config = manifest.get("config") or {}
        fidelity = manifest.get("fidelity") or {}
        epoch = config.get("epoch") or {}
        experiments = tuple(
            {"id": entry.get("id"), "status": entry.get("status")}
            for entry in manifest.get("experiments") or []
        )
        return cls(
            run_id=str(manifest["run_id"]),
            path=str(run_dir),
            schema_version=int(manifest.get("schema_version", 0)),
            seed=config.get("seed"),
            domains=config.get("domains"),
            wan_rounds=config.get("wan_rounds"),
            scenario=manifest.get("scenario"),
            epoch_plan=epoch.get("plan"),
            epoch_index=epoch.get("index"),
            code_fingerprint=manifest.get("code_fingerprint"),
            fidelity_status=fidelity.get("status"),
            counts={
                k: int(v)
                for k, v in (fidelity.get("counts") or {}).items()
            },
            experiments=experiments,
        )

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "path": self.path,
            "schema_version": self.schema_version,
            "seed": self.seed,
            "domains": self.domains,
            "wan_rounds": self.wan_rounds,
            "scenario": self.scenario,
            "epoch_plan": self.epoch_plan,
            "epoch_index": self.epoch_index,
            "code_fingerprint": self.code_fingerprint,
            "fidelity_status": self.fidelity_status,
            "counts": dict(self.counts),
            "experiments": [dict(e) for e in self.experiments],
        }


@dataclass(frozen=True)
class SeriesRecord:
    """One indexed longitudinal series and its epoch-run links."""

    series_id: str
    path: str
    schema_version: int
    plan: Optional[str]
    epochs: Optional[int]
    seed: Optional[int]
    domains: Optional[int]
    wan_rounds: Optional[int]
    scenario: Optional[str]
    code_fingerprint: Optional[str]
    run_ids: Tuple[str, ...] = ()

    @classmethod
    def from_payload(
        cls, series_dir: Union[str, Path], payload: dict
    ) -> "SeriesRecord":
        config = payload.get("config") or {}
        plan = payload.get("plan") or {}
        links = payload.get("epochs") or []
        return cls(
            series_id=str(payload["series_id"]),
            path=str(series_dir),
            schema_version=int(payload.get("schema_version", 0)),
            plan=plan.get("name"),
            epochs=config.get("epochs"),
            seed=config.get("seed"),
            domains=config.get("domains"),
            wan_rounds=config.get("wan_rounds"),
            scenario=config.get("scenario"),
            code_fingerprint=payload.get("code_fingerprint"),
            run_ids=tuple(
                str(link.get("run_id")) for link in links
            ),
        )

    def as_dict(self) -> dict:
        return {
            "series_id": self.series_id,
            "path": self.path,
            "schema_version": self.schema_version,
            "plan": self.plan,
            "epochs": self.epochs,
            "seed": self.seed,
            "domains": self.domains,
            "wan_rounds": self.wan_rounds,
            "scenario": self.scenario,
            "code_fingerprint": self.code_fingerprint,
            "run_ids": list(self.run_ids),
        }


@dataclass
class ScanReport:
    """What one :meth:`RunRepository.scan` pass found."""

    runs: int = 0
    series: int = 0
    #: ``[{"path": ..., "reason": ...}]`` for every directory skipped.
    skipped: List[Dict[str, str]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "series": self.series,
            "skipped": list(self.skipped),
        }


class RunRepository:
    """SQLite-indexed catalog over one tree of run/series directories."""

    def __init__(
        self,
        root: Union[str, Path],
        db_path: Optional[Union[str, Path]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.db_path = (
            Path(db_path) if db_path is not None
            else self.root / INDEX_FILENAME
        )
        self._lock = threading.RLock()
        self._conn = self._connect()

    # -- lifecycle -----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.db_path, check_same_thread=False)
        try:
            conn.executescript(_TABLES)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'index_schema'"
            ).fetchone()
            stale = row is not None and int(row[0]) != _INDEX_SCHEMA
        except sqlite3.DatabaseError:
            stale = True
        if stale:
            # A corrupt index, or one written by a different repro:
            # drop and rebuild — it's only a cache.
            conn.close()
            self.db_path.unlink()
            conn = sqlite3.connect(self.db_path, check_same_thread=False)
            conn.executescript(_TABLES)
            row = None
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta VALUES "
                "('index_schema', ?)",
                (str(_INDEX_SCHEMA),),
            )
            conn.commit()
        return conn

    def _ensure_index(self) -> None:
        """Reconnect if the index file was deleted out from under a
        live repository — it is only a cache, and SQLite turns a
        vanished database read-only instead of re-creating it."""
        if not self.db_path.exists():
            self._conn.close()
            self._conn = self._connect()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunRepository":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingestion -----------------------------------------------------

    def scan(self) -> ScanReport:
        """Re-index the whole tree from disk (the index is a cache:
        rows for vanished directories are dropped, every surviving
        directory is re-read)."""
        report = ScanReport()
        records: List[RunRecord] = []
        series_records: List[SeriesRecord] = []
        for run_dir in sorted(self.root.glob("run-*")):
            if not run_dir.is_dir():
                continue
            try:
                manifest = load_manifest(run_dir)
                records.append(RunRecord.from_manifest(run_dir, manifest))
            except (OSError, ValueError) as error:
                logger.warning("skipping run dir %s: %s", run_dir, error)
                report.skipped.append(
                    {"path": str(run_dir), "reason": str(error)}
                )
        for series_dir in sorted(self.root.glob("series-*")):
            if not series_dir.is_dir():
                continue
            try:
                payload = load_series(series_dir)
                series_records.append(
                    SeriesRecord.from_payload(series_dir, payload)
                )
            except (OSError, ValueError) as error:
                logger.warning(
                    "skipping series dir %s: %s", series_dir, error
                )
                report.skipped.append(
                    {"path": str(series_dir), "reason": str(error)}
                )
        with self._lock:
            self._ensure_index()
            cursor = self._conn.cursor()
            cursor.execute("DELETE FROM runs")
            cursor.execute("DELETE FROM run_experiments")
            cursor.execute("DELETE FROM series")
            cursor.execute("DELETE FROM series_runs")
            for record in records:
                self._insert_run(cursor, record)
            for record in series_records:
                self._insert_series(cursor, record)
            self._conn.commit()
        report.runs = len(records)
        report.series = len(series_records)
        return report

    def rebuild(self) -> ScanReport:
        """Drop the SQLite file entirely and re-create it from disk."""
        with self._lock:
            self._conn.close()
            if self.db_path.exists():
                self.db_path.unlink()
            self._conn = self._connect()
        return self.scan()

    def ingest_run_dir(self, run_dir: Union[str, Path]) -> RunRecord:
        """Index (or re-index) one run directory; raises on corrupt
        input — targeted ingestion is for writers that just produced
        the directory and must notice their own failures."""
        run_dir = Path(run_dir)
        record = RunRecord.from_manifest(run_dir, load_manifest(run_dir))
        with self._lock:
            self._ensure_index()
            cursor = self._conn.cursor()
            cursor.execute(
                "DELETE FROM run_experiments WHERE run_id = ?",
                (record.run_id,),
            )
            self._insert_run(cursor, record)
            self._conn.commit()
        return record

    def ingest_series_dir(
        self, series_dir: Union[str, Path]
    ) -> SeriesRecord:
        """Index one series directory plus its epoch runs (which live
        as sibling ``run-*`` dirs under the same root)."""
        series_dir = Path(series_dir)
        record = SeriesRecord.from_payload(
            series_dir, load_series(series_dir)
        )
        with self._lock:
            self._ensure_index()
            cursor = self._conn.cursor()
            cursor.execute(
                "DELETE FROM series_runs WHERE series_id = ?",
                (record.series_id,),
            )
            self._insert_series(cursor, record)
            self._conn.commit()
        for run_id in record.run_ids:
            run_dir = self.root / run_id
            if run_dir.is_dir():
                self.ingest_run_dir(run_dir)
        return record

    @staticmethod
    def _insert_run(cursor, record: RunRecord) -> None:
        cursor.execute(
            "INSERT OR REPLACE INTO runs VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.run_id, record.path, record.schema_version,
                record.seed, record.domains, record.wan_rounds,
                record.scenario, record.epoch_plan, record.epoch_index,
                record.code_fingerprint, record.fidelity_status,
                json.dumps(record.counts, sort_keys=True),
                json.dumps(list(record.experiments)),
            ),
        )
        for entry in record.experiments:
            cursor.execute(
                "INSERT OR REPLACE INTO run_experiments VALUES (?, ?, ?)",
                (record.run_id, entry.get("id"), entry.get("status")),
            )

    @staticmethod
    def _insert_series(cursor, record: SeriesRecord) -> None:
        cursor.execute(
            "INSERT OR REPLACE INTO series VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.series_id, record.path, record.schema_version,
                record.plan, record.epochs, record.seed, record.domains,
                record.wan_rounds, record.scenario,
                record.code_fingerprint,
            ),
        )
        for index, run_id in enumerate(record.run_ids):
            cursor.execute(
                "INSERT OR REPLACE INTO series_runs VALUES (?, ?, ?)",
                (record.series_id, index, run_id),
            )

    # -- queries -------------------------------------------------------

    def runs(
        self,
        scenario: Optional[str] = None,
        status: Optional[str] = None,
        seed: Optional[int] = None,
        fingerprint: Optional[str] = None,
        experiment: Optional[str] = None,
        epoch_plan: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Indexed runs matching every given filter, ordered by id
        (deterministic — the rebuild tests diff this ordering)."""
        clauses, params = [], []
        if scenario is not None:
            clauses.append("runs.scenario = ?")
            params.append(scenario)
        if status is not None:
            clauses.append("runs.fidelity_status = ?")
            params.append(status)
        if seed is not None:
            clauses.append("runs.seed = ?")
            params.append(seed)
        if fingerprint is not None:
            clauses.append("runs.code_fingerprint = ?")
            params.append(fingerprint)
        if epoch_plan is not None:
            clauses.append("runs.epoch_plan = ?")
            params.append(epoch_plan)
        sql = "SELECT runs.* FROM runs"
        if experiment is not None:
            sql += (
                " JOIN run_experiments ON "
                "run_experiments.run_id = runs.run_id"
            )
            clauses.append("run_experiments.experiment_id = ?")
            params.append(experiment)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY runs.run_id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._run_from_row(row) for row in rows]

    @staticmethod
    def _run_from_row(row) -> RunRecord:
        return RunRecord(
            run_id=row[0], path=row[1], schema_version=row[2],
            seed=row[3], domains=row[4], wan_rounds=row[5],
            scenario=row[6], epoch_plan=row[7], epoch_index=row[8],
            code_fingerprint=row[9], fidelity_status=row[10],
            counts=json.loads(row[11]),
            experiments=tuple(json.loads(row[12])),
        )

    def get_run(self, run_id: str) -> RunRecord:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is not None:
            return self._run_from_row(row)
        # The index is only a cache — fall back to disk before
        # declaring the run unknown (and index it for next time).
        run_dir = self.root / run_id
        if run_dir.is_dir():
            try:
                return self.ingest_run_dir(run_dir)
            except (OSError, ValueError) as error:
                raise UnknownRunError(run_id) from error
        raise UnknownRunError(run_id)

    def load_run(self, run_id: str) -> LoadedRun:
        """The full on-disk record (manifest + sidecars) for one run."""
        record = self.get_run(run_id)
        return LoadedRun.from_dir(record.path)

    def series(
        self,
        plan: Optional[str] = None,
        scenario: Optional[str] = None,
        seed: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[SeriesRecord]:
        clauses, params = [], []
        if plan is not None:
            clauses.append("plan = ?")
            params.append(plan)
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if seed is not None:
            clauses.append("seed = ?")
            params.append(seed)
        sql = "SELECT * FROM series"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY series_id"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._series_from_row(row) for row in rows]

    def _series_from_row(self, row) -> SeriesRecord:
        with self._lock:
            links = self._conn.execute(
                "SELECT run_id FROM series_runs WHERE series_id = ? "
                "ORDER BY epoch_index",
                (row[0],),
            ).fetchall()
        return SeriesRecord(
            series_id=row[0], path=row[1], schema_version=row[2],
            plan=row[3], epochs=row[4], seed=row[5], domains=row[6],
            wan_rounds=row[7], scenario=row[8], code_fingerprint=row[9],
            run_ids=tuple(link[0] for link in links),
        )

    def get_series(self, series_id: str) -> SeriesRecord:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM series WHERE series_id = ?", (series_id,)
            ).fetchone()
        if row is not None:
            return self._series_from_row(row)
        series_dir = self.root / series_id
        if series_dir.is_dir():
            try:
                return self.ingest_series_dir(series_dir)
            except (OSError, ValueError) as error:
                raise UnknownSeriesError(series_id) from error
        raise UnknownSeriesError(series_id)

    def load_series_payload(self, series_id: str) -> dict:
        record = self.get_series(series_id)
        return load_series(record.path)

    def counts(self) -> Dict[str, int]:
        """Index cardinalities for ``/health`` and ``/metrics``."""
        with self._lock:
            runs = self._conn.execute(
                "SELECT COUNT(*) FROM runs"
            ).fetchone()[0]
            series = self._conn.execute(
                "SELECT COUNT(*) FROM series"
            ).fetchone()[0]
        return {"runs": runs, "series": series}
