"""repro.service — the service plane: the pipeline as a daemon.

Three layers over the run-manifest plane (ROADMAP item 5, the "serves
traffic" half of the north star):

* **repository** (:mod:`repro.service.repository`) — the one
  SQLite-indexed catalog per root: ``run-<hash>/`` and
  ``series-<hash>/`` directories plus the telemetry timeline's entries
  (runs and bench trajectories).  The directories and bench files stay
  the source of truth; the index is a pure cache that rebuilds
  losslessly from disk.
* **scheduler** (:mod:`repro.service.jobs`) — deterministic,
  content-addressed :class:`JobSpec`\\ s (single-shot campaigns, epoch
  series, bench profiles) executed through the *unchanged*
  ``ExperimentContext`` / ``run_series`` machinery, with outcomes
  recorded through the catalog.  A job-produced ``run-<hash>/`` is
  byte-identical to the same config run via ``repro-experiments``.
* **API** (:mod:`repro.service.api`) — a stdlib HTTP server exposing
  manifests, fidelity reports, trend tables, Prometheus ``/metrics``,
  job submission, the telemetry ``/timeline`` and ``/dashboard``, and
  ``/compare`` (key-by-key run diffs, see
  :mod:`repro.service.compare`).

The service only orchestrates and reads — determinism invariants
(digests, manifest byte-identity) are untouched by construction.

CLI: ``repro serve`` / ``repro jobs submit`` / ``repro runs
list|show|compare`` (see :mod:`repro.service.cli`).
"""

from repro.service.api import DEFAULT_HOST, DEFAULT_PORT, ServiceAPI
from repro.service.client import ServiceClient
from repro.service.compare import compare_runs, render_compare
from repro.service.daemon import ReproService
from repro.service.errors import (
    JobSpecError,
    ServiceError,
    UnknownJobError,
    UnknownRunError,
    UnknownSeriesError,
)
from repro.service.jobs import JobRecord, JobSpec, Scheduler
from repro.service.repository import (
    RunRecord,
    RunRepository,
    ScanReport,
    SeriesRecord,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JobRecord",
    "JobSpec",
    "JobSpecError",
    "ReproService",
    "RunRecord",
    "RunRepository",
    "ScanReport",
    "Scheduler",
    "SeriesRecord",
    "ServiceAPI",
    "ServiceClient",
    "ServiceError",
    "UnknownJobError",
    "UnknownRunError",
    "UnknownSeriesError",
    "compare_runs",
    "render_compare",
]
