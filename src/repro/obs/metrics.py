"""The metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` instance collects every numeric fact an
instrumented run wants to report — probes emitted per kind, retries,
simulated losses, artifact-cache hits/misses, RNG derivations, shard
merge sizes, records/sec.  Instruments are memoized on (name, labels),
so hot paths hold a reference and pay one attribute access per update.

Two export forms:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``# HELP``/``# TYPE`` headers, escaped label values,
  sorted families and label sets, so the output is deterministic given
  the same instrument values);
* :meth:`MetricsRegistry.snapshot` / :meth:`deterministic_snapshot` —
  JSON-ready dicts.  The *deterministic* snapshot holds only
  instruments whose values are a pure function of (seed, config):
  anything wall-clock-derived, environment-dependent (cache state), or
  worker-count-dependent is registered with ``volatile=True`` and
  excluded, which is what lets the run manifest fold the snapshot into
  ``manifest.json`` without breaking its byte-identity.

The library default is the shared :data:`NULL_METRICS`, whose
instruments ignore every update.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

_LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram buckets (upper bounds; +Inf is implicit).
DEFAULT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

#: ``# HELP`` text for the well-known metric families, so exposition
#: stays self-describing without threading help strings through every
#: hot-path call site.  Call sites may override via the ``help=``
#: keyword on :meth:`MetricsRegistry.counter`/``gauge``/``histogram``.
FAMILY_HELP = {
    "probes_total": "Probes the campaign engine executed, by kind.",
    "probe_retries_total": "Simulated probe retries, by kind.",
    "probe_losses_total": "Simulated probe losses, by kind.",
    "probes_blocked_total":
        "Probes suppressed by an active fault scenario.",
    "rng_derivations_total":
        "Deterministic RNG stream derivations performed.",
    "artifact_cache_hits_total": "Artifact-store cache hits.",
    "artifact_cache_misses_total": "Artifact-store cache misses.",
    "artifact_cache_invalid_total":
        "Artifacts rejected by digest verification.",
    "artifact_cache_stores_total": "Artifacts written to the store.",
    "campaign_shards_merged_total":
        "Campaign shard results merged at the fork join.",
    "campaign_records_per_s":
        "Records per second the last campaign produced.",
    "shard_merge_records": "Records carried per merged campaign shard.",
    "service_requests_total":
        "HTTP requests received, by method and route.",
    "service_responses_total":
        "HTTP responses sent, by route and status code.",
    "service_request_seconds":
        "HTTP request handling latency in seconds.",
    "service_response_bytes": "HTTP response body size in bytes.",
    "service_indexed_runs": "Run directories currently indexed.",
    "service_indexed_series": "Series directories currently indexed.",
    "service_timeline_entries":
        "Telemetry timeline entries currently indexed, by source.",
    "service_jobs_submitted_total": "Jobs submitted, by kind.",
    "service_jobs_claimed_total": "Jobs claimed for execution, by kind.",
    "service_jobs_executed_total":
        "Job executions finished, by kind and final status.",
    "service_job_retries_total":
        "Failed jobs re-claimed for another attempt, by kind.",
    "service_jobs": "Jobs currently in the queue, by status.",
    "service_scheduler_queue_depth":
        "Pending jobs waiting for the scheduler.",
    "service_timeline_appends_total":
        "Telemetry timeline entries appended by the scheduler, "
        "by source.",
    "service_sentinel_checks_total":
        "Regression-sentinel passes after bench jobs, by worst status.",
}


def _escape_label_value(value: str) -> str:
    """Prometheus exposition-format label-value escaping."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A bucketed distribution with count and sum."""

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.bounds: List[float] = sorted(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def as_dict(self) -> dict:
        buckets = {
            str(bound): count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["+Inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "buckets": buckets,
        }


class _NullInstrument:
    """Counter/gauge/histogram stand-in that drops every update."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The zero-cost default registry."""

    enabled = False

    def counter(
        self, name, volatile=False, help=None, **labels
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(
        self, name, volatile=False, help=None, **labels
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name, buckets=None, volatile=False, help=None, **labels
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counter_checkpoint(self) -> dict:
        return {}

    def take_counter_deltas(self, checkpoint) -> list:
        return []

    def deterministic_counter_deltas(self, checkpoint) -> list:
        return []

    def apply_counter_deltas(self, deltas) -> None:
        return None

    def snapshot(self) -> dict:
        return {}

    def deterministic_snapshot(self) -> dict:
        return {}

    def volatile_snapshot(self) -> dict:
        return {}

    def render_prometheus(self) -> str:
        return ""


class MetricsRegistry:
    """A live registry of memoized instruments."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[_LabelKey, Counter] = {}
        self._gauges: Dict[_LabelKey, Gauge] = {}
        self._histograms: Dict[_LabelKey, Histogram] = {}
        self._volatile: set = set()
        #: Per-family ``# HELP`` overrides (first registration wins);
        #: families absent here fall back to :data:`FAMILY_HELP`.
        self._help: Dict[str, str] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> _LabelKey:
        return name, tuple(
            sorted((k, str(v)) for k, v in labels.items())
        )

    def _note_help(self, name: str, help: Optional[str]) -> None:
        if help is not None and name not in self._help:
            self._help[name] = help

    def counter(
        self,
        name: str,
        volatile: bool = False,
        help: Optional[str] = None,
        **labels,
    ) -> Counter:
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
            if volatile:
                self._volatile.add(key)
            self._note_help(name, help)
        return instrument

    def gauge(
        self,
        name: str,
        volatile: bool = False,
        help: Optional[str] = None,
        **labels,
    ) -> Gauge:
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
            if volatile:
                self._volatile.add(key)
            self._note_help(name, help)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        volatile: bool = False,
        help: Optional[str] = None,
        **labels,
    ) -> Histogram:
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                buckets or DEFAULT_BUCKETS
            )
            if volatile:
                self._volatile.add(key)
            self._note_help(name, help)
        return instrument

    # -- fan-out support ----------------------------------------------

    def counter_checkpoint(self) -> Dict[_LabelKey, int]:
        """A cursor for :meth:`take_counter_deltas` (used around
        forked work, like ``EventSink.mark``)."""
        return {
            key: counter.value
            for key, counter in self._counters.items()
        }

    def take_counter_deltas(self, checkpoint: Dict[_LabelKey, int]):
        """Remove and return every counter increment since
        ``checkpoint``, as ``(name, labels, delta, volatile)`` tuples.

        Forked shard workers call this to ship their counts back to
        the parent; the removal keeps the in-process fallback's later
        :meth:`apply_counter_deltas` from double-counting.
        """
        deltas = []
        for key, counter in self._counters.items():
            base = checkpoint.get(key, 0)
            delta = counter.value - base
            if delta:
                deltas.append(
                    (key[0], key[1], delta, key in self._volatile)
                )
                counter.value = base
        return deltas

    def deterministic_counter_deltas(self, checkpoint):
        """Every non-volatile counter increment since ``checkpoint``,
        in :meth:`take_counter_deltas` form but left in place (an
        artifact records what its build counted; the run keeps it)."""
        return [
            (key[0], key[1], counter.value - checkpoint.get(key, 0), False)
            for key, counter in self._counters.items()
            if key not in self._volatile
            and counter.value != checkpoint.get(key, 0)
        ]

    def apply_counter_deltas(self, deltas) -> None:
        for name, labels, delta, volatile in deltas:
            self.counter(
                name, volatile=volatile, **dict(labels)
            ).inc(delta)

    # -- exports -------------------------------------------------------

    @staticmethod
    def _render_key(key: _LabelKey) -> str:
        name, labels = key
        if not labels:
            return name
        inner = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in labels
        )
        return f"{name}{{{inner}}}"

    def _help_for(self, family: str) -> Optional[str]:
        return self._help.get(family) or FAMILY_HELP.get(family)

    def _section(
        self, table: dict, include_volatile: Optional[bool]
    ) -> dict:
        out = {}
        for key in sorted(table):
            if include_volatile is False and key in self._volatile:
                continue
            if include_volatile is True and key not in self._volatile:
                continue
            value = table[key]
            out[self._render_key(key)] = (
                value.as_dict() if isinstance(value, Histogram)
                else (
                    round(value.value, 6)
                    if isinstance(value.value, float) else value.value
                )
            )
        return out

    def _snapshot(self, include_volatile: Optional[bool]) -> dict:
        snapshot = {}
        counters = self._section(self._counters, include_volatile)
        gauges = self._section(self._gauges, include_volatile)
        histograms = self._section(self._histograms, include_volatile)
        if counters:
            snapshot["counters"] = counters
        if gauges:
            snapshot["gauges"] = gauges
        if histograms:
            snapshot["histograms"] = histograms
        return snapshot

    def snapshot(self) -> dict:
        """Every instrument, JSON-ready."""
        return self._snapshot(include_volatile=None)

    def deterministic_snapshot(self) -> dict:
        """Only instruments that are pure functions of (seed, config)."""
        return self._snapshot(include_volatile=False)

    def volatile_snapshot(self) -> dict:
        """Only the wall-clock/environment-dependent instruments."""
        return self._snapshot(include_volatile=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition, deterministically ordered."""
        lines: List[str] = []

        def header(family: str, mtype: str) -> None:
            help_text = self._help_for(family)
            if help_text:
                lines.append(
                    f"# HELP {family} {_escape_help(help_text)}"
                )
            lines.append(f"# TYPE {family} {mtype}")

        for table, mtype in (
            (self._counters, "counter"),
            (self._gauges, "gauge"),
        ):
            families = sorted({name for name, _ in table})
            for family in families:
                header(family, mtype)
                for key in sorted(k for k in table if k[0] == family):
                    value = table[key].value
                    lines.append(f"{self._render_key(key)} {value}")
        for family in sorted({name for name, _ in self._histograms}):
            header(family, "histogram")
            for key in sorted(
                k for k in self._histograms if k[0] == family
            ):
                histogram = self._histograms[key]
                name, labels = key
                cumulative = 0
                for bound, count in zip(
                    histogram.bounds, histogram.bucket_counts
                ):
                    cumulative += count
                    le = (f"{bound:g}",)
                    bucket_key = (
                        f"{name}_bucket",
                        labels + (("le", le[0]),),
                    )
                    lines.append(
                        f"{self._render_key(bucket_key)} {cumulative}"
                    )
                cumulative += histogram.bucket_counts[-1]
                inf_key = (f"{name}_bucket", labels + (("le", "+Inf"),))
                lines.append(f"{self._render_key(inf_key)} {cumulative}")
                lines.append(
                    f"{self._render_key((f'{name}_sum', labels))} "
                    f"{histogram.total:g}"
                )
                lines.append(
                    f"{self._render_key((f'{name}_count', labels))} "
                    f"{histogram.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


#: Shared no-op registry — the library-wide default.
NULL_METRICS = NullMetrics()
