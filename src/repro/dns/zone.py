"""Authoritative zone data.

A :class:`Zone` owns every record under one origin.  Besides static
records it supports *dynamic names*, whose answers are computed per query
— the mechanism behind ELB's rotating proxy lists, Traffic Manager's
performance-based answers, and CDN edge selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.dns.records import RRType, ResourceRecord, normalize_name


class TransferRefused(Exception):
    """Raised when an AXFR is attempted against a zone that refuses it."""


#: Signature of a dynamic answer function: (qname, rtype, vantage,
#: query_index) -> list of ResourceRecord.  ``vantage`` is the querying
#: vantage point (or None); ``query_index`` counts queries for this name,
#: letting implementations rotate answers.
AnswerFn = Callable[[str, RRType, object, int], List[ResourceRecord]]


@dataclass(slots=True)
class DynamicName:
    """A name whose records are computed on every query."""

    name: str
    answer_fn: AnswerFn

    def __post_init__(self) -> None:
        self.name = normalize_name(self.name)

    def answer(
        self, rtype: RRType, vantage: object, query_index: int
    ) -> List[ResourceRecord]:
        return self.answer_fn(self.name, rtype, vantage, query_index)


class Zone:
    """All authoritative data under one origin name."""

    def __init__(self, origin: str, axfr_allowed: bool = False):
        self.origin = normalize_name(origin)
        self.axfr_allowed = axfr_allowed
        self._static: Dict[str, Dict[RRType, List[ResourceRecord]]] = {}
        self._dynamic: Dict[str, DynamicName] = {}
        self._query_counts: Dict[str, int] = {}
        self._names_cache: Optional[List[str]] = None
        #: Fired on any record mutation; installed by
        #: ``DnsInfrastructure.add_zone`` so derived indexes (the static
        #: resolution index) can invalidate themselves.
        self._on_change: Optional[Callable[[], None]] = None

    def _changed(self) -> None:
        self._names_cache = None
        if self._on_change is not None:
            self._on_change()

    def _check_in_zone(self, name: str) -> str:
        name = normalize_name(name)
        if name != self.origin and not name.endswith("." + self.origin):
            raise ValueError(f"{name} is not within zone {self.origin}")
        return name

    def add(self, record: ResourceRecord) -> None:
        """Add a static record (name must be at or under the origin)."""
        name = self._check_in_zone(record.name)
        self._static.setdefault(name, {}).setdefault(
            record.rtype, []
        ).append(record)
        self._changed()

    def add_all(self, records: Iterable[ResourceRecord]) -> None:
        for record in records:
            self.add(record)

    def add_dynamic(self, dynamic: DynamicName) -> None:
        name = self._check_in_zone(dynamic.name)
        self._dynamic[name] = dynamic
        self._changed()

    def remove(self, name: str, rtype: Optional[RRType] = None) -> None:
        """Remove records at ``name`` (all types, or just ``rtype``).

        Removing a name that has no data is a no-op — zone updates are
        idempotent, like dynamic DNS deletes.
        """
        name = normalize_name(name)
        self._changed()
        if rtype is None:
            self._static.pop(name, None)
            self._dynamic.pop(name, None)
            return
        by_type = self._static.get(name)
        if by_type is not None:
            by_type.pop(rtype, None)
            if not by_type:
                self._static.pop(name, None)

    def names(self) -> List[str]:
        """Every name with data, static or dynamic, in sorted order."""
        if self._names_cache is None:
            self._names_cache = sorted(set(self._static) | set(self._dynamic))
        return list(self._names_cache)

    # -- shard-reconciliation accessors --------------------------------

    def dynamic_names(self) -> List[str]:
        """The zone's dynamic names, in registration order."""
        return list(self._dynamic)

    def dynamic_answer(
        self, name: str, rtype: RRType, vantage: object, query_index: int
    ) -> List[ResourceRecord]:
        """Call a dynamic name's answer function at an explicit index,
        without advancing the zone's query counter (used by the shard
        merge to replay cross-shard rotations in sequential order)."""
        return self._dynamic[name].answer(rtype, vantage, query_index)

    def query_counts(self) -> Dict[str, int]:
        """Per-dynamic-name query counters (names with zero count are
        omitted, exactly as :meth:`lookup` stores them)."""
        return dict(self._query_counts)

    def advance_query_count(self, name: str, delta: int) -> None:
        """Advance one dynamic name's counter by ``delta`` queries, as
        if ``delta`` lookups had been answered."""
        if delta:
            self._query_counts[name] = (
                self._query_counts.get(name, 0) + delta
            )

    def cname_links(self) -> List[Tuple[str, str]]:
        """Every static ``(name, target)`` CNAME edge in the zone, for
        the cross-zone alias-graph analyses
        (:meth:`DnsInfrastructure.cross_chunk_dynamic_names` and the
        static index's dynamic closure)."""
        return [
            (name, str(record.value))
            for name, by_type in self._static.items()
            for record in by_type.get(RRType.CNAME, ())
        ]

    def has_name(self, name: str) -> bool:
        name = normalize_name(name)
        return name in self._static or name in self._dynamic

    def __contains__(self, name: str) -> bool:
        """Raw :meth:`has_name`: ``name`` must already be normalized."""
        return name in self._static or name in self._dynamic

    def lookup(
        self, name: str, rtype: RRType, vantage: object = None
    ) -> List[ResourceRecord]:
        """Authoritative answer for ``name``/``rtype`` (possibly empty).

        Dynamic names take precedence over static data and see a
        monotonically increasing per-name query index.
        """
        name = normalize_name(name)
        if name in self._dynamic:
            index = self._query_counts.get(name, 0)
            self._query_counts[name] = index + 1
            return self._dynamic[name].answer(rtype, vantage, index)
        by_type = self._static.get(name)
        if not by_type:
            return []
        if rtype in by_type:
            return list(by_type[rtype])
        # Per RFC 1034 a CNAME answers queries for other types too.
        if rtype is not RRType.CNAME and RRType.CNAME in by_type:
            return list(by_type[RRType.CNAME])
        return []

    def transfer(self) -> List[ResourceRecord]:
        """AXFR: the full static record list, if the zone permits it.

        Dynamic names are represented by a probe query so the enumerator
        still learns they exist (real AXFR would include their static
        configuration records).
        """
        if not self.axfr_allowed:
            raise TransferRefused(self.origin)
        records: List[ResourceRecord] = []
        for by_type in self._static.values():
            for record_list in by_type.values():
                records.extend(record_list)
        for name, dynamic in self._dynamic.items():
            records.extend(dynamic.answer(RRType.A, None, 0))
        return records

    def nameserver_names(self) -> List[str]:
        """Hostnames from the zone's apex NS records."""
        apex = self._static.get(self.origin, {})
        return [str(r.value) for r in apex.get(RRType.NS, [])]
