"""Struct-of-arrays flow storage behind the ``Trace`` interface.

A week-long capture is hundreds of thousands of rows with a handful of
small-cardinality string fields.  :class:`FlowTable` stores it as flat
NumPy columns plus interning pools (clients, hostnames, content types,
TLS names, protocols), and :class:`ColumnarTrace` wraps a table in the
exact :class:`repro.capture.flow.Trace` interface: ``len``/
``total_bytes`` answer straight off the columns (which is all the
pipeline digest reads), while iteration materializes
:class:`FlowRecord` objects lazily for the Bro analyzer and any other
row-oriented consumer.

Serialization is digest-stable by construction: ``__reduce__`` encodes
each column via ``ndarray.tobytes`` (little-endian fixed dtypes) plus
the pools, so equal captures pickle to equal bytes regardless of how
the arrays were produced — and the payload is a fraction of a pickled
``FlowRecord`` list.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.capture.flow import FlowRecord, Trace
from repro.net.ipv4 import IPv4Address

_ENCODING_VERSION = 1

#: (attribute, dtype) for every numeric/coded column, in encode order.
_COLUMN_DTYPES = (
    ("ts", "<f8"),
    ("duration", "<f8"),
    ("dst_value", "<u4"),
    ("dport", "<i4"),
    ("total_bytes", "<i8"),
    ("content_length", "<i8"),  # -1 encodes None
    ("proto_code", "<i1"),
    ("src_code", "<i4"),
    ("host_code", "<i4"),       # -1 encodes None
    ("ct_code", "<i2"),         # -1 encodes None
    ("tls_code", "<i4"),        # -1 encodes None
)
_POOL_NAMES = ("proto_pool", "src_pool", "host_pool", "ct_pool",
               "tls_pool")


class _Interner:
    """Appends-only string pool: value -> stable small code."""

    __slots__ = ("pool", "_codes")

    def __init__(self) -> None:
        self.pool: List[str] = []
        self._codes: Dict[str, int] = {}

    def code(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        code = self._codes.get(value)
        if code is None:
            code = len(self.pool)
            self.pool.append(value)
            self._codes[value] = code
        return code


class FlowTableBuilder:
    """Row-at-a-time accumulator for a :class:`FlowTable`."""

    def __init__(self) -> None:
        self.ts: List[float] = []
        self.duration: List[float] = []
        self.dst_value: List[int] = []
        self.dport: List[int] = []
        self.total_bytes: List[int] = []
        self.content_length: List[int] = []
        self.proto_code: List[int] = []
        self.src_code: List[int] = []
        self.host_code: List[int] = []
        self.ct_code: List[int] = []
        self.tls_code: List[int] = []
        self._proto = _Interner()
        self._src = _Interner()
        self._host = _Interner()
        self._ct = _Interner()
        self._tls = _Interner()

    def add(
        self,
        ts: float,
        duration: float,
        src: str,
        dst_value: int,
        proto: str,
        dport: int,
        total_bytes: int,
        http_host: Optional[str] = None,
        content_type: Optional[str] = None,
        content_length: Optional[int] = None,
        tls_common_name: Optional[str] = None,
    ) -> None:
        self.ts.append(ts)
        self.duration.append(duration)
        self.dst_value.append(dst_value)
        self.dport.append(dport)
        self.total_bytes.append(total_bytes)
        self.content_length.append(
            -1 if content_length is None else content_length
        )
        self.proto_code.append(self._proto.code(proto))
        self.src_code.append(self._src.code(src))
        self.host_code.append(self._host.code(http_host))
        self.ct_code.append(self._ct.code(content_type))
        self.tls_code.append(self._tls.code(tls_common_name))

    def add_flow(self, flow: FlowRecord) -> None:
        self.add(
            flow.ts, flow.duration, flow.src, flow.dst.value, flow.proto,
            flow.dport, flow.total_bytes,
            http_host=flow.http_host,
            content_type=flow.content_type,
            content_length=flow.content_length,
            tls_common_name=flow.tls_common_name,
        )

    def build(self, sort_by_ts: bool = True) -> "FlowTable":
        table = FlowTable(
            **{
                name: np.asarray(getattr(self, name), dtype=dtype)
                for name, dtype in _COLUMN_DTYPES
            },
            proto_pool=list(self._proto.pool),
            src_pool=list(self._src.pool),
            host_pool=list(self._host.pool),
            ct_pool=list(self._ct.pool),
            tls_pool=list(self._tls.pool),
        )
        if sort_by_ts:
            table = table.sorted_by_ts()
        return table


class FlowTable:
    """Immutable SoA columns for one set of flows."""

    def __init__(self, **fields) -> None:
        for name, _ in _COLUMN_DTYPES:
            setattr(self, name, fields[name])
        for name in _POOL_NAMES:
            setattr(self, name, fields[name])

    def __len__(self) -> int:
        return len(self.ts)

    def sorted_by_ts(self) -> "FlowTable":
        """A copy ordered by timestamp.

        ``kind="stable"`` reproduces ``list.sort(key=lambda f: f.ts)``
        — Timsort is stable too, so equal timestamps keep insertion
        order and the permutation is identical.
        """
        order = np.argsort(self.ts, kind="stable")
        fields = {
            name: getattr(self, name)[order]
            for name, _ in _COLUMN_DTYPES
        }
        for name in _POOL_NAMES:
            fields[name] = getattr(self, name)
        return FlowTable(**fields)

    def total_bytes_sum(self) -> int:
        # int64 column sum == Python int sum (values far below 2**63).
        return int(self.total_bytes.sum())

    def record(self, i: int, _addr_cache: Optional[dict] = None) -> (
        FlowRecord
    ):
        dst_value = int(self.dst_value[i])
        if _addr_cache is not None:
            dst = _addr_cache.get(dst_value)
            if dst is None:
                dst = IPv4Address(dst_value)
                _addr_cache[dst_value] = dst
        else:
            dst = IPv4Address(dst_value)
        host = int(self.host_code[i])
        ct = int(self.ct_code[i])
        tls = int(self.tls_code[i])
        length = int(self.content_length[i])
        return FlowRecord(
            ts=float(self.ts[i]),
            duration=float(self.duration[i]),
            src=self.src_pool[int(self.src_code[i])],
            dst=dst,
            proto=self.proto_pool[int(self.proto_code[i])],
            dport=int(self.dport[i]),
            total_bytes=int(self.total_bytes[i]),
            http_host=self.host_pool[host] if host >= 0 else None,
            content_type=self.ct_pool[ct] if ct >= 0 else None,
            content_length=length if length >= 0 else None,
            tls_common_name=self.tls_pool[tls] if tls >= 0 else None,
        )

    def materialize(self) -> List[FlowRecord]:
        addr_cache: dict = {}
        return [
            self.record(i, addr_cache) for i in range(len(self))
        ]

    # -- digest-stable encoding ---------------------------------------

    def encode(self) -> dict:
        payload = {
            "version": _ENCODING_VERSION,
            "n": len(self),
        }
        for name, dtype in _COLUMN_DTYPES:
            payload[name] = getattr(self, name).astype(
                dtype, copy=False
            ).tobytes()
        for name in _POOL_NAMES:
            payload[name] = list(getattr(self, name))
        return payload

    @classmethod
    def decode(cls, payload: dict) -> "FlowTable":
        if payload.get("version") != _ENCODING_VERSION:
            raise ValueError(
                f"unknown FlowTable encoding: {payload.get('version')!r}"
            )
        fields = {
            name: np.frombuffer(payload[name], dtype=dtype).copy()
            for name, dtype in _COLUMN_DTYPES
        }
        for name in _POOL_NAMES:
            fields[name] = list(payload[name])
        return cls(**fields)


def _rebuild_columnar_trace(payload: dict) -> "ColumnarTrace":
    return ColumnarTrace(FlowTable.decode(payload))


class ColumnarTrace(Trace):
    """A :class:`Trace` served from a :class:`FlowTable`.

    Length and byte totals come straight off the columns; ``.flows``
    materializes row objects on first access (then behaves exactly
    like the base class, including mutation via :meth:`add`).
    """

    def __init__(self, table: FlowTable):
        # Deliberately no super().__init__(): `flows` is a lazy
        # property here, not an instance list.
        self._table = table
        self._materialized: Optional[List[FlowRecord]] = None
        self._dirty = False

    @property
    def flows(self) -> List[FlowRecord]:
        if self._materialized is None:
            self._materialized = self._table.materialize()
        return self._materialized

    @flows.setter
    def flows(self, value: List[FlowRecord]) -> None:
        self._materialized = list(value)
        self._dirty = True

    def add(self, flow: FlowRecord) -> None:
        self.flows.append(flow)
        self._dirty = True

    def __len__(self) -> int:
        if self._dirty:
            return len(self._materialized)
        return len(self._table)

    def total_bytes(self) -> int:
        if self._dirty:
            return sum(flow.total_bytes for flow in self._materialized)
        return self._table.total_bytes_sum()

    def sort_by_time(self) -> None:
        # The builder already ordered the table by ts; only a mutated
        # materialized list can be out of order.
        if self._materialized is not None:
            self._materialized.sort(key=lambda flow: flow.ts)

    def __reduce__(self):
        if self._dirty:
            # Mutated after materialization: fall back to the plain
            # row-list representation.
            return (Trace, (tuple(self._materialized),))
        return (_rebuild_columnar_trace, (self._table.encode(),))
