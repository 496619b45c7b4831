"""The world state an artifact build leaves behind.

A build's product is half of what it does to a run.  The §2.1 dataset
build also advances dynamic-name rotation counters and fills resolver
caches; the capture digs through the campus resolver and draws the
``capture`` streams; the WAN campaign draws the jitter and noise
streams; each counts its probes into the deterministic metrics.  Later
consumers read that state, so a cache hit has to put it back.

:class:`StateRecorder` snapshots the mutable state before a build and
diffs it afterwards.  The resulting :class:`WorldDelta` travels inside
the artifact: the touched entries' values after the build, a
fingerprint of their values before it, and a fingerprint of the payload
itself.  A hit restores the delta only when the payload is sound and
the live world matches the pre-build fingerprint, so a restore either
reproduces the build exactly or declines and the caller rebuilds.

The state covered is the state the fork fan-out already moves between
processes: stream positions, rotation counters, resolver caches and
query counts, and the deterministic counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple


def fingerprint(values: tuple) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


@dataclass
class WorldDelta:
    """What one build changed, and the state it started from."""

    #: Label path -> generator state after the build.
    streams: Dict[tuple, tuple]
    #: (zone origin, name) -> queries the build added.
    query_counts: Dict[Tuple[str, str], int]
    #: (vantage, queries added, the whole cache after the build).
    resolvers: List[Tuple[object, int, list]]
    #: Deterministic counter increments, as ``take_counter_deltas``
    #: returns them.
    counters: list
    #: Fingerprint of the touched entries' values before the build.
    pre: str = ""
    #: Fingerprint of the payload above.
    post: str = ""

    def _read(self, world) -> tuple:
        """The live values of the entries this build touched."""
        issued = world.streams.getstate()
        counts = world.dns.dynamic_query_counts()
        resolvers = {r.vantage.name: r for r in world.resolvers()}
        live = []
        for vantage, _queries, _cache in self.resolvers:
            resolver = resolvers.get(vantage.name)
            live.append(
                (0, []) if resolver is None
                else (resolver.query_count, resolver.cache_state())
            )
        return (
            tuple(issued.get(key) for key in self.streams),
            tuple(counts.get(key, 0) for key in self.query_counts),
            tuple(live),
        )

    def _payload(self) -> tuple:
        return (
            tuple(self.streams.items()),
            tuple(self.query_counts.items()),
            tuple(self.resolvers),
            tuple(self.counters),
        )

    def sound(self) -> bool:
        """Whether the payload is the one the build recorded."""
        return fingerprint(self._payload()) == self.post

    def matches(self, world) -> bool:
        """Whether ``world`` is in the state the build started from, as
        far as the build touched it (reads only)."""
        return fingerprint(self._read(world)) == self.pre

    def apply(self, world) -> None:
        """Install the post-build state (after :meth:`matches`)."""
        world.streams.setstate(self.streams)
        world.dns.apply_dynamic_query_deltas(self.query_counts)
        for vantage, queries, cache in self.resolvers:
            resolver = world.resolver_for(vantage)
            resolver.query_count += queries
            resolver.set_cache_state(cache)


class StateRecorder:
    """Diffs a world and the deterministic counters across one build."""

    def __init__(self, world, metrics) -> None:
        self.world = world
        self.metrics = metrics
        self._streams = world.streams.getstate()
        self._counts = world.dns.dynamic_query_counts()
        self._resolvers = {
            r.vantage.name: (r.query_count, r.cache_state())
            for r in world.resolvers()
        }
        self._checkpoint = metrics.counter_checkpoint()

    def delta(self) -> WorldDelta:
        """The :class:`WorldDelta` of everything since construction."""
        world = self.world
        streams = {
            key: state for key, state in world.streams.getstate().items()
            if self._streams.get(key) != state
        }
        query_counts = {
            key: count - self._counts.get(key, 0)
            for key, count in world.dns.dynamic_query_counts().items()
            if count != self._counts.get(key, 0)
        }
        resolvers = []
        before_resolvers = []
        for resolver in world.resolvers():
            query_count, cache = self._resolvers.get(
                resolver.vantage.name, (0, [])
            )
            after = resolver.cache_state()
            if resolver.query_count != query_count or after != cache:
                resolvers.append((
                    resolver.vantage,
                    resolver.query_count - query_count,
                    after,
                ))
                before_resolvers.append((query_count, cache))
        delta = WorldDelta(
            streams=streams,
            query_counts=query_counts,
            resolvers=resolvers,
            counters=self.metrics.deterministic_counter_deltas(
                self._checkpoint
            ),
        )
        delta.pre = fingerprint((
            tuple(self._streams.get(key) for key in streams),
            tuple(self._counts.get(key, 0) for key in query_counts),
            tuple(before_resolvers),
        ))
        delta.post = fingerprint(delta._payload())
        return delta
