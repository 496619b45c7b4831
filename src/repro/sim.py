"""Simulation-wide utilities: virtual time and deterministic randomness.

Every stochastic component in the reproduction draws from a named
substream derived from one master seed, so that (a) the whole world is a
pure function of ``WorldConfig.seed`` and (b) adding a new component never
perturbs the draws of existing ones (the classic shared-``Random``
fragility).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import lru_cache


@lru_cache(maxsize=262144)
def _seed_from_path(path_repr: str) -> int:
    """The 128-bit seed value for one repr-encoded label path.

    Keyed on the repr string (not the label tuple) so values that
    compare equal but repr differently — ``1`` vs ``1.0`` — keep their
    distinct digests.
    """
    digest = hashlib.sha256(path_repr.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


def derive_seed(seed: int, *labels: object) -> int:
    """The integer seed :func:`derive_rng` would construct its RNG from.

    Digests are cached per label path, so hot loops that re-derive the
    same substream (per-entity coin flips, per-(path, hour) episodes)
    skip the SHA-256 work after the first call.
    """
    return _seed_from_path(repr((seed,) + labels))


#: Optional observability hook: called (no args) once per
#: :func:`derive_rng` derivation when installed.  The default ``None``
#: keeps the hot path at a single global load and identity check.
_RNG_OBSERVER = None


def set_rng_observer(observer):
    """Install (or clear, with ``None``) the RNG-derivation observer.

    Returns the previously installed observer so instrumented callers
    can restore it in a ``finally`` block.  The observer must never
    touch randomness itself — it exists so the metrics registry can
    count derivations, nothing more.
    """
    global _RNG_OBSERVER
    previous = _RNG_OBSERVER
    _RNG_OBSERVER = observer
    return previous


def derive_rng(seed: int, *labels: object) -> random.Random:
    """A :class:`random.Random` seeded from ``seed`` and a label path.

    The label path is hashed with SHA-256, so substreams are independent
    of declaration order and stable across runs and platforms.

    >>> derive_rng(1, "dns").random() == derive_rng(1, "dns").random()
    True
    >>> derive_rng(1, "dns").random() == derive_rng(1, "capture").random()
    False
    """
    if _RNG_OBSERVER is not None:
        _RNG_OBSERVER()
    return random.Random(derive_seed(seed, *labels))


def fork_pool_available() -> bool:
    """Whether copy-on-write fork workers can be used on this platform.

    Both parallel campaigns (the §5 WAN rounds and the §2.1 dataset
    shards) rely on ``fork`` semantics: children inherit the fully built
    world by copy-on-write instead of pickling it, and closures (dynamic
    DNS answer functions) never cross a process boundary.  Spawn-based
    platforms fall back to the sequential path, which is bit-identical.
    """
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


#: Below this draw count the scalar loop beats the vectorized
#: fast-forward's fixed costs (state transplant both ways).
_GAUSS_BULK_THRESHOLD = 512


def advance_gauss(rng: random.Random, count: int) -> None:
    """Advance ``rng`` past ``count`` gaussian draws.

    :meth:`random.Random.gauss` consumes underlying ``random()`` calls
    in Box-Muller pairs and caches the second value, so its state
    evolution depends only on *how many times* it is called, never on
    the ``mu``/``sigma`` arguments.  Replaying ``count`` draws therefore
    leaves the stream exactly where sequential execution would — the
    primitive the parallel WAN campaign uses to keep worker substreams
    bit-identical to single-process runs.
    """
    if count >= _GAUSS_BULK_THRESHOLD:
        from repro.columnar.rng import advance_gauss_bulk

        advance_gauss_bulk(rng, count)
        return
    gauss = rng.gauss
    for _ in range(count):
        gauss(0.0, 1.0)


@dataclass
class Clock:
    """A virtual clock measured in seconds since the simulation epoch."""

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot move time backwards: {seconds}")
        self.now += seconds
        return self.now


@dataclass(frozen=True)
class SimulationEpoch:
    """Anchors virtual time to the paper's measurement calendar.

    The packet capture ran Tue Jun 26 -- Mon Jul 2, 2012; the DNS survey
    ran Mar 27--29, 2013.  We keep those as named offsets purely for
    documentation/reporting; all arithmetic is in virtual seconds.
    """

    capture_start_label: str = "2012-06-26T00:00:00"
    capture_days: int = 7
    dns_survey_label: str = "2013-03-27"

    @property
    def capture_seconds(self) -> float:
        return self.capture_days * 86400.0


@dataclass
class StreamRegistry:
    """Hands out named RNG substreams for one master seed."""

    seed: int
    _issued: dict = field(default_factory=dict)

    def stream(self, *labels: object) -> random.Random:
        key = tuple(labels)
        if key not in self._issued:
            self._issued[key] = derive_rng(self.seed, *labels)
        return self._issued[key]

    # -- artifact restores ---------------------------------------------

    def getstate(self) -> dict:
        """Every issued stream's generator state, by label path."""
        return {key: rng.getstate() for key, rng in self._issued.items()}

    def setstate(self, states: dict) -> None:
        """Move streams to recorded states, issuing any not yet issued.

        The generator objects stay the same, so every component holding
        one (the latency model's jitter stream, say) sees the move.
        """
        for key, state in states.items():
            self.stream(*key).setstate(state)
