"""Runtime knobs shared across packages.

The columnar data plane (``repro.columnar`` plus the pure-Python static
DNS resolution index) and the streaming data plane (bounded-memory
chunked world/dataset builds and one-pass capture analysis) are the
only production paths, so neither has an on/off switch.  Where a stage
still has a second path, its input or the platform selects it (a live
event sink, an outage scenario, a wordlist with duplicates, no
``fork``), never an option.

The one knob is the streaming chunk size (:func:`set_chunk_size` /
``REPRO_CHUNK_SIZE``), bounding how many domain ranks a deferred world
materializes at once; output bytes do not depend on it.  The module is
dependency-free so NumPy-free packages (``repro.dns``) can import it.
"""

from __future__ import annotations

import os
from typing import Optional

_FORCED_CHUNK: Optional[int] = None

#: Ranks materialized per streaming chunk when ``REPRO_CHUNK_SIZE`` is
#: unset.  Sized so a chunk's tenant state (zones, records, plans,
#: instances) stays tens of MB while the per-chunk fork/merge overhead
#: stays well under a percent of the build.
DEFAULT_CHUNK_SIZE = 6_250


def columnar_runtime_enabled() -> bool:
    """Always True: the columnar data plane has no off switch.  Kept
    as a function because ``perfbench/common.py`` records it in every
    benchmark result's setup."""
    return True


def streaming_runtime_enabled() -> bool:
    """Always True: the streaming data plane has no off switch.  Kept
    as a function because ``perfbench/common.py`` records it in every
    benchmark result's setup."""
    return True


def set_chunk_size(value: Optional[int]) -> Optional[int]:
    """Force the streaming chunk size (``None`` restores env control).

    Returns the previous override.  The chunk size bounds how many
    domain ranks a streaming build materializes at once; output bytes
    are chunk-size-invariant (any contiguous partition merges
    identically), so this knob trades peak RSS against per-chunk
    overhead only.
    """
    global _FORCED_CHUNK
    if value is not None and value < 1:
        raise ValueError(f"chunk size must be positive: {value}")
    previous = _FORCED_CHUNK
    _FORCED_CHUNK = value
    return previous


def streaming_chunk_size() -> int:
    """The active streaming chunk size (override, env, or default)."""
    if _FORCED_CHUNK is not None:
        return _FORCED_CHUNK
    raw = os.environ.get("REPRO_CHUNK_SIZE")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    return DEFAULT_CHUNK_SIZE
