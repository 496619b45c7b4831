"""Content-addressed caching for expensive pipeline artifacts.

The reproduction's costly products — the §2.1 Alexa subdomains dataset,
the §3 campus capture trace, the §5 WAN measurement matrices — are pure
functions of (configuration, code version).  This package caches them on
disk under keys derived from exactly those inputs, so repeat runs of the
same configuration skip the builds entirely while any change to a config
knob or to the ``repro`` sources naturally misses and rebuilds.

Each artifact also carries the world state its build left behind
(:mod:`repro.artifacts.state`), so a hit restores that state instead of
rebuilding for it.  Payloads are digest-verified on load; stale or
corrupt files are deleted and treated as misses, falling back to a
rebuild.
"""

from repro.artifacts.keys import artifact_key, canonical, code_fingerprint
from repro.artifacts.state import StateRecorder, WorldDelta
from repro.artifacts.store import ArtifactStats, ArtifactStore

__all__ = [
    "ArtifactStats",
    "ArtifactStore",
    "StateRecorder",
    "WorldDelta",
    "artifact_key",
    "canonical",
    "code_fingerprint",
]
