"""The on-disk artifact store: pickled payloads behind digest headers.

Layout: ``<root>/<kind>/<key>.pkl``, where ``key`` is the full
:func:`repro.artifacts.keys.artifact_key` hex digest.  Each file starts
with a one-line header naming the SHA-256 of the pickled payload;
:meth:`ArtifactStore.load` refuses (and deletes) any file whose payload
no longer matches — a truncated write, bit rot, a hand-edited file —
and reports a miss so the caller rebuilds.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.obs import NOOP, Observability

_HEADER_PREFIX = b"repro-artifact sha256="

log = logging.getLogger("repro.artifacts")


@dataclass
class ArtifactStats:
    """Hit/miss accounting for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Files present but rejected (bad header, digest mismatch,
    #: unpicklable payload, a world state that cannot be restored);
    #: each also counts as a miss.
    invalid: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
        }


class ArtifactStore:
    """A content-addressed cache of pickled pipeline artifacts."""

    def __init__(self, root, obs: Observability = NOOP) -> None:
        self.root = Path(root)
        self.stats = ArtifactStats()
        #: Observability plane: ``artifact`` spans around get/put plus
        #: volatile hit/miss/store counters (cache state is
        #: environmental, so the counters never join the deterministic
        #: metrics snapshot).
        self.obs = obs

    def path_for(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    def _count(self, outcome: str) -> None:
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(
                f"artifact_cache_{outcome}_total", volatile=True
            ).inc()

    def load(self, kind: str, key: str) -> Optional[object]:
        """The cached artifact, or None (counted as a miss).

        Verification failures delete the offending file so the
        subsequent :meth:`store` starts clean.
        """
        with self.obs.tracer.span(
            f"artifact:{kind}", category="artifact", op="load"
        ):
            return self._load(kind, key)

    def _load(self, kind: str, key: str) -> Optional[object]:
        path = self.path_for(kind, key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            self._count("misses")
            log.debug("artifact miss: %s/%s", kind, key[:12])
            return None
        header, _, payload = raw.partition(b"\n")
        artifact: Optional[object] = None
        if header.startswith(_HEADER_PREFIX):
            expected = header[len(_HEADER_PREFIX):].decode("ascii", "replace")
            if hashlib.sha256(payload).hexdigest() == expected:
                try:
                    artifact = pickle.loads(payload)
                except Exception:
                    artifact = None
        if artifact is None:
            self.stats.invalid += 1
            self.stats.misses += 1
            self._count("invalid")
            self._count("misses")
            log.warning(
                "artifact rejected (corrupt): %s/%s", kind, key[:12]
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        self._count("hits")
        log.info("artifact hit: %s/%s", kind, key[:12])
        return artifact

    def reject(self, kind: str, key: str) -> None:
        """Recount a served hit as an invalid miss: the artifact was
        readable but could not be restored onto the live world."""
        self.stats.hits -= 1
        self.stats.invalid += 1
        self.stats.misses += 1
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(
                "artifact_cache_hits_total", volatile=True
            ).inc(-1)
        self._count("invalid")
        self._count("misses")
        log.warning("artifact rejected (stale): %s/%s", kind, key[:12])

    def store(self, kind: str, key: str, artifact: object) -> Path:
        """Write one artifact atomically (write-then-rename)."""
        with self.obs.tracer.span(
            f"artifact:{kind}", category="artifact", op="store"
        ):
            path = self.path_for(kind, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(
                artifact, protocol=pickle.HIGHEST_PROTOCOL
            )
            header = (
                _HEADER_PREFIX
                + hashlib.sha256(payload).hexdigest().encode("ascii")
                + b"\n"
            )
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(header + payload)
            os.replace(tmp, path)
            self.stats.stores += 1
            self._count("stores")
            log.info("artifact stored: %s/%s", kind, key[:12])
        return path
