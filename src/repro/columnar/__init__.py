"""repro.columnar — the NumPy-backed columnar data plane.

Struct-of-arrays tables plus vectorized deterministic RNG that replays
the scalar draw program of the hot pipeline loops (dataset lookups,
capture storage, WAN matrices) in bulk.  It is the only production
path for those loops, and every one of them is **bit-identical** to
the scalar reference its test suite keeps (``tests/columnar/``): the
vectorized RNG consumes the underlying Mersenne Twister word stream in
exactly the order the scalar code would, transcendental functions go
through a parity-probed dispatch (:mod:`repro.columnar.parity`) that
falls back to ``math`` when this NumPy build's ufuncs are not
bit-equal, and the per-lane stream objects are left in exactly the
state sequential execution produces.

See ``docs/PERFORMANCE.md`` ("The columnar data plane") for the layout
and the RNG fast-forward contract.
"""

from __future__ import annotations

try:
    import numpy  # noqa: F401  (fail fast with a named error)
except ImportError as exc:  # pragma: no cover - depends on environment
    raise ImportError(
        "repro.columnar requires NumPy, which is not installed. "
        "Install the package with its declared dependencies "
        "(`pip install -e .` pulls in numpy per pyproject.toml / "
        "setup.py)."
    ) from exc
