"""Vectorized deterministic RNG: bulk replay of CPython draw programs.

``random.Random`` is a Mersenne Twister.  Its state transplants
losslessly into ``numpy.random.RandomState`` (same MT19937 core), and
``RandomState.random_sample(n)`` is **bit-identical** to ``n`` calls of
``Random.random()`` (both build each double from two 32-bit words as
``((w1 >> 5) * 2**26 + (w2 >> 6)) * 2**-53``).

Everything here builds on that transplant as block transforms for
draw programs with a fixed words-per-draw layout (:func:`gauss_block`,
:func:`advance_gauss_bulk`).  ``gauss`` consumes uniforms in
Box–Muller pairs and caches the odd value, so a block of ``n`` draws
is two vectorized uniform lanes plus ``gauss_next`` bookkeeping at the
ends.  Draw programs with a data-dependent word layout (rejection
sampling in ``normalvariate``/``_randbelow``, as in the capture
generator) stay on the C-backed scalar generator.

The fast-forward contract: after any helper returns, the owning
``random.Random`` — state vector, position, *and* ``gauss_next`` cache —
is byte-equal to what the equivalent scalar loop would have left.
Transcendentals route through :mod:`repro.columnar.parity`.
"""

from __future__ import annotations

import math
import random as _random
from typing import Optional

import numpy as np

from repro.columnar.parity import vec_cos, vec_log, vec_sin, vec_sqrt

TWOPI = 2.0 * math.pi


def randstate_from(rng: _random.Random) -> np.random.RandomState:
    """A ``RandomState`` positioned exactly where ``rng`` is."""
    version, internal, _gauss_next = rng.getstate()
    if version != 3:  # pragma: no cover - CPython-version guard
        raise RuntimeError(
            f"unsupported random.Random state version: {version}"
        )
    rs = np.random.RandomState()
    rs.set_state((
        "MT19937",
        np.array(internal[:-1], dtype=np.uint32),
        int(internal[-1]),
    ))
    return rs


def sync_py_rng(
    rng: _random.Random,
    rs: np.random.RandomState,
    gauss_next: Optional[float],
) -> None:
    """Write ``rs``'s position back into ``rng`` (with ``gauss_next``)."""
    state = rs.get_state()
    keys, pos = state[1], state[2]
    rng.setstate(
        (3, tuple(int(k) for k in keys) + (int(pos),), gauss_next)
    )


def gauss_block(rng: _random.Random, n: int) -> np.ndarray:
    """``n`` consecutive ``rng.gauss(0, 1)`` z-values; advances ``rng``.

    Honors an incoming cached ``gauss_next`` as the first value and
    leaves the trailing half-pair cached, exactly like scalar ``gauss``.
    Callers apply ``mu + z*sigma`` themselves (for the ``mu=0.0`` paths
    in this repository, ``z*sigma`` alone is bit-safe: the only way
    ``0.0 + x`` differs from ``x`` is ``-0.0`` → ``+0.0``, and every
    consumer here either takes ``abs`` or exponentiates).
    """
    out = np.empty(n, dtype=np.float64)
    if n <= 0:
        return out
    i = 0
    cached = rng.gauss_next
    if cached is not None:
        out[0] = cached
        rng.gauss_next = None
        i = 1
    m = n - i
    if m == 0:
        return out
    pairs = (m + 1) // 2
    rs = randstate_from(rng)
    u = rs.random_sample(2 * pairs)
    x2pi = u[0::2] * TWOPI
    g2rad = vec_sqrt(-2.0 * vec_log(1.0 - u[1::2]))
    z_cos = vec_cos(x2pi) * g2rad
    z_sin = vec_sin(x2pi) * g2rad
    out[i::2] = z_cos
    if m % 2:
        out[i + 1:: 2] = z_sin[:-1]
        trailing: Optional[float] = float(z_sin[-1])
    else:
        out[i + 1:: 2] = z_sin
        trailing = None
    sync_py_rng(rng, rs, trailing)
    return out


def advance_gauss_bulk(rng: _random.Random, count: int) -> None:
    """Fast-forward ``rng`` past ``count`` ``gauss`` draws.

    State-equal to ``count`` scalar ``gauss(0.0, 1.0)`` calls: the same
    uniforms are consumed and the same trailing ``gauss_next`` is
    cached (computed through scalar ``math`` — the exact functions the
    scalar path would have used).
    """
    if count <= 0:
        return
    if rng.gauss_next is not None:
        rng.gauss_next = None
        count -= 1
        if count == 0:
            return
    pairs = (count + 1) // 2
    rs = randstate_from(rng)
    u = rs.random_sample(2 * pairs)
    if count % 2:
        x2pi = float(u[-2]) * TWOPI
        g2rad = math.sqrt(-2.0 * math.log(1.0 - float(u[-1])))
        trailing: Optional[float] = math.sin(x2pi) * g2rad
    else:
        trailing = None
    sync_py_rng(rng, rs, trailing)
