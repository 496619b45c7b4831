"""A word-stream model of CPython's ``random.Random`` draw programs.

:class:`WordLedger` bulk-fetches raw Mersenne Twister words through the
``RandomState`` transplant of :mod:`repro.columnar.rng` and walks the
exact scalar control flow of ``random()``, ``getrandbits``,
``_randbelow``, ``shuffle``, ``normalvariate`` and ``expovariate`` with
a Python cursor — rejections just advance it.  The suites use it to pin
how many words each primitive consumes, and that the capture
generator's draw program is a pure word-stream program; no production
code replays draws this way (the capture's rejection-heavy draws stay
on the C-backed scalar generator).
"""

import math
import random as _random
from typing import List, Optional

import numpy as np

from repro.columnar.rng import randstate_from, sync_py_rng

#: Kinderman–Monahan constant, exactly as the stdlib computes it.
NV_MAGICCONST = getattr(
    _random, "NV_MAGICCONST", 4.0 * math.exp(-0.5) / math.sqrt(2.0)
)

_WORD_HIGH = 1 << 32


class WordLedger:
    """A bulk-prefetched cursor over one ``random.Random`` word stream.

    While a ledger is open it *owns* the stream: the Python ``Random``
    object is left untouched until :meth:`close`, which fast-forwards
    it past exactly the words the cursor consumed.  Interleave other
    consumers of the same ``Random`` between ledgers, never within one.

    Primitives mirror the CPython draw programs word-for-word:
    ``uniform`` (2 words), ``getrandbits(k≤32)`` (1 word),
    ``randbelow`` (1 word per rejection round), ``shuffle`` (reverse
    Fisher–Yates), ``normalvariate_z`` / ``expovariate`` (the stdlib
    rejection/log transforms with scalar ``math`` calls, one per
    iteration — the same count the scalar path pays).
    """

    CHUNK = 1 << 15

    def __init__(self, rng: _random.Random, chunk: int = CHUNK):
        self.rng = rng
        self._chunk = max(int(chunk), 16)
        self._gauss_next = rng.gauss_next
        self._rs = randstate_from(rng)
        self._consumed = 0
        self._words: Optional[np.ndarray] = None
        self._u: List[float] = []
        self._bits: dict = {}
        self._pos = 0
        self._len = 0
        self._closed = False
        self._fill(self._chunk)

    # -- buffer management -------------------------------------------

    def _fill(self, need: int) -> None:
        tail = (
            self._words[self._pos:] if self._words is not None else None
        )
        fresh = self._rs.randint(
            0, _WORD_HIGH, size=max(need, self._chunk), dtype=np.uint32
        )
        if tail is not None and len(tail):
            self._words = np.concatenate([tail, fresh])
        else:
            self._words = fresh
        self._pos = 0
        self._len = len(self._words)
        w = self._words
        # Uniform starting at word offset c: CPython's genrand_res53.
        a = (w >> np.uint32(5)).astype(np.float64) * 67108864.0
        b = (w >> np.uint32(6)).astype(np.float64)
        u = np.empty(self._len, dtype=np.float64)
        u[:-1] = (a[:-1] + b[1:]) * (1.0 / 9007199254740992.0)
        u[-1] = 0.0  # half a pair; _ensure keeps it unreachable
        self._u = u.tolist()
        self._bits = {}

    def _ensure(self, words: int) -> None:
        if self._len - self._pos < words:
            self._fill(words)

    # -- primitives ---------------------------------------------------

    def uniform(self) -> float:
        """One ``rng.random()`` (2 words)."""
        self._ensure(2)
        v = self._u[self._pos]
        self._pos += 2
        self._consumed += 2
        return v

    def getrandbits(self, k: int) -> int:
        """One ``rng.getrandbits(k)`` for ``k <= 32`` (1 word)."""
        self._ensure(1)
        lst = self._bits.get(k)
        if lst is None:
            lst = (self._words >> np.uint32(32 - k)).tolist()
            self._bits[k] = lst
        r = lst[self._pos]
        self._pos += 1
        self._consumed += 1
        return r

    def randbelow(self, n: int) -> int:
        """``rng._randbelow(n)``: top-bits rejection sampling."""
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randrange(self, n: int) -> int:
        """``rng.randrange(n)`` for a positive int ``n``."""
        return self.randbelow(n)

    def choice_index(self, length: int) -> int:
        """The index ``rng.choice(seq)`` would pick from ``seq``."""
        return self.randbelow(length)

    def shuffle(self, x: list) -> None:
        """In-place ``rng.shuffle(x)`` (reverse Fisher–Yates)."""
        for i in reversed(range(1, len(x))):
            j = self.randbelow(i + 1)
            x[i], x[j] = x[j], x[i]

    def normalvariate_z(self) -> float:
        """The z of one ``rng.normalvariate(mu, sigma)`` draw.

        The Kinderman–Monahan acceptance test is mu/sigma-independent,
        so callers apply ``mu + z*sigma`` (then ``exp`` for the
        lognormal paths) exactly as the stdlib does.
        """
        while True:
            u1 = self.uniform()
            u2 = 1.0 - self.uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -math.log(u2):
                return z

    def expovariate(self, lambd: float) -> float:
        """One ``rng.expovariate(lambd)`` draw."""
        return -math.log(1.0 - self.uniform()) / lambd

    # -- hand-back ----------------------------------------------------

    @property
    def words_consumed(self) -> int:
        return self._consumed

    def close(self) -> None:
        """Advance the owning ``Random`` past every consumed word."""
        if self._closed:
            return
        self._closed = True
        rs = randstate_from(self.rng)
        if self._consumed:
            rs.randint(
                0, _WORD_HIGH, size=self._consumed, dtype=np.uint32
            )
        sync_py_rng(self.rng, rs, self._gauss_next)

    def __enter__(self) -> "WordLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
