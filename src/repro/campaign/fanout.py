"""The single fork fan-out path of the measurement plane.

Every parallel campaign in the repository — the engine's round-chunked
WAN grids, its traceroute sweeps, and the rank-sliced §2.1 dataset
shards — funnels through :func:`fork_map`.  The discipline it encodes
(inherited from the PR 1 WAN fork and the PR 2 dataset shards it
subsumes) is:

* workers are **forked**, never spawned: the fully built world reaches
  the children by copy-on-write, nothing heavy is pickled, and the
  closures the world holds (dynamic DNS answer functions) never cross
  a process boundary;
* the callable runs over a contiguous index range and results come
  back **in index order**, so merges are deterministic;
* platforms without ``fork`` fall back to in-process execution, which
  is bit-identical by construction;
* a worker that dies (killed, out of memory, ``os._exit``) fails the
  fan-out loudly with a :class:`RuntimeError` instead of hanging it.

Only the module-level trampoline is ever pickled by the executor; the
work callable itself (usually a closure over campaign state) stays in
the parent's memory image and reaches children through the fork.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim import fork_pool_available

#: The active work callable, inherited by forked children.
_ACTIVE_FN: Optional[Callable[[int], object]] = None


def _invoke(index: int):
    """Executor trampoline: the only object that crosses via pickling."""
    return _ACTIVE_FN(index)


def partition(count: int, shards: int) -> List[Tuple[int, int]]:
    """Near-equal contiguous ``[lo, hi)`` index slices, in order."""
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            bounds.append((lo, hi))
        lo = hi
    return bounds


def partition_weighted(
    weights: Sequence[float], shards: int
) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` slices with near-equal total *weight*.

    :func:`partition` balances task counts, which skews wall-clock when
    per-task cost varies by orders of magnitude — at paper scale a few
    AXFR-able domains carry thousands of subdomains while most carry a
    handful, so an equal-count shard can hold most of the bytes.  This
    variant cuts after the item where the running weight crosses each
    ``i/shards`` quantile of the total, keeping every slice non-empty
    and leaving at least one item for each remaining slice.  Slices are
    contiguous and in order, so any consumer of :func:`partition` can
    switch without changing merge semantics.  Uniform weights degrade
    to :func:`partition`'s balance (same slice-size multiset; the +1
    remainders may land on different shards), and a non-positive total
    falls back to :func:`partition` itself.
    """
    count = len(weights)
    if count == 0:
        return []
    shards = max(1, min(shards, count))
    total = float(sum(weights))
    if shards == 1 or total <= 0.0:
        return partition(count, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    cum = 0.0
    emitted = 0
    for index, weight in enumerate(weights):
        cum += float(weight)
        if emitted >= shards - 1:
            break
        remaining = count - (index + 1)
        needed = shards - emitted - 1
        # Cut at the quantile crossing — or immediately, when every
        # remaining item is needed to keep the later slices non-empty
        # (weight piled at the tail would otherwise shrink the fan-out).
        if remaining < needed:
            continue
        if remaining == needed or cum >= total * (emitted + 1) / shards:
            bounds.append((lo, index + 1))
            lo = index + 1
            emitted += 1
    bounds.append((lo, count))
    return bounds


def fork_map(
    fn: Callable[[int], object], count: int, workers: int,
    force_fork: bool = False,
) -> List[object]:
    """Run ``fn(0) .. fn(count - 1)`` over forked workers, in order.

    ``fn`` must be self-contained under fork semantics: whatever state
    it closes over is copied into the children at fork time and
    mutations never propagate back — results must carry everything the
    parent needs to reconcile.  With ``workers <= 1``, ``count <= 1``,
    or no fork support, the calls run in-process instead.

    ``force_fork=True`` forks even for a single worker or task — for
    callers that rely on fork *isolation* rather than parallelism (the
    fan-out dataset build must keep the parent world unmutated by a
    slice's digs).  It cannot conjure fork support: when the platform
    has none the calls still run in-process, so such callers must gate
    on :func:`repro.sim.fork_pool_available` themselves.

    A worker process that dies mid-task raises :class:`RuntimeError`
    naming the fan-out (``fn``'s qualified name and its shape) as soon
    as the death is noticed; an exception raised *by* ``fn`` in a
    worker propagates unchanged, as it would in-process.
    """
    if count <= 0:
        return []
    workers = min(workers, count)
    if not fork_pool_available() or (workers <= 1 and not force_fork):
        return [fn(index) for index in range(count)]
    workers = max(1, workers)
    global _ACTIVE_FN
    _ACTIVE_FN = fn
    results: List[object] = []
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            for result in pool.map(_invoke, range(count)):
                results.append(result)
    except BrokenProcessPool as exc:
        name = getattr(fn, "__qualname__", repr(fn))
        raise RuntimeError(
            f"fork fan-out {name} ({count} tasks over {workers} "
            f"workers): a worker process died before task "
            f"{len(results)} returned"
        ) from exc
    finally:
        _ACTIVE_FN = None
    if len(results) != count:
        raise RuntimeError(
            f"fork fan-out drift: {count} tasks submitted, "
            f"{len(results)} results returned"
        )
    return results
