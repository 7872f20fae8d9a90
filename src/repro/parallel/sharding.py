"""Shard planning and multi-process execution of per-root work.

The unit of parallel work in every counter is one root vertex's search
tree (the same unit the simulated device assigns to a thread block and
BCPar assigns to a partition).  This module turns a list of such units
into *shards* and runs a caller-supplied chunk function over them in
worker processes:

* **static** dispatch — one shard per worker, placed with the Table IV
  pre-runtime splitters (:func:`contiguous_split` for the naive split,
  :func:`weighted_greedy_split` for the paper's edge-oriented LPT
  policy).
* **dynamic** dispatch — the root list is cut into many small chunks
  which idle workers pull from a shared queue, heaviest chunks first:
  the process-pool analogue of the GCL work-stealing loop in
  :mod:`repro.gpu.workqueue` (an idle block takes the next unprocessed
  root of the most loaded victim).

Execution prefers the **persistent pool** (:mod:`repro.parallel.procpool`):
workers forked once per process and re-fed over pipes, so repeated
sharded calls within a session skip pool spin-up; closures are shipped
by value with a both-sides LRU cache for their heavy state.  Chunk
functions the pool cannot ship fall back to a legacy fork-per-call
``multiprocessing.Pool`` whose children inherit the parent's
graph/index/HTB structures through the fork.  Where ``fork`` is
unavailable (or inside a daemonic worker) execution falls back to
in-process loops — same results, no speedup.

Determinism contract: shard contents depend only on ``(num_items,
workers, placement, weights, dispatch, chunk_size)``, never on
scheduling order, and :func:`run_sharded` returns results keyed by the
original item indices — so any merge that is per-item (scatter by index)
or commutative-associative over exact values (integer sums, maxima)
reproduces the serial result bit for bit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.balance.preruntime import contiguous_split, weighted_greedy_split
from repro.errors import QueryError
from repro.parallel import procpool

__all__ = ["ShardPlan", "plan_shards", "run_sharded", "run_shards",
           "default_workers", "PLACEMENTS", "DISPATCH_MODES"]

PLACEMENTS = ("contiguous", "weighted")
DISPATCH_MODES = ("static", "dynamic")

#: chunks per worker in dynamic mode — small enough to amortise task
#: overhead, large enough that stragglers can be back-filled (mirrors the
#: stealing granularity of one GCL entry per block)
_DYNAMIC_CHUNKS_PER_WORKER = 4


def default_workers() -> int:
    """Worker count when the caller does not pin one: usable CPUs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of item indices to dispatch units."""

    shards: tuple[tuple[int, ...], ...]
    placement: str
    dispatch: str
    workers: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def covered(self) -> list[int]:
        """All item indices in the plan, sorted (must be a permutation)."""
        return sorted(i for shard in self.shards for i in shard)


def _validate(workers: int, placement: str, dispatch: str) -> None:
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    if placement not in PLACEMENTS:
        raise QueryError(f"placement must be one of {PLACEMENTS}, "
                         f"got {placement!r}")
    if dispatch not in DISPATCH_MODES:
        raise QueryError(f"dispatch must be one of {DISPATCH_MODES}, "
                         f"got {dispatch!r}")


def plan_shards(num_items: int, workers: int, *,
                placement: str = "weighted",
                weights: np.ndarray | None = None,
                dispatch: str = "static",
                chunk_size: int | None = None) -> ShardPlan:
    """Cut ``num_items`` work units into dispatchable shards.

    Static mode produces at most ``workers`` shards via the pre-runtime
    splitters (``weighted`` degrades to ``contiguous`` when no weights
    are supplied).  Dynamic mode produces contiguous chunks of
    ``chunk_size`` items (default: enough for a few chunks per worker),
    ordered heaviest-first when weights are known so the pool starts the
    long poles early — LPT at chunk granularity.
    """
    _validate(workers, placement, dispatch)
    if num_items <= 0:
        return ShardPlan((), placement, dispatch, workers)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != num_items:
            raise QueryError(f"got {len(weights)} weights for "
                             f"{num_items} items")

    if dispatch == "static":
        if placement == "weighted" and weights is not None:
            groups = weighted_greedy_split(weights, workers)
        else:
            groups = contiguous_split(num_items, workers)
    else:
        if chunk_size is None:
            chunk_size = -(-num_items // (workers * _DYNAMIC_CHUNKS_PER_WORKER))
        chunk_size = max(1, int(chunk_size))
        groups = [list(range(lo, min(lo + chunk_size, num_items)))
                  for lo in range(0, num_items, chunk_size)]
        if weights is not None:
            # stable heaviest-first dispatch order; ties keep chunk order
            totals = [-float(weights[g].sum()) for g in
                      (np.asarray(g, dtype=np.int64) for g in groups)]
            groups = [g for _, g in
                      sorted(zip(totals, groups), key=lambda t: (t[0],
                                                                 t[1][0]))]
    shards = tuple(tuple(int(i) for i in g) for g in groups if g)
    return ShardPlan(shards, placement, dispatch, workers)


# ---------------------------------------------------------------------------
# fork-based execution
#
# ``Pool.map`` pickles its callable, which rules out the closures the
# algorithms naturally build over their graph/index structures.  Instead
# the (fn, shards) pair rides into each worker as the pool initializer's
# argument — under the fork start method initargs are inherited through
# the fork, never pickled — so the only task payload on the wire is a
# shard id, and concurrent pools never see each other's state.
_FORK_STATE: tuple[Callable[[Sequence[int]], Any],
                   tuple[tuple[int, ...], ...]] | None = None


def _init_worker(state) -> None:
    global _FORK_STATE
    _FORK_STATE = state


def _run_shard(shard_id: int) -> tuple[int, Any]:
    fn, shards = _FORK_STATE
    return shard_id, fn(shards[shard_id])


def run_sharded(fn: Callable[[Sequence[int]], Any],
                num_items: int, *,
                workers: int | None = None,
                placement: str = "weighted",
                weights: np.ndarray | None = None,
                dispatch: str = "static",
                chunk_size: int | None = None
                ) -> list[tuple[tuple[int, ...], Any]]:
    """Run ``fn(item_indices)`` over shards, in worker processes.

    Returns ``[(item_indices, result), ...]`` in shard-id order — a
    deterministic order independent of which worker finished first.
    ``fn`` may be any callable (closures included); it executes in a
    forked child and its return value must be picklable.  With one
    worker, a single shard, or no ``fork`` support, everything runs in
    the calling process.
    """
    workers = default_workers() if workers is None else int(workers)
    plan = plan_shards(num_items, workers, placement=placement,
                       weights=weights, dispatch=dispatch,
                       chunk_size=chunk_size)
    return list(zip(plan.shards, run_shards(fn, plan.shards,
                                            workers=workers,
                                            dispatch=dispatch)))


def run_shards(fn: Callable[[Any], Any], shards: Sequence[Any], *,
               workers: int, dispatch: str = "static") -> list:
    """Run ``fn(shard)`` for every shard; results in shard order.

    A shard is whatever ``fn`` consumes — item indices for
    :func:`run_sharded`, root-id arrays for the frontier counters — and
    rides to the worker with each task.  Execution order and process
    placement never affect the returned list.
    """
    if not shards:
        return []
    if workers <= 1 or len(shards) == 1 or not procpool.fork_available():
        return [fn(shard) for shard in shards]

    # first choice: the persistent pool — workers forked once per
    # process and re-fed across calls, so repeated sharded counts skip
    # pool spin-up.  Anything it cannot ship falls back to the legacy
    # fork-per-call pool below; results are identical either way.
    pool = procpool.get_pool(min(workers, len(shards)))
    if pool is not None:
        try:
            return pool.run(fn, shards)
        except procpool.ShipError:
            pass
    return _run_forked(fn, shards, workers, dispatch)


def _run_forked(fn, shards, workers: int, dispatch: str) -> list:
    """The legacy fork-per-call pool: children inherit ``fn``."""
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=min(workers, len(shards)),
                  initializer=_init_worker,
                  initargs=((fn, shards),)) as pool:
        if dispatch == "dynamic":
            # imap_unordered is the self-scheduling queue: each idle
            # worker pulls the next pending chunk, like an idle block
            # advancing a victim's GCL entry
            results = list(pool.imap_unordered(_run_shard,
                                               range(len(shards))))
        else:
            results = pool.map(_run_shard, range(len(shards)),
                               chunksize=1)
    results.sort(key=lambda pair: pair[0])
    return [res for _, res in results]
