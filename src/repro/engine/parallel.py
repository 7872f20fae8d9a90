"""The sharded multi-process execution engine.

:class:`ParallelBackend` is the third registry engine (``"par"``): it
shards the root set across ``workers`` processes of the persistent pool
(:mod:`repro.parallel.procpool`) and merges the per-shard results
deterministically.  What a worker runs depends on the counter:

* the **device counters** (GBC, its NH/NB/NW ablations, and GBL) run
  the native engine's hybrid DFS-BFS frontier kernels
  (:mod:`repro.core.frontier`) — one frontier per root shard, over the
  session's HTB pair or native CSR pack.  The parent sums the shard
  totals and takes the largest working-set peak; no per-root cycle
  profile or block schedule exists on this path;
* the **host baselines** (Basic, BCL, BCLP) run the uninstrumented
  :class:`~repro.engine.fast.FastBackend` kernels per root, with
  per-root data scattered back into priority order.

Static placement uses the pre-runtime splitters of :mod:`repro.balance`
(``contiguous`` or the weighted-greedy LPT policy); the ``dynamic``
dispatch mode feeds small chunks to a shared queue, mirroring the GCL
work-stealing semantics of :mod:`repro.gpu.workqueue` at process
granularity.

Counts are bit-identical to a serial run regardless of worker count,
placement, or scheduling order: every root's search tree is evaluated
exactly as a serial engine would, and the merge is either a scatter by
original root index or an exact integer sum / maximum.  ``par`` is
uninstrumented — device metrics stay zero.

As a :class:`KernelBackend` its four primitives simply delegate to an
inner fast engine, so code paths without a sharded driver (enumeration,
single intersections) still work — serially — when handed ``"par"``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.base import KernelBackend
from repro.engine.fast import FastBackend
from repro.gpu.metrics import KernelMetrics
from repro.parallel.sharding import (
    DISPATCH_MODES,
    PLACEMENTS,
    default_workers,
    plan_shards,
    run_sharded,
    run_shards,
)

__all__ = ["ParallelBackend"]


class ParallelBackend(KernelBackend):
    """Root-set sharding over forked workers: native frontier kernels
    for the device counters, fast kernels for the host baselines."""

    name = "par"
    instrumented = False
    parallel = True
    #: the device counters' CSR shards run over a native pack
    wants_pack = True

    def __init__(self, workers: int | None = None, *,
                 placement: str = "weighted",
                 dispatch: str = "static",
                 chunk_size: int | None = None) -> None:
        from repro.errors import QueryError

        self.workers = default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        if placement not in PLACEMENTS:
            raise QueryError(f"placement must be one of {PLACEMENTS}, "
                             f"got {placement!r}")
        if dispatch not in DISPATCH_MODES:
            raise QueryError(f"dispatch must be one of {DISPATCH_MODES}, "
                             f"got {dispatch!r}")
        self.placement = placement
        self.dispatch = dispatch
        self.chunk_size = chunk_size
        self._inner = FastBackend()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ParallelBackend(workers={self.workers}, "
                f"placement={self.placement!r}, dispatch={self.dispatch!r})")

    def with_workers(self, workers: int) -> "ParallelBackend":
        """This engine's configuration with a different worker count."""
        return ParallelBackend(workers, placement=self.placement,
                               dispatch=self.dispatch,
                               chunk_size=self.chunk_size)

    # -- shard orchestration -------------------------------------------
    def map_shards(self, fn: Callable[[Sequence[int]], Any],
                   num_items: int,
                   weights: np.ndarray | None = None
                   ) -> list[tuple[tuple[int, ...], Any]]:
        """Run ``fn(item_indices)`` over shards of ``range(num_items)``.

        Returns ``[(item_indices, result), ...]`` in deterministic shard
        order; see :func:`repro.parallel.sharding.run_sharded`.  The
        host baselines in :mod:`repro.core` call this with a closure
        over their prepared inputs.
        """
        return run_sharded(fn, num_items, workers=self.workers,
                           placement=self.placement, weights=weights,
                           dispatch=self.dispatch,
                           chunk_size=self.chunk_size)

    def map_roots(self, fn: Callable[[np.ndarray], Any], roots: np.ndarray,
                  weights: np.ndarray | None = None) -> list:
        """Run ``fn(shard_roots)`` over shards of ``roots``.

        Shards are planned exactly as in :meth:`map_shards`; each task
        carries its roots (in their original order) rather than their
        positions, so ``fn`` need not close over the per-query root
        array and the pool ships only the tables ``fn`` closes over.
        Results come back in shard order.
        """
        roots = np.asarray(roots, dtype=np.int64)
        plan = plan_shards(len(roots), self.workers,
                           placement=self.placement, weights=weights,
                           dispatch=self.dispatch,
                           chunk_size=self.chunk_size)
        shards = [roots[np.sort(np.asarray(s, dtype=np.int64))]
                  for s in plan.shards]
        return run_shards(fn, shards, workers=self.workers,
                          dispatch=self.dispatch)

    # -- kernel primitives: delegate to the fast engine ----------------
    def merge(self, a: np.ndarray, b: np.ndarray,
              comparisons: list[int] | None = None) -> np.ndarray:
        return self._inner.merge(a, b, comparisons)

    def intersect(self, keys: np.ndarray, lst: np.ndarray,
                  metrics: KernelMetrics, *,
                  warps: int = 1, base_word: int = 0,
                  record_slots: bool = True) -> np.ndarray:
        return self._inner.merge(keys, lst)

    def membership(self, keys: np.ndarray, lst: np.ndarray) -> np.ndarray:
        return self._inner.membership(keys, lst)

    def bitmap_intersect(self, keys, lst, metrics: KernelMetrics, *,
                         warps: int = 1, base_word: int = 0,
                         keys_in_shared: bool = True,
                         record_slots: bool = True):
        return self._inner.bitmap_intersect(keys, lst, metrics)
