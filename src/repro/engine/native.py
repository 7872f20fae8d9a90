"""The native batch-kernel engine: whole frontiers per kernel call.

The paper's GPU kernels win because one launch processes an entire
frontier of (candidate, adjacency-row) pairs; the Python reproduction
lost that shape by issuing one ``backend.intersect`` per candidate, so
interpreter and numpy *dispatch* — not the intersections themselves —
dominate even :class:`~repro.engine.fast.FastBackend` wall time.
:class:`NativeBackend` restores the batch shape on the host at two
granularities.  The batch entry points (``intersect_many`` and
friends) vectorise one recursion node's frontier; on top of those the
engine declares ``frontier = True``, which routes the device counters
through :mod:`repro.core.frontier` — a budgeted hybrid DFS-BFS
traversal that submits **every (candidate, row) pair of a search level
across many roots in one call**, slicing only levels too large for the
scratch budget.  Each pairwise kernel keys the
concatenated sorted rows by their pair id (``value + pair * span``) so
a single ``searchsorted`` resolves thousands of independent
intersections, probing whichever side of the level holds fewer
elements; the alternative is one numpy dispatch per recursion node,
which a sparse graph's 2–4-row frontiers can never amortise.

Two tiers implement the kernels:

* **pure numpy** — always available, the default, and the tier the
  local test matrix exercises;
* **numba JIT** (:mod:`repro.engine._njit`) — two-pointer compiled
  loops over the same flat arrays, auto-detected at import and
  controlled by ``REPRO_NATIVE_JIT`` (``1``/``true`` forces it on when
  numba is importable, ``0``/``false`` forces pure numpy, unset means
  "use it if available").  Install with ``pip install -e .[native]``.

Counts are bit-identical to ``fast`` in every tier — the golden
harness and the equivalence tests in ``tests/engine/test_native.py``
assert this across all five algorithms.  Scalar primitives inherit
from :class:`~repro.engine.fast.FastBackend`, so call sites that
intersect one pair at a time (enumeration, probes) keep working.

The engine also registers a :class:`~repro.plan.registry
.BackendCostModel` with ``auto=True``: the cost hooks price counted
work with native's amortised per-call constants and ``method="auto"``
(with no pinned backend) picks the engine whenever it wins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.engine.fast import FastBackend
from repro.graph.csr import row_positions
from repro.gpu.metrics import KernelMetrics
from repro.htb.bitmap import popcount
from repro.htb.htb import BitmapSet
from repro.obs import trace as _trace
from repro.plan.registry import BackendCostModel, register_backend_cost

__all__ = ["NativeBackend", "NativePack", "build_native_pack",
           "jit_available"]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_SET = BitmapSet(_EMPTY_I64, _EMPTY_U64)
_EMPTY_BOOL = np.zeros(0, dtype=bool)

try:  # the JIT tier is optional; pure numpy is the tested fallback
    from repro.engine import _njit as _jit
    _JIT_AVAILABLE = True
except ImportError:  # pragma: no cover - depends on numba presence
    _jit = None
    _JIT_AVAILABLE = False

#: environment switch for the JIT tier (checked per backend instance)
JIT_ENV = "REPRO_NATIVE_JIT"


def jit_available() -> bool:
    """Whether the numba tier imported successfully."""
    return _JIT_AVAILABLE


def _resolve_jit(jit: bool | None) -> bool:
    """Effective JIT setting from an explicit flag or ``REPRO_NATIVE_JIT``.

    Requesting the tier without numba installed degrades to pure numpy
    (the fallback must always work) instead of raising.
    """
    if jit is None:
        raw = os.environ.get(JIT_ENV, "").strip().lower()
        if raw in ("0", "false", "off", "no"):
            return False
        if raw in ("1", "true", "on", "yes"):
            return _JIT_AVAILABLE
        return _JIT_AVAILABLE
    return bool(jit) and _JIT_AVAILABLE


@dataclass(frozen=True)
class NativePack:
    """CSR arrays of one (layer, k) packed for the batch kernels.

    The prepared-state kind behind plan keys ``native:<layer>:<k>``:
    the anchored adjacency and the rank-filtered two-hop index as
    C-contiguous int64 arrays, built once per
    :class:`repro.query.GraphSession` and handed to the counters so
    every batch kernel (and the numba tier in particular) runs over
    stable, cache-friendly buffers.
    """

    layer: str
    k: int
    adj_offsets: np.ndarray
    adj_values: np.ndarray
    idx_offsets: np.ndarray
    idx_values: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.adj_offsets.nbytes + self.adj_values.nbytes
                   + self.idx_offsets.nbytes + self.idx_values.nbytes)


def build_native_pack(graph, index, layer: str, k: int) -> NativePack:
    """Pack an anchored graph + two-hop index for the batch kernels.

    ``ascontiguousarray`` is a no-op view when the arrays already
    qualify (they do when freshly built), so packing an existing
    session costs four dtype checks.
    """
    return NativePack(
        layer=layer, k=int(k),
        adj_offsets=np.ascontiguousarray(graph.u_offsets, dtype=np.int64),
        adj_values=np.ascontiguousarray(graph.u_neighbors, dtype=np.int64),
        idx_offsets=np.ascontiguousarray(index.offsets, dtype=np.int64),
        idx_values=np.ascontiguousarray(index.neighbors, dtype=np.int64),
    )


def _probe_mask(keys: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """hit[i] = flat[i] ∈ keys, via one searchsorted over the batch."""
    pos = keys.searchsorted(flat)
    pos[pos == len(keys)] = 0  # out-of-range probes can never match
    return pos, keys[pos] == flat


def _per_row_sums(flags: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Sum boolean/int ``flags`` over each row of a flat batch."""
    csum = np.empty(len(flags) + 1, dtype=np.int64)
    csum[0] = 0
    np.cumsum(flags, dtype=np.int64, out=csum[1:])
    ends = np.cumsum(lens)
    return csum[ends] - csum[ends - lens]


class NativeBackend(FastBackend):
    """Batch kernels over flat CSR/HTB arrays (numpy or numba tier)."""

    name = "native"
    instrumented = False
    #: the counters fetch a :class:`NativePack` prepared state for this
    #: engine (contiguous arrays for the batch kernels)
    wants_pack = True
    #: the device counters run the hybrid DFS-BFS frontier traversal
    #: (:mod:`repro.core.frontier`) on this engine: one pairwise kernel
    #: call per search level, or per budget slice of a larger level
    frontier = True

    def __init__(self, jit: bool | None = None) -> None:
        self.jit_enabled = _resolve_jit(jit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NativeBackend(jit={self.jit_enabled})"

    # -- CSR batch kernels ---------------------------------------------
    def merge_many(self, a: np.ndarray, lists, comparisons=None):
        n = len(lists)
        if n == 0:
            return []
        if len(a) == 0:
            return [_EMPTY_I64] * n
        lens = np.asarray([len(b) for b in lists], dtype=np.int64)
        if _trace.enabled:
            _trace.tally_kernel("merge_many", items=n,
                                bytes_touched=8 * (len(a) * n
                                                   + int(lens.sum())))
        if not int(lens.sum()):
            return [_EMPTY_I64] * n
        flat = np.concatenate(lists)
        _, hit = _probe_mask(a, flat)
        return np.split(flat[hit],
                        np.cumsum(_per_row_sums(hit, lens))[:-1])

    def membership_many(self, keys: np.ndarray, lists):
        # keys are sorted unique ids (as everywhere in the repo); the
        # inverse probe marks, for each row, which key position matched
        n = len(lists)
        if n == 0:
            return []
        nk = len(keys)
        if nk == 0:
            return [_EMPTY_BOOL] * n
        lens = np.asarray([len(b) for b in lists], dtype=np.int64)
        if _trace.enabled:
            _trace.tally_kernel("membership_many", items=n,
                                bytes_touched=8 * (nk * n
                                                   + int(lens.sum())))
        out = np.zeros((n, nk), dtype=bool)
        if int(lens.sum()):
            flat = np.concatenate(lists)
            pos, hit = _probe_mask(keys, flat)
            row_ids = np.repeat(np.arange(n, dtype=np.int64), lens)
            out[row_ids[hit], pos[hit]] = True
        return list(out)

    def intersect_many(self, keys: np.ndarray, offsets: np.ndarray,
                       values: np.ndarray, rows, metrics: KernelMetrics, *,
                       warps: int = 1, record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return []
        if len(keys) == 0:
            return [_EMPTY_I64] * n
        if _trace.enabled:
            row_elems = int((offsets[rows + 1] - offsets[rows]).sum())
            _trace.tally_kernel("intersect_many", items=n,
                                bytes_touched=8 * (len(keys) + row_elems))
        if self.jit_enabled:
            flat, out_lens = _jit.intersect_rows(keys, offsets, values,
                                                 rows)
            return np.split(flat, np.cumsum(out_lens)[:-1])
        pos, lens = row_positions(offsets, rows)
        flat = values[pos]
        _, hit = _probe_mask(keys, flat)
        return np.split(flat[hit],
                        np.cumsum(_per_row_sums(hit, lens))[:-1])

    def intersect_sizes(self, keys: np.ndarray, offsets: np.ndarray,
                        values: np.ndarray, rows, metrics: KernelMetrics, *,
                        warps: int = 1,
                        record_slots: bool = True) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if len(keys) == 0:
            return np.zeros(n, dtype=np.int64)
        if _trace.enabled:
            row_elems = int((offsets[rows + 1] - offsets[rows]).sum())
            _trace.tally_kernel("intersect_sizes", items=n,
                                bytes_touched=8 * (len(keys) + row_elems))
        if self.jit_enabled:
            return _jit.intersect_row_sizes(keys, offsets, values, rows)
        pos, lens = row_positions(offsets, rows)
        _, hit = _probe_mask(keys, values[pos])
        return _per_row_sums(hit, lens)

    # -- pairwise batch kernels (one call per search level) ------------
    @staticmethod
    def _pair_hits(a_off, a_val, a_ids, b_flat, b_lens):
        """``hit[i] = b_flat[i] ∈ A[its pair's key row]`` in one probe.

        Keying every element by its ragged row id turns the
        concatenated key rows into one globally sorted haystack (rows
        are sorted and row blocks ascend), so a single ``searchsorted``
        resolves every pair of the level — needles carry their target
        row's key and can only match inside it.
        """
        span = int(max(int(a_val.max()), int(b_flat.max()))) + 1
        a_rows = np.repeat(np.arange(len(a_off) - 1, dtype=np.int64),
                           np.diff(a_off))
        haystack = a_val + a_rows * span
        needles = b_flat + np.repeat(a_ids, b_lens) * span
        pos = haystack.searchsorted(needles)
        pos[pos == len(haystack)] = 0
        return pos, haystack[pos] == needles

    def _pair_select(self, a_off, a_val, a_ids, offsets, values, rows,
                     want_values: bool):
        """Core of the pairwise CSR kernels: per-pair hit flags.

        Probes the *smaller* side of the level into the other — binary
        search count is what the whole level costs, so the direction
        with fewer needles wins (the GPU kernels make the same choice
        per warp).  Returns ``(hit, lens, flat)`` where ``flat[hit]``
        is the ragged result and ``lens`` its per-pair input lengths.
        """
        b_pos, b_lens = row_positions(offsets, rows)
        if len(a_val) == 0 or len(b_pos) == 0:
            return None
        a_lens = (a_off[a_ids + 1] - a_off[a_ids]).astype(np.int64,
                                                          copy=False)
        b_flat = values[b_pos]
        if int(a_lens.sum()) <= len(b_flat):
            # expand each pair's key row and probe it into the gathered
            # CSR rows (keyed per pair, globally sorted by construction)
            a_pos, _ = row_positions(a_off, a_ids)
            a_flat = a_val[a_pos]
            if len(a_flat) == 0:
                return None
            span = int(max(int(a_flat.max()), int(b_flat.max()))) + 1
            pair_ids = np.arange(len(rows), dtype=np.int64)
            haystack = b_flat + np.repeat(pair_ids, b_lens) * span
            needles = a_flat + np.repeat(pair_ids, a_lens) * span
            pos = haystack.searchsorted(needles)
            pos[pos == len(haystack)] = 0
            return haystack[pos] == needles, a_lens, a_flat
        _, hit = self._pair_hits(a_off, a_val, a_ids, b_flat, b_lens)
        return hit, b_lens, b_flat

    def intersect_pairs(self, a_off, a_val, a_ids, offsets, values, rows,
                        metrics: KernelMetrics, *,
                        warps: int = 1, record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        off = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return off, _EMPTY_I64
        a_ids = np.asarray(a_ids, dtype=np.int64)
        if _trace.enabled:
            _trace.tally_kernel(
                "intersect_pairs", items=n,
                bytes_touched=8 * (int((a_off[a_ids + 1]
                                        - a_off[a_ids]).sum())
                                   + int((offsets[rows + 1]
                                          - offsets[rows]).sum())))
        if self.jit_enabled:
            flat, out_lens = _jit.intersect_pair_rows(
                a_off, a_val, a_ids, offsets, values, rows)
            np.cumsum(out_lens, out=off[1:])
            return off, flat
        got = self._pair_select(a_off, a_val, a_ids, offsets, values,
                                rows, want_values=True)
        if got is None:
            return off, _EMPTY_I64
        hit, lens, flat = got
        np.cumsum(_per_row_sums(hit, lens), out=off[1:])
        return off, flat[hit]

    def intersect_pairs_sizes(self, a_off, a_val, a_ids, offsets, values,
                              rows, metrics: KernelMetrics, *,
                              warps: int = 1, record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        a_ids = np.asarray(a_ids, dtype=np.int64)
        if _trace.enabled:
            _trace.tally_kernel(
                "intersect_pairs_sizes", items=n,
                bytes_touched=8 * (int((a_off[a_ids + 1]
                                        - a_off[a_ids]).sum())
                                   + int((offsets[rows + 1]
                                          - offsets[rows]).sum())))
        if self.jit_enabled:
            return _jit.intersect_pair_sizes(a_off, a_val, a_ids,
                                             offsets, values, rows)
        got = self._pair_select(a_off, a_val, a_ids, offsets, values,
                                rows, want_values=False)
        if got is None:
            return np.zeros(n, dtype=np.int64)
        hit, lens, _ = got
        return _per_row_sums(hit, lens)

    def bitmap_pairs(self, a_off, a_idx, a_val, a_ids, htb, rows,
                     metrics: KernelMetrics, *,
                     warps: int = 1, keys_in_shared: bool = True,
                     record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        off = np.zeros(n + 1, dtype=np.int64)
        if n == 0:
            return off, _EMPTY_I64, _EMPTY_U64, np.zeros(0, dtype=np.int64)
        b_pos, b_lens = row_positions(htb.off, rows)
        if len(a_idx) == 0 or len(b_pos) == 0:
            return off, _EMPTY_I64, _EMPTY_U64, np.zeros(n, dtype=np.int64)
        if _trace.enabled:
            aids = np.asarray(a_ids, dtype=np.int64)
            _trace.tally_kernel(
                "bitmap_pairs", items=n,
                bytes_touched=16 * (int((a_off[aids + 1]
                                         - a_off[aids]).sum())
                                    + int(b_lens.sum())))
        b_idx = htb.idx[b_pos]
        pos, hit = self._pair_hits(a_off, a_idx,
                                   np.asarray(a_ids, dtype=np.int64),
                                   b_idx, b_lens)
        masks = a_val[pos[hit]] & htb.val[b_pos[hit]]
        nz = masks != 0
        keep = hit.copy()
        keep[hit] = nz
        out_val = masks[nz]
        np.cumsum(_per_row_sums(keep, b_lens), out=off[1:])
        weights = np.zeros(len(keep), dtype=np.int64)
        weights[keep] = popcount(out_val).astype(np.int64, copy=False)
        return off, b_idx[keep], out_val, _per_row_sums(weights, b_lens)

    def bitmap_pairs_counts(self, a_off, a_idx, a_val, a_ids, htb, rows,
                            metrics: KernelMetrics, *,
                            warps: int = 1, keys_in_shared: bool = True,
                            record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        b_pos, b_lens = row_positions(htb.off, rows)
        if len(a_idx) == 0 or len(b_pos) == 0:
            return np.zeros(n, dtype=np.int64)
        if _trace.enabled:
            aids = np.asarray(a_ids, dtype=np.int64)
            _trace.tally_kernel(
                "bitmap_pairs_counts", items=n,
                bytes_touched=16 * (int((a_off[aids + 1]
                                         - a_off[aids]).sum())
                                    + int(b_lens.sum())))
        pos, hit = self._pair_hits(a_off, a_idx,
                                   np.asarray(a_ids, dtype=np.int64),
                                   htb.idx[b_pos], b_lens)
        masks = a_val[pos[hit]] & htb.val[b_pos[hit]]
        weights = np.zeros(len(hit), dtype=np.int64)
        weights[hit] = popcount(masks).astype(np.int64, copy=False)
        return _per_row_sums(weights, b_lens)

    # -- HTB batch kernels ---------------------------------------------
    def _bitmap_flat(self, keys: BitmapSet, htb, rows):
        """Shared two-phase core: align Idx words, AND Val words.

        Returns flat (idx, val) result words, a flat keep mask, and
        per-row input lengths for the split/sum stages.
        """
        a_idx, a_val = keys.idx, keys.val
        pos, lens = row_positions(htb.off, rows)
        b_idx = htb.idx[pos]
        probe, hit = _probe_mask(a_idx, b_idx)
        masks = a_val[probe[hit]] & htb.val[pos[hit]]
        nz = masks != 0
        keep = hit.copy()
        keep[hit] = nz
        return b_idx[hit][nz], masks[nz], keep, lens

    def bitmap_intersect_many(self, keys: BitmapSet, htb, rows,
                              metrics: KernelMetrics, *,
                              warps: int = 1, keys_in_shared: bool = True,
                              record_slots: bool = True):
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return []
        if keys.is_empty():
            return [_EMPTY_SET] * n
        if _trace.enabled:
            row_words = int((htb.off[rows + 1] - htb.off[rows]).sum())
            _trace.tally_kernel(
                "bitmap_intersect_many", items=n,
                bytes_touched=16 * (len(keys.idx) + row_words))
        if self.jit_enabled:
            flat_idx, flat_val, words, pops = _jit.bitmap_rows(
                keys.idx, keys.val, htb.off, htb.idx, htb.val, rows)
        else:
            flat_idx, flat_val, keep, lens = self._bitmap_flat(
                keys, htb, rows)
            words = _per_row_sums(keep, lens)
            pops = _per_row_sums(
                popcount(flat_val).astype(np.int64, copy=False),
                words)
        cuts = np.cumsum(words)[:-1]
        out = []
        for i, (idx_i, val_i) in enumerate(zip(np.split(flat_idx, cuts),
                                               np.split(flat_val, cuts))):
            got = BitmapSet(idx_i, val_i)
            got.__dict__["_count"] = int(pops[i])  # popcount already paid
            out.append(got)
        return out

    def bitmap_intersect_counts(self, keys: BitmapSet, htb, rows,
                                metrics: KernelMetrics, *,
                                warps: int = 1, keys_in_shared: bool = True,
                                record_slots: bool = True) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        n = len(rows)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if keys.is_empty():
            return np.zeros(n, dtype=np.int64)
        if _trace.enabled:
            row_words = int((htb.off[rows + 1] - htb.off[rows]).sum())
            _trace.tally_kernel(
                "bitmap_intersect_counts", items=n,
                bytes_touched=16 * (len(keys.idx) + row_words))
        if self.jit_enabled:
            return _jit.bitmap_row_counts(keys.idx, keys.val, htb.off,
                                          htb.idx, htb.val, rows)
        _, flat_val, keep, lens = self._bitmap_flat(keys, htb, rows)
        weights = np.zeros(len(keep), dtype=np.int64)
        weights[keep] = popcount(flat_val).astype(np.int64, copy=False)
        return _per_row_sums(weights, lens)


# ---------------------------------------------------------------------------
# cost-model self-registration: the planner prices counted work on this
# engine with amortised per-call constants (fitted on the Table II tiny
# stand-ins alongside BENCH_native.json) and, because auto=True, ranks
# every method under "native" as well as "fast" when no backend is
# pinned — method="auto" picks the engine exactly when it wins.
# ---------------------------------------------------------------------------

#: batched per-merge-invocation overhead: one numpy dispatch is shared
#: by a whole frontier, so the marginal per-call cost collapses
NATIVE_SECONDS_PER_MERGE_CALL = 4.5e-7
#: marginal cost per comparison inside a vectorised batch
NATIVE_SECONDS_PER_COMPARISON = 7.0e-9

register_backend_cost(BackendCostModel(
    name="native",
    seconds_per_merge_call=NATIVE_SECONDS_PER_MERGE_CALL,
    seconds_per_comparison=NATIVE_SECONDS_PER_COMPARISON,
    auto=True,
))
