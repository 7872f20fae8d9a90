"""Hybrid DFS-BFS frontier traversal for the batch-kernel engine.

The per-root recursion in :mod:`repro.core.gbl` / :mod:`repro.core.gbc`
batches one recursion node at a time, so a sparse graph hands the
engine frontiers of two or three candidates — far too little work to
amortise a kernel dispatch.  This module restores the paper's launch
shape: **one call per search level across many roots**.  A level lives
in ragged CSR-style arrays (an ``offsets`` array delimiting one row per
live task), candidates carry their task id, and each level issues a
constant number of pairwise batch kernels
(:meth:`repro.engine.base.KernelBackend.intersect_pairs` and friends)
however many roots or candidates are in flight.

A purely breadth-first level can be arbitrarily large: one hub root's
(task, candidate) pairs alone can stage tens of megabytes.  So the
traversal is the paper's *hybrid DFS-BFS* (§IV), bounded by
:data:`FRONTIER_BUDGET_WORDS`.  The work of a (task, candidate) pair is
the task's row words plus the candidate's CSR or HTB row words — what
the pair kernels gather and stage for it.  A level whose pairs fit the
budget expands breadth-first in one call per kernel; a level that does
not is cut into consecutive slices of pairs (a cut may fall inside one
root's candidate list), and each slice's subtree is finished
depth-first before the next slice expands.  The roots themselves are
sliced the same way by their first-level rows.  Every slice and every
level derived from one fits the budget (a lone pair heavier than the
budget forms its own slice), so peak scratch is about depth x budget
whatever the root skew; the ``peak_words`` both counters report is the
largest sum of the levels held on the DFS path plus the current
slice's staged pair work and children.

Counts are bit-identical to the per-root recursion: the same
(candidate, adjacency-row) intersections run with the same ``>= q`` /
``>= p - depth - 1`` survivor guards, only grouped by slice instead of
by root, and the binomial sum is an exact integer so regrouping cannot
change it.  The drivers route through here for engines that declare
``frontier = True`` (the native backend) and, one root shard per
worker, for ``par``; ``sim`` keeps the per-root path, whose
call-for-call accounting is golden-pinned.
"""

from __future__ import annotations

import numpy as np

from repro.core.device_common import comb_sum
from repro.graph.csr import gather_rows, row_lengths, row_positions

__all__ = ["csr_frontier_count", "htb_frontier_count",
           "csr_shard_count", "htb_shard_count", "merge_shard_counts",
           "decode_bitmap_rows", "FRONTIER_BUDGET_WORDS"]

#: staged pair work (in words) one frontier slice may hold: levels that
#: fit expand breadth-first, larger ones are sliced and finished
#: depth-first, so peak scratch is about depth x this many words while
#: each kernel call still carries enough pairs to amortise dispatch
FRONTIER_BUDGET_WORDS = 1 << 16

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Ragged-row offsets (length ``len(lens) + 1``) from row lengths."""
    off = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return off


def _select_rows(off: np.ndarray, keep: np.ndarray, *flats: np.ndarray):
    """Keep a subset of ragged rows: new offsets plus each masked flat."""
    lens = np.diff(off)
    mask = np.repeat(keep, lens)
    return (_offsets(lens[keep]), *(flat[mask] for flat in flats))


def _task_rows(off: np.ndarray, t0: int, t1: int, *flats: np.ndarray):
    """Rows ``t0 .. t1 - 1`` of ragged arrays: rebased offsets plus views,
    so a slice's kernels touch only the tasks its pairs belong to."""
    lo, hi = off[t0], off[t1]
    rebased = off[t0:t1 + 1] - lo if t0 else off[:t1 + 1]
    return (rebased, *(flat[lo:hi] for flat in flats))


def _slices(work: np.ndarray, budget: int):
    """Consecutive ``(lo, hi, words)`` cuts of ``work`` whose sums fit
    ``budget``; an item heavier than the budget is a slice of its own."""
    csum = np.cumsum(work)
    n = len(csum)
    lo, base = 0, 0
    while lo < n:
        hi = max(int(csum.searchsorted(base + budget, side="right")),
                 lo + 1)
        top = int(csum[hi - 1])
        yield lo, hi, top - base
        lo, base = hi, top


def _level_slices(task_words: np.ndarray, pairs_per_task: np.ndarray,
                  pair_words: np.ndarray, budget: int):
    """Cuts of a level's (task, candidate) pairs, whose work is the
    task's row words plus the candidate's; a level that fits the budget
    is one slice, priced without materialising per-pair work."""
    if len(pair_words) == 0:
        return []
    total = int(task_words @ pairs_per_task) + int(pair_words.sum())
    if total <= budget:
        return [(0, len(pair_words), total)]
    return _slices(np.repeat(task_words, pairs_per_task) + pair_words,
                   budget)


def decode_bitmap_rows(off: np.ndarray, idx: np.ndarray, val: np.ndarray,
                       word_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode ragged truncated-bitmap rows to ragged sorted vertex rows.

    One ``unpackbits`` over the whole level replaces a per-task
    ``BitmapSet.vertices()`` call.  Bit ``i`` of the flat uint64 view
    belongs to word ``i // 64``; only the low ``word_bits`` bits of a
    word are ever set, so the in-word position is the vertex residue.
    """
    num_rows = len(off) - 1
    if len(val) == 0:
        return _EMPTY_I64, np.zeros(num_rows, dtype=np.int64)
    flags = np.unpackbits(np.ascontiguousarray(val).view(np.uint8),
                          bitorder="little")
    nz = np.flatnonzero(flags)
    word, bit = nz >> 6, nz & 63
    verts = idx[word] * word_bits + bit
    pops = np.bitwise_count(val).astype(np.int64)
    csum = np.zeros(len(pops) + 1, dtype=np.int64)
    np.cumsum(pops, out=csum[1:])
    return verts, csum[off[1:]] - csum[off[:-1]]


def csr_frontier_count(engine, metrics, adj_off, adj_val, idx_off, idx_val,
                       roots, p: int, q: int, *, warps: int = 1,
                       budget: int | None = None) -> tuple[int, int]:
    """Count over CSR candidate sets, one kernel call per level slice.

    A level holds, per task, its CR row (common right neighbours) and
    its CL row (remaining left candidates).  Returns ``(total,
    peak_words)``; ``budget`` overrides :data:`FRONTIER_BUDGET_WORDS`.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if p == 1:
        return int(comb_sum(row_lengths(adj_off, roots), q)), 0
    budget = FRONTIER_BUDGET_WORDS if budget is None else budget
    adj_lens, idx_lens = np.diff(adj_off), np.diff(idx_off)
    total, peak = 0, 0

    def expand(depth, held, cr_off, cr_val, cl_off, cl_val):
        nonlocal total, peak
        held += len(cr_val) + len(cl_val)
        last = depth + 1 == p
        cand_lens = np.diff(cl_off)
        task_of = np.repeat(np.arange(len(cand_lens), dtype=np.int64),
                            cand_lens)
        row_words = np.diff(cr_off) if last else np.diff(cr_off) + cand_lens
        pair_words = adj_lens[cl_val] if last \
            else adj_lens[cl_val] + idx_lens[cl_val]
        for lo, hi, staged in _level_slices(row_words, cand_lens,
                                            pair_words, budget):
            t0, t1 = int(task_of[lo]), int(task_of[hi - 1]) + 1
            ids = task_of[lo:hi] - t0 if t0 else task_of[lo:hi]
            cand = cl_val[lo:hi]
            s_cr_off, s_cr_val = _task_rows(cr_off, t0, t1, cr_val)
            if last:
                sizes = engine.intersect_pairs_sizes(
                    s_cr_off, s_cr_val, ids, adj_off, adj_val, cand,
                    metrics, warps=warps)
                total += comb_sum(sizes, q)
                peak = max(peak, held + staged)
                continue
            s_cl_off, s_cl_val = _task_rows(cl_off, t0, t1, cl_val)
            ncr_off, ncr_val = engine.intersect_pairs(
                s_cr_off, s_cr_val, ids, adj_off, adj_val, cand,
                metrics, warps=warps)
            keep = np.diff(ncr_off) >= q
            if not keep.any():
                peak = max(peak, held + staged + len(ncr_val))
                continue
            ncl_off, ncl_val = engine.intersect_pairs(
                s_cl_off, s_cl_val, ids[keep], idx_off, idx_val,
                cand[keep], metrics, warps=warps)
            peak = max(peak, held + staged + len(ncr_val) + len(ncl_val))
            live = np.diff(ncl_off) >= p - depth - 1
            if live.any():
                kept_off, kept_val = _select_rows(ncr_off, keep, ncr_val)
                child = (*_select_rows(kept_off, live, kept_val),
                         *_select_rows(ncl_off, live, ncl_val))
                # only the child level stays live down its subtree
                del ncr_off, ncr_val, ncl_off, ncl_val, kept_val
                expand(depth + 1, held, *child)

    root_work = adj_lens[roots] + idx_lens[roots]
    for lo, hi, _ in _slices(root_work, budget):
        cr_val, cr_lens = gather_rows(adj_val, adj_off, roots[lo:hi])
        cl_val, cl_lens = gather_rows(idx_val, idx_off, roots[lo:hi])
        expand(1, 0, _offsets(cr_lens), cr_val, _offsets(cl_lens), cl_val)
    return total, peak


def htb_frontier_count(engine, metrics, htb1, htb2, roots, p: int, q: int,
                       *, warps: int = 1,
                       budget: int | None = None) -> tuple[int, int]:
    """Count over truncated-bitmap candidate sets, one call per slice.

    ``htb1`` holds the anchored adjacency bitmaps (the CR side),
    ``htb2`` the rank-filtered two-hop bitmaps (the CL side) — the same
    pair the per-root HTB kernel walks.  Returns ``(total,
    peak_words)`` with footprints measured in stored (idx, val) word
    pairs, matching the recursion's 2-words-per-stored-word rule;
    ``budget`` overrides :data:`FRONTIER_BUDGET_WORDS`.
    """
    roots = np.asarray(roots, dtype=np.int64)
    word_bits = htb1.word_bits
    if p == 1:
        flat_val, lens = gather_rows(htb1.val, htb1.off, roots)
        pops = np.bitwise_count(flat_val).astype(np.int64)
        csum = np.zeros(len(pops) + 1, dtype=np.int64)
        np.cumsum(pops, out=csum[1:])
        ends = np.cumsum(lens)
        return int(comb_sum(csum[ends] - csum[ends - lens], q)), 0
    budget = FRONTIER_BUDGET_WORDS if budget is None else budget
    adj_lens, idx_lens = np.diff(htb1.off), np.diff(htb2.off)
    total, peak = 0, 0

    def expand(depth, held, cr_off, cr_idx, cr_val, cl_off, cl_idx, cl_val):
        nonlocal total, peak
        held += 2 * (len(cr_idx) + len(cl_idx))
        last = depth + 1 == p
        cand, cand_lens = decode_bitmap_rows(cl_off, cl_idx, cl_val,
                                             word_bits)
        task_of = np.repeat(np.arange(len(cl_off) - 1, dtype=np.int64),
                            cand_lens)
        row_words = 2 * (np.diff(cr_off) if last
                         else np.diff(cr_off) + np.diff(cl_off))
        pair_words = 2 * (adj_lens[cand] if last
                          else adj_lens[cand] + idx_lens[cand])
        for lo, hi, staged in _level_slices(row_words, cand_lens,
                                            pair_words, budget):
            t0, t1 = int(task_of[lo]), int(task_of[hi - 1]) + 1
            ids = task_of[lo:hi] - t0 if t0 else task_of[lo:hi]
            rows = cand[lo:hi]
            s_cr = _task_rows(cr_off, t0, t1, cr_idx, cr_val)
            if last:
                counts = engine.bitmap_pairs_counts(
                    *s_cr, ids, htb1, rows, metrics, warps=warps)
                total += comb_sum(counts, q)
                peak = max(peak, held + staged)
                continue
            s_cl = _task_rows(cl_off, t0, t1, cl_idx, cl_val)
            ncr_off, ncr_idx, ncr_val, ncr_counts = engine.bitmap_pairs(
                *s_cr, ids, htb1, rows, metrics, warps=warps)
            keep = ncr_counts >= q
            if not keep.any():
                peak = max(peak, held + staged + 2 * len(ncr_idx))
                continue
            ncl_off, ncl_idx, ncl_val, ncl_counts = engine.bitmap_pairs(
                *s_cl, ids[keep], htb2, rows[keep], metrics, warps=warps)
            peak = max(peak, held + staged
                       + 2 * (len(ncr_idx) + len(ncl_idx)))
            live = ncl_counts >= p - depth - 1
            if live.any():
                kept_off, *kept = _select_rows(ncr_off, keep, ncr_idx,
                                               ncr_val)
                child = (*_select_rows(kept_off, live, *kept),
                         *_select_rows(ncl_off, live, ncl_idx, ncl_val))
                # only the child level stays live down its subtree
                del ncr_off, ncr_idx, ncr_val, ncl_off, ncl_idx, ncl_val, kept
                expand(depth + 1, held, *child)

    root_work = 2 * (adj_lens[roots] + idx_lens[roots])
    for lo, hi, _ in _slices(root_work, budget):
        cr_pos, cr_lens = row_positions(htb1.off, roots[lo:hi])
        cl_pos, cl_lens = row_positions(htb2.off, roots[lo:hi])
        expand(1, 0, _offsets(cr_lens), htb1.idx[cr_pos], htb1.val[cr_pos],
               _offsets(cl_lens), htb2.idx[cl_pos], htb2.val[cl_pos])
    return total, peak


# ---------------------------------------------------------------------------
# root shards: what a ``par`` worker runs
#
# The sharded drivers ship these module-level functions to the worker
# pool inside a closure over the per-(session, layer, k) tables, so the
# pool's token cache keeps the tables resident across calls and only the
# shard's root ids travel with each task.  Every worker runs the native
# batch kernels, whatever engine the parent holds.


def _native_engine():
    from repro.engine.native import NativeBackend

    return NativeBackend()


def htb_shard_count(htb1, htb2, roots, p: int, q: int, warps: int = 1,
                    budget: int | None = None) -> tuple[int, int]:
    """:func:`htb_frontier_count` over one root shard on the native engine."""
    engine = _native_engine()
    return htb_frontier_count(engine, engine.new_metrics(), htb1, htb2,
                              roots, p, q, warps=warps, budget=budget)


def csr_shard_count(pack, roots, p: int, q: int, warps: int = 1,
                    budget: int | None = None) -> tuple[int, int]:
    """:func:`csr_frontier_count` over one root shard of a native pack."""
    engine = _native_engine()
    return csr_frontier_count(engine, engine.new_metrics(),
                              pack.adj_offsets, pack.adj_values,
                              pack.idx_offsets, pack.idx_values,
                              roots, p, q, warps=warps, budget=budget)


def merge_shard_counts(parts) -> tuple[int, int]:
    """Exact total and largest peak over per-shard ``(total, peak)``."""
    return (sum(total for total, _ in parts),
            max((peak for _, peak in parts), default=0))
