"""Hierarchical Truncated Bitmap (HTB) — §V-A of the paper.

HTB stores one truncated bitmap per vertex, concatenated into three flat
arrays (Fig. 4(b)):

* ``off``  — per-vertex starting position into ``idx``/``val``;
* ``idx``  — word indices (the range index used to narrow the search);
* ``val``  — 32-bit masks holding up to 32 neighbours each.

Intersection is two-phase (Example 7): binary-search the shorter ``idx``
range against the longer one (few transactions — ``idx`` is ~32x smaller
than the raw adjacency), then AND the matched ``val`` words.  The device
variant charges transactions/ops into :class:`KernelMetrics` through the
same coalescing model the CSR baseline uses, so Fig. 4's transaction
comparison is measured, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.twohop import TwoHopIndex
from repro.gpu.device import DeviceSpec
from repro.gpu.intersect import _lockstep_binary_search
from repro.gpu.memory import charge_gather, charge_stream
from repro.gpu.metrics import KernelMetrics
from repro.gpu.simt import record_work
from repro.htb.bitmap import WORD_BITS, and_aligned, cardinality, decode, encode, popcount

__all__ = ["HTB", "build_htb_from_csr", "build_htb_from_rows",
           "htb_from_graph", "htb_from_two_hop",
           "intersect_device", "intersect_exact", "BitmapSet"]


@dataclass(frozen=True)
class BitmapSet:
    """A candidate set (CL/CR) held in truncated-bitmap form."""

    idx: np.ndarray
    val: np.ndarray

    @classmethod
    def from_vertices(cls, vertices: np.ndarray) -> "BitmapSet":
        return cls(*encode(vertices))

    def vertices(self) -> np.ndarray:
        """Decode back to a sorted id array."""
        return decode(self.idx, self.val)

    def count(self) -> int:
        """Number of vertices in the set (popcount sum, memoised — the
        word arrays are never mutated after construction)."""
        cached = self.__dict__.get("_count")
        if cached is None:
            # direct __dict__ write: the dataclass is frozen, but only
            # against __setattr__
            self.__dict__["_count"] = cached = cardinality(self.val)
        return cached

    @property
    def num_words(self) -> int:
        return int(len(self.idx))

    def is_empty(self) -> bool:
        return len(self.idx) == 0


@dataclass(frozen=True)
class HTB:
    """Per-vertex truncated bitmaps over a whole layer (Off/Idx/Val)."""

    off: np.ndarray
    idx: np.ndarray
    val: np.ndarray
    word_bits: int = WORD_BITS

    @property
    def num_vertices(self) -> int:
        return len(self.off) - 1

    def __getstate__(self) -> dict:
        # the memoised per-vertex views and offset list rebuild on
        # demand; a pickle (a worker-pool shipment) carries the arrays only
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def view(self, vertex: int) -> BitmapSet:
        """The (idx, val) slice for ``vertex`` — zero-copy views, memoised
        per vertex (the flat arrays are immutable after construction)."""
        cache = self.__dict__.setdefault("_views", {})
        got = cache.get(vertex)
        if got is None:
            lo, hi = self.off[vertex], self.off[vertex + 1]
            cache[vertex] = got = BitmapSet(self.idx[lo:hi],
                                            self.val[lo:hi])
        return got

    def words_of(self, vertex: int) -> int:
        """Number of stored words for ``vertex``."""
        return int(self.off[vertex + 1] - self.off[vertex])

    def list_of(self, vertex: int) -> np.ndarray:
        """Decoded sorted neighbour list of ``vertex``."""
        return self.view(vertex).vertices()

    def base_word(self, vertex: int) -> int:
        """Word offset of the vertex's slice inside the flat arrays; used
        by the transaction model to align gathers."""
        offs = self.__dict__.get("_off_list")
        if offs is None:
            self.__dict__["_off_list"] = offs = self.off.tolist()
        return offs[vertex]

    @property
    def total_words(self) -> int:
        return int(len(self.idx))

    @property
    def nbytes(self) -> int:
        """Simulated device footprint: off + idx + val as 4-byte words."""
        return 4 * (len(self.off) + len(self.idx) + len(self.val))

    def one_block_count(self) -> int:
        """Number of stored words holding exactly one vertex (1-blocks) —
        the quantity Border minimises (§V-B)."""
        if len(self.val) == 0:
            return 0
        return int(np.count_nonzero(popcount(self.val) == 1))

    def density(self) -> float:
        """Mean vertices per stored word (higher = more compact)."""
        if len(self.val) == 0:
            return 0.0
        return cardinality(self.val) / len(self.val)


def build_htb_from_csr(offsets: np.ndarray, values: np.ndarray,
                       word_bits: int = WORD_BITS) -> HTB:
    """Build an HTB from a whole CSR layer in one vectorised pass.

    Combined ``row * span + word`` keys let a single ``unique`` find the
    non-zero words of every row at once (sorted row-major, exactly the
    order per-row :func:`repro.htb.bitmap.encode` calls would emit), and
    one ``bitwise_or.at`` scatter ORs all neighbour bits into them.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    values = np.asarray(values, dtype=np.int64)
    if len(values) == 0:
        return HTB(off=np.zeros(n + 1, dtype=np.int64),
                   idx=np.empty(0, dtype=np.int64),
                   val=np.empty(0, dtype=np.uint64), word_bits=word_bits)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    words = values // word_bits
    bits = (values % word_bits).astype(np.uint64)
    span = int(words.max()) + 1
    uniq, inverse = np.unique(rows * span + words, return_inverse=True)
    val = np.zeros(len(uniq), dtype=np.uint64)
    np.bitwise_or.at(val, inverse, np.uint64(1) << bits)
    word_rows = uniq // span
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(word_rows, minlength=n), out=off[1:])
    return HTB(off=off, idx=uniq - word_rows * span, val=val,
               word_bits=word_bits)


def build_htb_from_rows(rows: list[np.ndarray],
                        word_bits: int = WORD_BITS) -> HTB:
    """Build an HTB from per-vertex sorted neighbour lists."""
    lens = np.fromiter((len(r) for r in rows), dtype=np.int64,
                       count=len(rows))
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    values = (np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
              if off[-1] else np.empty(0, dtype=np.int64))
    return build_htb_from_csr(off, values, word_bits)


def htb_from_graph(graph: BipartiteGraph, layer: str,
                   word_bits: int = WORD_BITS) -> HTB:
    """HTB over the 1-hop adjacency lists of ``layer``."""
    if layer == LAYER_U:
        return build_htb_from_csr(graph.u_offsets, graph.u_neighbors,
                                  word_bits)
    return build_htb_from_csr(graph.v_offsets, graph.v_neighbors, word_bits)


def htb_from_two_hop(index: TwoHopIndex, word_bits: int = WORD_BITS) -> HTB:
    """HTB over precomputed N2^k lists."""
    return build_htb_from_csr(index.offsets, index.neighbors, word_bits)


def intersect_device(keys: BitmapSet, lst: BitmapSet,
                     spec: DeviceSpec, metrics: KernelMetrics,
                     warps: int = 1,
                     base_word: int = 0,
                     keys_in_shared: bool = True,
                     record_slots: bool = True) -> BitmapSet:
    """Simulated-device HTB intersection (Example 7).

    Phase 1: lock-step binary search of the keys' ``idx`` words inside the
    list's ``idx`` range (global-memory gathers, charged per distinct
    transaction segment).  Phase 2: gather the matched ``val`` words and
    AND them against the keys' masks (one bitwise op per matched word).
    ``keys`` model CL[l-1]/CR[l-1], which GBC stages in shared memory; set
    ``keys_in_shared=False`` to model a global-resident candidate set.
    """
    metrics.intersection_calls += 1
    if keys.is_empty() or lst.is_empty():
        return BitmapSet(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.uint64))
    nk = len(keys.idx)
    if keys_in_shared:
        metrics.shared_accesses += 2 * nk          # read idx + val words
    else:
        charge_stream(metrics, spec, 2 * nk)
    if record_slots:
        record_work(metrics, spec, nk, warps)

    # phase 1: narrow the range over the Idx array
    mask = _lockstep_binary_search(keys.idx, lst.idx, spec, metrics, base_word)
    if not mask.any():
        return BitmapSet(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.uint64))

    # phase 2: gather matched Val words and bitwise-AND
    pos = np.searchsorted(lst.idx, keys.idx[mask])
    charge_gather(metrics, spec, pos + base_word + len(lst.idx))
    out_val = keys.val[mask] & lst.val[pos]
    metrics.bitwise_ops += int(mask.sum())
    keep = out_val != 0
    out_idx = keys.idx[mask][keep]
    out_val = out_val[keep]
    if len(out_idx):
        metrics.results_written += len(out_idx)
        if keys_in_shared:
            metrics.shared_accesses += 2 * len(out_idx)
        else:
            charge_stream(metrics, spec, 2 * len(out_idx))
    return BitmapSet(out_idx, out_val)


def intersect_exact(a: BitmapSet, b: BitmapSet) -> BitmapSet:
    """Reference intersection without device accounting."""
    return BitmapSet(*and_aligned(a.idx, a.val, b.idx, b.val))
