"""Shared machinery for the simulated-device counters (GBL and GBC).

Both algorithms follow Algorithm 1's host-side recipe: anchor a layer,
rank vertices by Definition-2 priority, materialise the rank-filtered
N2^q index, filter unpromising roots, then hand each root's search tree
to a thread block.  What differs is the per-root kernel (CSR binary
search + pure DFS for GBL; HTB + hybrid DFS-BFS for GBC) and the block
assignment policy — which is exactly the split this module encodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, anchored_view
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.priority import priority_index
from repro.graph.twohop import TwoHopIndex

__all__ = ["DeviceInputs", "prepare_device_inputs", "assign_roots_to_blocks",
           "comb_sum", "resolve_native_pack", "BALANCE_STRATEGIES"]

BALANCE_STRATEGIES = ("none", "pre", "runtime", "joint")


def comb_sum(sizes: np.ndarray, k: int) -> int:
    """Exact ``sum(C(s, k) for s in sizes)`` over a leaf frontier.

    The search-leaf contribution of a whole batch: sizes below ``k``
    contribute zero, exactly like the per-candidate ``comb`` calls they
    replace.  A small lookup table vectorises the common case; when the
    largest binomial could overflow a summed int64, the sum falls back
    to Python's arbitrary-precision integers — counts stay exact, which
    the golden harness asserts bit-for-bit.
    """
    if len(sizes) == 0:
        return 0
    top = int(sizes.max())
    if top < k:
        return 0
    table = [comb(s, k) for s in range(top + 1)]
    if table[top] < (1 << 62) // len(sizes):
        lut = np.asarray(table, dtype=np.int64)
        return int(lut[sizes].sum())
    return sum(table[s] for s in sizes.tolist())


def resolve_native_pack(engine, inputs: "DeviceInputs", session=None):
    """The CSR pack a batch-kernel engine runs over, or ``None``.

    Engines that declare ``wants_pack`` (the native backend) receive a
    :class:`repro.engine.native.NativePack`: from the session's
    prepared-state cache when one is supplied (built once per
    (layer, k), the ``native:<layer>:<k>`` plan requirement), otherwise
    packed ad hoc from the freshly prepared inputs.  Other engines get
    ``None`` and the counters index the graph arrays directly.
    """
    if not getattr(engine, "wants_pack", False):
        return None
    if session is not None:
        return session.native_pack(inputs.anchored_layer, inputs.q)
    from repro.engine.native import build_native_pack

    return build_native_pack(inputs.graph, inputs.index,
                             inputs.anchored_layer, inputs.q)


@dataclass
class DeviceInputs:
    """Host-side preprocessing products shared by GBL and GBC."""

    graph: BipartiteGraph          # anchored view (U is the selected layer)
    p: int
    q: int
    anchored_layer: str
    order: np.ndarray              # roots in priority order (high -> low)
    rank: np.ndarray
    index: TwoHopIndex             # rank-filtered N2^q
    roots: np.ndarray              # promising roots, in priority order
    prepare_seconds: float


def prepare_device_inputs(graph: BipartiteGraph, query: BicliqueQuery,
                          layer: str | None = None,
                          session=None) -> DeviceInputs:
    """Anchor, rank, build the 2-hop index and filter unpromising roots.

    With a :class:`repro.query.GraphSession` the order/rank/index come
    from the session's caches (built at most once per anchored layer and
    k); only the cheap per-query root filter runs every time.  The
    structures are identical either way — the session derives them from
    one shared wedge pass instead of enumerating wedges afresh.
    """
    t0 = time.perf_counter()
    g, p, q, anchored = anchored_view(graph, query, layer)
    if session is not None:
        session.check_owns(graph)
        g = session.anchored(anchored)
        order = session.priority_order(anchored, q)
        rank = session.priority_rank(anchored, q)
        index = session.two_hop_index(anchored, q)
        session.stats.prepare_calls += 1
    else:
        order, rank, index = priority_index(g, LAYER_U, q)
    order = np.asarray(order, dtype=np.int64)
    promising = np.diff(g.u_offsets)[order] >= q
    if p > 1:
        promising &= np.diff(index.offsets)[order] >= p - 1
    return DeviceInputs(
        graph=g, p=p, q=q, anchored_layer=anchored,
        order=order, rank=rank, index=index,
        roots=order[promising],
        prepare_seconds=time.perf_counter() - t0,
    )


def assign_roots_to_blocks(roots: np.ndarray,
                           weights: np.ndarray,
                           num_blocks: int,
                           strategy: str) -> list[list[int]]:
    """Distribute root indices (positions into ``roots``) over blocks.

    * ``none`` / ``runtime`` — contiguous equal-count chunks in priority
      order (the naive split; ``runtime`` later adds stealing on top).
    * ``pre`` / ``joint`` — the paper's pre-runtime edge-oriented policy:
      greedy weighted assignment (weight = the root's number of
      second-level search-tree vertices) to the currently lightest block,
      heaviest roots first.
    * ``interleave`` — GBL's ``i += gridDim`` striding (§III-B).
    """
    from repro.balance.preruntime import (
        contiguous_split,
        interleaved_split,
        weighted_greedy_split,
    )

    n = len(roots)
    if n == 0:
        return [[] for _ in range(num_blocks)]
    if strategy in ("none", "runtime"):
        return contiguous_split(n, num_blocks)
    if strategy == "interleave":
        return interleaved_split(n, num_blocks)
    if strategy in ("pre", "joint"):
        return weighted_greedy_split(np.asarray(weights), num_blocks)
    raise ValueError(f"unknown balance strategy {strategy!r}; "
                     f"expected one of {BALANCE_STRATEGIES} or 'interleave'")
