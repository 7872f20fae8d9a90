"""BCL — the state-of-the-art CPU algorithm of Yang et al. [53] (§III-A).

Backtracking enumeration anchored on one layer: partial result ``L`` grows
one vertex at a time from the candidate set ``CL`` (mutual 2-hop
neighbours sharing >= q common neighbours), while ``CR`` (common 1-hop
neighbours) shrinks by intersection; reaching |L| = p contributes
C(|CR|, q) bicliques.  Duplicate suppression uses the vertex priority of
Definition 2: the 2-hop index only stores lower-priority (higher-rank)
neighbours, so each L is generated exactly once in priority order.

The Fig. 1(b) breakdown (wall time and comparison counts split into the
2-hop candidate intersections — ``comp_s``: CL updates + N2^q
construction — and the 1-hop intersections — ``comp_h``: CR updates, with
everything else under ``other``) is *opt-in*: it runs by default on the
instrumented simulated backend, and is compiled out entirely when the
caller only wants a count (``backend="fast"`` or ``instrument=False``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, CountResult, anchored_view
from repro.engine.base import KernelBackend, resolve_backend
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.priority import priority_index
from repro.graph.twohop import TwoHopIndex
from repro.plan.registry import CostSignals, MethodSpec, register_method

__all__ = ["bcl_count", "bcl_per_root_profile", "BCLProfile"]


@dataclass
class BCLProfile:
    """Per-run instrumentation of BCL (feeds Fig. 1(b) and BCLP)."""

    seconds_two_hop: float = 0.0     # "Comp. S": shared 2-hop searches
    seconds_one_hop: float = 0.0     # "Comp. H'": shared 1-hop searches
    seconds_total: float = 0.0
    comparisons_two_hop: int = 0
    comparisons_one_hop: int = 0
    per_root_seconds: list[float] = field(default_factory=list)
    per_root_counts: list[int] = field(default_factory=list)
    root_ids: list[int] = field(default_factory=list)

    @property
    def seconds_other(self) -> float:
        return max(self.seconds_total
                   - self.seconds_two_hop - self.seconds_one_hop, 0.0)

    def fraction_intersections(self) -> float:
        """Share of runtime spent searching shared 1-/2-hop neighbours."""
        if self.seconds_total <= 0:
            return 0.0
        return (self.seconds_two_hop + self.seconds_one_hop) / self.seconds_total


def _enumerate_root(graph: BipartiteGraph, index: TwoHopIndex,
                    root: int, p: int, q: int,
                    profile: BCLProfile, engine: KernelBackend,
                    instrument: bool) -> int:
    """Count all bicliques whose highest-priority U-vertex is ``root``."""
    cr0 = graph.neighbors(LAYER_U, root)
    if len(cr0) < q:
        return 0
    if p == 1:
        return comb(len(cr0), q)
    cl0 = index.of(root)
    if len(cl0) < p - 1:
        return 0
    total = 0
    cmp_cell = [0]

    def rec(depth: int, cl: np.ndarray, cr: np.ndarray) -> None:
        nonlocal total
        for u in cl:
            u = int(u)
            if instrument:
                t0 = time.perf_counter()
                cmp_cell[0] = 0
                new_cr = engine.merge(cr, graph.neighbors(LAYER_U, u),
                                      cmp_cell)
                profile.seconds_one_hop += time.perf_counter() - t0
                profile.comparisons_one_hop += cmp_cell[0]
            else:
                new_cr = engine.merge(cr, graph.neighbors(LAYER_U, u))
            if len(new_cr) < q:
                continue
            if depth + 1 == p:
                total += comb(len(new_cr), q)
                continue
            if instrument:
                t0 = time.perf_counter()
                cmp_cell[0] = 0
                new_cl = engine.merge(cl, index.of(u), cmp_cell)
                profile.seconds_two_hop += time.perf_counter() - t0
                profile.comparisons_two_hop += cmp_cell[0]
            else:
                new_cl = engine.merge(cl, index.of(u))
            if len(new_cl) < p - depth - 1:
                continue
            rec(depth + 1, new_cl, new_cr)

    rec(1, cl0, cr0)
    return total


def _prepare(graph: BipartiteGraph, query: BicliqueQuery,
             layer: str | None, profile: BCLProfile, session=None):
    """Anchor, rank, and build the rank-filtered 2-hop index (timed as
    2-hop search work, which is what it is).  A
    :class:`repro.query.GraphSession` serves order and index from its
    caches instead — identical structures, built at most once."""
    g, p, q, anchored = anchored_view(graph, query, layer)
    t0 = time.perf_counter()
    if session is not None:
        session.check_owns(graph)
        g = session.anchored(anchored)
        order = session.priority_order(anchored, q)
        index = session.two_hop_index(anchored, q)
    else:
        order, _, index = priority_index(g, LAYER_U, q)
    profile.seconds_two_hop += time.perf_counter() - t0
    return g, p, q, anchored, order, index


def _enumerate_chunk(g: BipartiteGraph, index: TwoHopIndex,
                     roots: list[int], p: int, q: int,
                     engine: KernelBackend, instrument: bool) -> BCLProfile:
    """Enumerate a chunk of roots into a fresh partial profile."""
    part = BCLProfile()
    for root in roots:
        r0 = time.perf_counter()
        got = _enumerate_root(g, index, root, p, q, part, engine, instrument)
        part.per_root_seconds.append(time.perf_counter() - r0)
        part.per_root_counts.append(got)
        part.root_ids.append(root)
    return part


def _run_roots(g: BipartiteGraph, index: TwoHopIndex, order,
               p: int, q: int, engine: KernelBackend, instrument: bool,
               profile: BCLProfile) -> int:
    """Enumerate every promising root into ``profile``; returns the count.

    On a parallel engine the promising roots are sharded over worker
    processes (weights: second-level sizes, the paper's edge-oriented
    proxy) and the partial profiles are scattered back into priority
    order, so per-root data and the total are independent of worker
    count and scheduling.
    """
    selected = [int(root) for root in order
                if not (p > 1 and index.size(int(root)) < p - 1)]

    if engine.parallel and selected:
        weights = np.asarray([index.size(r) for r in selected],
                             dtype=np.float64)
        n = len(selected)
        secs, cnts = [0.0] * n, [0] * n
        for idxs, part in engine.map_shards(
                lambda idxs: _enumerate_chunk(
                    g, index, [selected[i] for i in idxs], p, q,
                    engine, instrument),
                n, weights=weights):
            profile.seconds_one_hop += part.seconds_one_hop
            profile.seconds_two_hop += part.seconds_two_hop
            profile.comparisons_one_hop += part.comparisons_one_hop
            profile.comparisons_two_hop += part.comparisons_two_hop
            for pos, i in enumerate(idxs):
                secs[i] = part.per_root_seconds[pos]
                cnts[i] = part.per_root_counts[pos]
        profile.per_root_seconds.extend(secs)
        profile.per_root_counts.extend(cnts)
        profile.root_ids.extend(selected)
        return sum(cnts)

    part = _enumerate_chunk(g, index, selected, p, q, engine, instrument)
    profile.seconds_one_hop += part.seconds_one_hop
    profile.seconds_two_hop += part.seconds_two_hop
    profile.comparisons_one_hop += part.comparisons_one_hop
    profile.comparisons_two_hop += part.comparisons_two_hop
    profile.per_root_seconds.extend(part.per_root_seconds)
    profile.per_root_counts.extend(part.per_root_counts)
    profile.root_ids.extend(part.root_ids)
    return sum(part.per_root_counts)


def bcl_count(graph: BipartiteGraph, query: BicliqueQuery,
              layer: str | None = None,
              backend: KernelBackend | str | None = None,
              instrument: bool | None = None,
              workers: int | None = None,
              session=None) -> CountResult:
    """Run BCL and return the exact count.

    ``instrument`` controls the per-call Fig. 1(b) timers and comparison
    cells; it defaults to the backend's ``instrumented`` flag (on for the
    simulated engine, off for the fast one), so an uninstrumented run
    reports an empty breakdown but an identical count.  With the parallel
    engine (``backend="par"`` or ``workers=``) the promising roots are
    sharded over worker processes — the count is identical regardless.
    ``session=`` (a :class:`repro.query.GraphSession`) serves the
    priority order and two-hop index from the per-graph caches.
    """
    engine = resolve_backend(backend, workers=workers)
    if instrument is None:
        instrument = engine.instrumented
    profile = BCLProfile()
    start = time.perf_counter()
    g, p, q, anchored, order, index = _prepare(graph, query, layer, profile,
                                               session)
    total = _run_roots(g, index, order, p, q, engine, instrument, profile)
    profile.seconds_total = time.perf_counter() - start
    breakdown = {
        "comp_s_seconds": profile.seconds_two_hop,
        "comp_h_seconds": profile.seconds_one_hop,
        "other_seconds": profile.seconds_other,
        "intersection_fraction": profile.fraction_intersections(),
    } if instrument else {}
    extras = {
        "comparisons_two_hop": float(profile.comparisons_two_hop),
        "comparisons_one_hop": float(profile.comparisons_one_hop),
    } if instrument else {}
    return CountResult(
        algorithm="BCL",
        query=query,
        count=total,
        wall_seconds=profile.seconds_total,
        anchored_layer=anchored,
        breakdown=breakdown,
        extras=extras,
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


def bcl_per_root_profile(graph: BipartiteGraph, query: BicliqueQuery,
                         layer: str | None = None,
                         backend: KernelBackend | str | None = None,
                         instrument: bool | None = None,
                         workers: int | None = None,
                         session=None) -> BCLProfile:
    """Run BCL and return the full per-root profile (BCLP's input).

    Per-root wall times are always collected (they are the profile's
    purpose); the per-call breakdown follows ``instrument`` as in
    :func:`bcl_count`.
    """
    engine = resolve_backend(backend, workers=workers)
    if instrument is None:
        instrument = engine.instrumented
    profile = BCLProfile()
    start = time.perf_counter()
    g, p, q, _, order, index = _prepare(graph, query, layer, profile,
                                        session)
    _run_roots(g, index, order, p, q, engine, instrument, profile)
    profile.seconds_total = time.perf_counter() - start
    return profile


def _predicted_seconds(signals: CostSignals) -> float:
    """BCL: priority-ordered serial enumeration after the full prepare."""
    enum = signals.enum_seconds(signals.merge_calls, signals.comparisons)
    return signals.priority_prepare_seconds() + signals.sharded(enum)


register_method(MethodSpec(
    name="BCL",
    runner=bcl_count,
    accepts=("layer", "backend", "workers", "session"),
    cost=_predicted_seconds,
    order=20,
    summary="priority-ordered CPU state of the art (§III-A)",
))
