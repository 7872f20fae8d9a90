"""GBL — the naive GPU baseline of §III-B, on the simulated device.

One thread block per root (strided ``i += gridDim`` assignment), pure DFS
backtracking, and parallel binary search over CSR adjacency lists for both
candidate-set updates.  Every binary-search probe gathers from global
memory, so transaction counts blow up with list length and tree depth —
the inefficiency HTB was designed against (Example 5).
"""

from __future__ import annotations

import time
from math import comb

import numpy as np

from repro.core.counts import BicliqueQuery, DeviceRunResult
from repro.core.device_common import (
    assign_roots_to_blocks,
    comb_sum,
    prepare_device_inputs,
    resolve_native_pack,
)
from repro.core.frontier import (
    csr_frontier_count,
    csr_shard_count,
    merge_shard_counts,
)
from repro.graph.csr import row_lengths
from repro.engine.base import KernelBackend, resolve_backend
from repro.gpu.costmodel import effective_cycles, kernel_seconds
from repro.plan.registry import CostSignals, MethodSpec, register_method
from repro.gpu.device import DeviceSpec, rtx_3090
from repro.gpu.metrics import KernelMetrics
from repro.gpu.workqueue import simulate_blocks
from repro.graph.bipartite import BipartiteGraph, LAYER_U

__all__ = ["gbl_count"]


def _gbl_root_kernel(inputs, root: int, spec: DeviceSpec,
                     engine: KernelBackend,
                     pack=None) -> tuple[int, KernelMetrics]:
    """DFS search tree of one root with binary-search intersections.

    Each recursion level submits its whole frontier (every candidate's
    CR update, then the survivors' CL updates) through the engine's
    batch entry points — one kernel call per level instead of one per
    candidate, the launch shape of the paper's kernels.  The default
    batch implementations loop the scalar kernel with identical
    arguments, so simulated metrics are unchanged.
    """
    g = inputs.graph
    index = inputs.index
    if pack is not None:
        adj_off, adj_val = pack.adj_offsets, pack.adj_values
        idx_off, idx_val = pack.idx_offsets, pack.idx_values
    else:
        adj_off, adj_val = g.u_offsets, g.u_neighbors
        idx_off, idx_val = index.offsets, index.neighbors
    p, q = inputs.p, inputs.q
    warps = spec.warps_per_block
    metrics = engine.new_metrics()

    cr0 = g.neighbors(LAYER_U, root)
    cl0 = index.of(root)
    # initial coalesced loads of N(root) and N2^q(root)
    engine.charge_stream(metrics, len(cr0) + len(cl0))
    total = 0
    if p == 1:
        return comb(len(cr0), q), metrics

    def rec(depth: int, cl: np.ndarray, cr: np.ndarray) -> None:
        nonlocal total
        if depth + 1 == p:
            # leaf level: only intersection sizes feed the binomial sum
            sizes = engine.intersect_sizes(cr, adj_off, adj_val, cl,
                                           metrics, warps=warps)
            total += comb_sum(sizes, q)
            return
        new_crs = engine.intersect_many(cr, adj_off, adj_val, cl,
                                        metrics, warps=warps)
        keep = [j for j, arr in enumerate(new_crs) if len(arr) >= q]
        if not keep:
            return
        new_cls = engine.intersect_many(cl, idx_off, idx_val, cl[keep],
                                        metrics, warps=warps)
        need = p - depth - 1
        for j, new_cl in zip(keep, new_cls):
            if len(new_cl) < need:
                continue
            rec(depth + 1, new_cl, new_crs[j])

    rec(1, cl0, cr0)
    return total, metrics


def _gbl_chunk_kernel(inputs, positions, spec: DeviceSpec,
                      engine: KernelBackend, pack=None
                      ) -> tuple[int, list[float], KernelMetrics]:
    """Run the per-root kernel over a chunk of root positions."""
    total = 0
    cycles: list[float] = []
    agg = KernelMetrics()
    for pos in positions:
        got, metrics = _gbl_root_kernel(inputs, int(inputs.roots[pos]),
                                        spec, engine, pack)
        total += got
        cycles.append(effective_cycles(metrics, spec))
        agg.merge(metrics)
    return total, cycles, agg


def gbl_count(graph: BipartiteGraph, query: BicliqueQuery,
              spec: DeviceSpec | None = None,
              layer: str | None = None,
              num_blocks: int | None = None,
              backend: KernelBackend | str | None = None,
              workers: int | None = None,
              session=None) -> DeviceRunResult:
    """Count (p, q)-bicliques with the GPU baseline on the simulator.

    ``session=`` (a :class:`repro.query.GraphSession`) serves the
    priority order and two-hop index from the per-graph caches.  With
    ``backend="par"`` (or ``workers=``) each worker runs the native
    frontier kernels over one shard of the roots.
    """
    spec = spec or rtx_3090()
    engine = resolve_backend(backend, spec, workers=workers)
    wall0 = time.perf_counter()
    inputs = prepare_device_inputs(graph, query, layer, session=session)
    pack = resolve_native_pack(engine, inputs, session=session)
    blocks = num_blocks or spec.blocks_per_launch

    weights = row_lengths(inputs.index.offsets,
                          inputs.roots).astype(np.float64)
    per_root_cycles = [0.0] * len(inputs.roots)
    p, q, warps = inputs.p, inputs.q, spec.warps_per_block
    if engine.parallel:
        # one native frontier per root shard over the (pool-resident)
        # native pack; shard totals sum exactly
        def shard(roots):
            return csr_shard_count(pack, roots, p, q, warps)

        agg = engine.new_metrics()
        total, _ = merge_shard_counts(
            engine.map_roots(shard, inputs.roots, weights))
    elif engine.frontier:
        # hybrid DFS-BFS traversal: one pairwise kernel call per search
        # level, or per budget slice of a larger one (identical counts,
        # none of the per-node dispatch the recursion pays)
        if pack is not None:
            adj = (pack.adj_offsets, pack.adj_values)
            idx = (pack.idx_offsets, pack.idx_values)
        else:
            adj = (inputs.graph.u_offsets, inputs.graph.u_neighbors)
            idx = (inputs.index.offsets, inputs.index.neighbors)
        agg = engine.new_metrics()
        total, _ = csr_frontier_count(
            engine, agg, adj[0], adj[1], idx[0], idx[1], inputs.roots,
            p, q, warps=warps)
    else:
        total, per_root_cycles, agg = _gbl_chunk_kernel(
            inputs, range(len(inputs.roots)), spec, engine, pack)

    if engine.instrumented:
        assignment = assign_roots_to_blocks(inputs.roots, weights, blocks,
                                            "interleave")
        costs = [[per_root_cycles[i] for i in blk] for blk in assignment]
        sched = simulate_blocks(costs, spec, stealing=False)
    else:
        # an uninstrumented engine has no per-root cycle profile (all
        # costs are zero, or roots ran level-batched), so there is no
        # schedule to simulate
        sched = simulate_blocks([], spec, stealing=False)

    return DeviceRunResult(
        algorithm="GBL",
        query=query,
        count=total,
        wall_seconds=time.perf_counter() - wall0,
        anchored_layer=inputs.anchored_layer,
        metrics=agg,
        makespan_cycles=sched.makespan_cycles,
        device_seconds=spec.seconds(sched.makespan_cycles),
        steals=sched.steals,
        breakdown={
            "prepare_seconds": inputs.prepare_seconds,
            "imbalance": sched.imbalance,
            "utilization": agg.utilization,
        },
        backend=engine.name,
        backend_instrumented=engine.instrumented,
    )


def _predicted_seconds(signals: CostSignals) -> float:
    """GBL on the simulated device prices through the SIMT cost model:
    per-element binary-search intersections make roughly one global
    transaction per comparison and leave most warp lanes idle.  On the
    uninstrumented engines its headline is host wall time — the same
    enumeration as BCL plus the device-bookkeeping overhead."""
    if signals.backend == "sim":
        metrics = KernelMetrics(
            global_transactions=int(signals.comparisons) + 1,
            comparisons=int(signals.comparisons * 2),
            alu_ops=int(signals.comparisons),
        )
        metrics.record_slots(active=1, total=4)      # sparse warp lanes
        return kernel_seconds(metrics, signals.device)
    engine = signals.device_engine
    overhead = GBL_NATIVE_OVERHEAD if engine == "native" \
        else GBL_HOST_OVERHEAD
    enum = overhead * signals.enum_seconds(signals.merge_calls,
                                           signals.comparisons, engine)
    return signals.priority_prepare_seconds() + signals.sharded(enum, engine)


#: fast-backend wall overhead of the device bookkeeping vs plain BCL
GBL_HOST_OVERHEAD = 1.25
#: native-backend overhead: frontier batching amortises the per-call
#: bookkeeping across each level's kernel submission, but every level
#: still materialises CSR rows where GBC ANDs bitmap words (median
#: measured ratio over the tiny and bench stand-ins)
GBL_NATIVE_OVERHEAD = 1.5

register_method(MethodSpec(
    name="GBL",
    runner=gbl_count,
    accepts=("spec", "layer", "backend", "workers", "session"),
    instrumented_metrics=True,
    device_model=True,
    prepared_kinds=("wedges", "order", "two_hop", "native"),
    cost=_predicted_seconds,
    order=40,
    summary="naive GPU port: binary-search intersections (§III-B)",
))
