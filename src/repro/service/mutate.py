"""The ``serve-mutate-bench`` harness: incremental maintenance vs
rebuild-per-edit, plus a mixed read/write serving drive.

For each named graph the benchmark replays one deterministic toggle
stream two ways:

* **incremental** — a :class:`~repro.dynamic.DynamicGraphSession`
  tracking every benchmark shape applies the stream edit by edit, each
  tracked count maintained through the :mod:`repro.core.delta` rule
  (or a cutover recount when an edit lands on a hub pair);
* **rebuild-per-edit** — the pre-dynamic workflow: after every edit,
  rebuild the CSR graph from scratch, open a fresh
  :class:`~repro.query.GraphSession`, and recount every shape.

The rebuild arm is capped at ``rebuild_limit`` edits (it exists to set
a per-edit rate, which the cap does not change); over that shared
prefix the two arms' per-prefix counts are compared bit-for-bit and any
difference is reported as a mismatch — as with ``serve-bench``, a
speedup can never hide a correctness regression.  A final
full-recount check over the complete stream closes the loop.

When ``serve_spec`` carries ``mutate_fraction > 0`` the harness also
drives a real :class:`~repro.service.scheduler.Scheduler` over dynamic
pool entries with the mixed read/write stream and reports the serving
telemetry (reads answered, mutations applied, final epochs).  The
resulting dict is what the CLI writes as ``BENCH_mutate.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.counts import BicliqueQuery
from repro.dynamic import DynamicGraphSession, EdgeMutation
from repro.graph.bipartite import BipartiteGraph, LAYER_U
from repro.graph.builders import from_edges
from repro.parallel.sharding import default_workers
from repro.query import GraphSession
from repro.service.bench import write_artifact
from repro.service.pool import SessionPool
from repro.service.scheduler import Scheduler, SchedulerConfig
from repro.service.workload import WorkloadSpec, run_workload

__all__ = ["edit_stream", "mutate_bench", "write_artifact"]


def edit_stream(graph: BipartiteGraph, edits: int,
                seed: int = 0) -> list[EdgeMutation]:
    """A deterministic stream of ``edits`` uniform toggles on ``graph``'s
    coordinate space — the replayable workload both benchmark arms and
    the golden mutation traces share."""
    rng = np.random.default_rng((seed, graph.num_u, graph.num_v))
    return [EdgeMutation("toggle", int(rng.integers(graph.num_u)),
                         int(rng.integers(graph.num_v)))
            for _ in range(int(edits))]


def _bench_one(name: str, graph: BipartiteGraph,
               shapes: list[tuple[int, int]], edits: int,
               rebuild_limit: int, method: str, backend: str,
               seed: int) -> dict:
    stream = edit_stream(graph, edits, seed)
    limit = min(int(rebuild_limit), len(stream))
    queries = [BicliqueQuery(p, q) for p, q in shapes]

    # incremental arm: tracking (baseline counts + cutover pricing) is
    # one-time preparation, excluded like prepare_seconds elsewhere
    dyn = DynamicGraphSession.from_graph(graph, name=name, method=method,
                                         backend=backend)
    for p, q in shapes:
        dyn.track(p, q)
    incr_prefix: list[list[int]] = []
    t0 = time.monotonic()
    for i, m in enumerate(stream):
        dyn.apply(m)
        counts = [dyn.count(p, q) for p, q in shapes]
        if i < limit:
            incr_prefix.append(counts)
    incr_seconds = time.monotonic() - t0

    # rebuild-per-edit arm over the shared prefix
    edges = {(u, int(v)) for u in range(graph.num_u)
             for v in graph.neighbors(LAYER_U, u)}
    rebuild_prefix: list[list[int]] = []
    t0 = time.monotonic()
    for m in stream[:limit]:
        key = (m.u, m.v)
        if key in edges:
            edges.discard(key)
        else:
            edges.add(key)
        rebuilt = from_edges(graph.num_u, graph.num_v, sorted(edges),
                             name=f"{name}/rebuilt")
        session = GraphSession(rebuilt)
        rebuild_prefix.append([session.count(q, method,
                                             backend=backend).count
                               for q in queries])
    rebuild_seconds = time.monotonic() - t0

    mismatches = []
    for i, (got, want) in enumerate(zip(incr_prefix, rebuild_prefix)):
        if got != want:
            mismatches.append({"edit": i, "incremental": got,
                               "rebuild": want})
    for (p, q) in shapes:
        final, oracle = dyn.count(p, q), dyn.recount(p, q)
        if final != oracle:
            mismatches.append({"edit": len(stream) - 1, "shape": [p, q],
                               "incremental": final, "recount": oracle})

    incr_eps = len(stream) / incr_seconds if incr_seconds > 0 else 0.0
    rebuild_eps = limit / rebuild_seconds if rebuild_seconds > 0 else 0.0
    return {
        "graph": name,
        "num_u": graph.num_u, "num_v": graph.num_v,
        "num_edges_start": graph.num_edges,
        "num_edges_end": dyn.num_edges,
        "edits": len(stream),
        "rebuild_edits": limit,
        "incremental_seconds": incr_seconds,
        "incremental_edits_per_s": incr_eps,
        "rebuild_seconds": rebuild_seconds,
        "rebuild_edits_per_s": rebuild_eps,
        "speedup_vs_rebuild": (incr_eps / rebuild_eps)
                              if rebuild_eps > 0 else 0.0,
        "dynamic_stats": dyn.stats.as_dict(),
        "final_epoch": dyn.epoch,
        "mismatches": mismatches,
    }


def _serve_mixed(graphs: dict[str, BipartiteGraph],
                 shapes: list[tuple[int, int]],
                 serve_spec: WorkloadSpec,
                 config: SchedulerConfig,
                 method: str, backend: str) -> dict:
    pool = SessionPool(max_sessions=max(len(graphs), 1))
    for name, graph in graphs.items():
        pool.register(name, DynamicGraphSession.from_graph(
            graph, name=name, track=shapes, method=method, backend=backend))
    scheduler = Scheduler(pool, config=config)
    try:
        result = run_workload(scheduler, serve_spec)
    finally:
        scheduler.close()
    return {
        "spec": serve_spec.as_dict(),
        "served": result.as_dict(),
        "telemetry": scheduler.telemetry.snapshot(),
        "pool": pool.snapshot(),
    }


def mutate_bench(graphs: dict[str, BipartiteGraph], *,
                 shapes=((2, 2), (2, 3), (3, 3)),
                 edits: int = 200, rebuild_limit: int = 16,
                 method: str = "GBC",
                 backend: str = SchedulerConfig.backend,
                 seed: int = 0,
                 serve_spec: WorkloadSpec | None = None,
                 config: SchedulerConfig | None = None) -> dict:
    """Run the mutate benchmark on every graph; returns the artifact.

    ``serve_spec`` (optional) additionally drives a live scheduler with
    a mixed read/write workload over dynamic pool entries for the same
    graphs.
    """
    shapes = [(int(p), int(q)) for p, q in shapes]
    per_graph = [_bench_one(name, graph, shapes, edits, rebuild_limit,
                            method, backend, seed)
                 for name, graph in sorted(graphs.items())]
    speedups = [g["speedup_vs_rebuild"] for g in per_graph]
    artifact = {
        "kind": "mutate_bench",
        "host": {"usable_cpus": default_workers()},
        "shapes": [list(s) for s in shapes],
        "edits": int(edits),
        "rebuild_limit": int(rebuild_limit),
        "method": method,
        "backend": backend,
        "seed": int(seed),
        "graphs": per_graph,
        "min_speedup_vs_rebuild": min(speedups) if speedups else 0.0,
        "mismatches": sum(len(g["mismatches"]) for g in per_graph),
    }
    if serve_spec is not None:
        artifact["serve"] = _serve_mixed(graphs, shapes, serve_spec,
                                         config or SchedulerConfig(),
                                         method, backend)
    return artifact
