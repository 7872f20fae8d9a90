"""Parallel- vs serial-fast wall-clock scaling on the medium graph.

The sharded engine's promise: counts bit-identical to a serial ``fast``
run, with wall-clock dropping as workers are added.  Measured on the
same 2k x 2k / 20k-edge power-law workload as the backend-speedup
benchmark, at (p, q) = (3, 3), over 1/2/4 worker processes with the
weighted-greedy static placement (the ``par`` default).

The >= 1.5x-at-4-workers assertion needs hardware that can actually run
four processes at once; on smaller machines the benchmark still runs,
records the artifact, and then skips the bar.

A second row pins what ``workers=`` means for the device counters: GBC
on the ID stand-in (bench scale, prepared state warmed in one session)
with ``par`` at 2 workers — the native frontier kernels over two root
shards — must take at most ``GBC_MAX_PAR_SHARE`` of single-process
``native``'s wall time on any host with at least 2 usable CPUs.  The
two engines' runs are interleaved and compared by their medians, so a
drift in host speed or one slow run (a noisy neighbour, a pool
warm-up) hits both alike instead of flipping the comparison; the
margin asks for a real win, not a tie decided by noise.

Runs as part of the slow benchmark suite (``pytest -m "" benchmarks``)
or directly: ``python benchmarks/test_parallel_speedup.py``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import (BicliqueQuery, GraphSession, ParallelBackend, bcl_count,
                   power_law_bipartite)
from repro.bench.datasets import load_dataset

NUM_U = NUM_V = 2000
NUM_EDGES = 20000
QUERY = BicliqueQuery(3, 3)
WORKER_COUNTS = (1, 2, 4)
MIN_SPEEDUP_AT_4 = 1.5
GBC_DATASET = "ID"
GBC_QUERIES = (BicliqueQuery(3, 3), BicliqueQuery(4, 4))
GBC_WORKERS = 2
GBC_REPS = 5
#: par/2 must finish within this share of native's median (measured
#: 0.5-0.65 on a 2-vCPU host)
GBC_MAX_PAR_SHARE = 0.9


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _measure():
    graph = power_law_bipartite(NUM_U, NUM_V, NUM_EDGES, seed=42,
                                name="medium-pl")
    t0 = time.perf_counter()
    serial = bcl_count(graph, QUERY, backend="fast")
    serial_secs = time.perf_counter() - t0
    rows = [("fast", 0, serial.count, serial_secs, 1.0)]
    for workers in WORKER_COUNTS:
        t0 = time.perf_counter()
        par = bcl_count(graph, QUERY, backend=ParallelBackend(workers))
        secs = time.perf_counter() - t0
        rows.append((f"par/{workers}", workers, par.count, secs,
                     serial_secs / secs))
    return rows


def _render(rows) -> str:
    lines = [f"Parallel scaling — {NUM_U}x{NUM_V}, {NUM_EDGES} edges, "
             f"(p,q)={QUERY}, BCL, {_usable_cpus()} usable CPUs",
             f"{'engine':<8} {'count':>14} {'wall [s]':>9} "
             f"{'vs fast':>8}"]
    for name, _, count, secs, speedup in rows:
        lines.append(f"{name:<8} {count:>14} {secs:>9.2f} {speedup:>7.2f}x")
    return "\n".join(lines)


def test_parallel_speedup(save_artifact):
    rows = _measure()
    save_artifact("parallel_speedup", _render(rows))
    counts = {count for _, _, count, _, _ in rows}
    # bit-identical counts for every worker count is the hard guarantee
    assert len(counts) == 1, f"engines disagree: {counts}"
    cpus = _usable_cpus()
    if cpus < 4:
        pytest.skip(f"scaling bar needs >= 4 usable CPUs, have {cpus} "
                    "(counts verified, artifact recorded)")
    by_workers = {workers: speedup for _, workers, _, _, speedup in rows}
    assert by_workers[4] >= MIN_SPEEDUP_AT_4, (
        f"4-worker speedup {by_workers[4]:.2f}x below the "
        f"{MIN_SPEEDUP_AT_4}x bar")


def _measure_gbc():
    """Median wall seconds of GBC on ``native`` vs ``par``, per shape,
    runs interleaved so host-speed drift hits both engines alike."""
    session = GraphSession(load_dataset(GBC_DATASET, "bench"))
    engines = {"native": dict(backend="native"),
               f"par/{GBC_WORKERS}": dict(workers=GBC_WORKERS)}
    rows = []
    for query in GBC_QUERIES:
        times = {name: [] for name in engines}
        counts = {}
        for name, kwargs in engines.items():     # warm state and pool
            counts[name] = session.count(query, "GBC", use_cache=False,
                                         **kwargs).count
        for _ in range(GBC_REPS):
            for name, kwargs in engines.items():
                t0 = time.perf_counter()
                session.count(query, "GBC", use_cache=False, **kwargs)
                times[name].append(time.perf_counter() - t0)
        for name in engines:
            rows.append((query, name, counts[name],
                         sorted(times[name])[GBC_REPS // 2]))
    return rows


def _render_gbc(rows) -> str:
    lines = [f"GBC on {GBC_DATASET} (bench scale), {_usable_cpus()} "
             f"usable CPUs, median of {GBC_REPS}",
             f"{'(p,q)':<7} {'engine':<8} {'count':>14} {'wall [ms]':>10}"]
    for query, name, count, secs in rows:
        lines.append(f"{str(query):<7} {name:<8} {count:>14} "
                     f"{secs * 1e3:>10.1f}")
    return "\n".join(lines)


def test_gbc_par_beats_native(save_artifact):
    rows = _measure_gbc()
    save_artifact("parallel_gbc", _render_gbc(rows))
    by_shape = {}
    for query, name, count, secs in rows:
        by_shape.setdefault(query, {})[name] = (count, secs)
    for query, engines in by_shape.items():
        assert len({count for count, _ in engines.values()}) == 1, (
            f"{query}: engines disagree: {engines}")
    cpus = _usable_cpus()
    if cpus < GBC_WORKERS:
        pytest.skip(f"par needs >= {GBC_WORKERS} usable CPUs, have {cpus} "
                    "(counts verified, artifact recorded)")
    for query, engines in by_shape.items():
        native = engines["native"][1]
        par = engines[f"par/{GBC_WORKERS}"][1]
        assert par <= GBC_MAX_PAR_SHARE * native, (
            f"{query}: par/{GBC_WORKERS} {par * 1e3:.1f} ms is not within "
            f"{GBC_MAX_PAR_SHARE}x native {native * 1e3:.1f} ms")


if __name__ == "__main__":  # pragma: no cover - manual run
    print(_render(_measure()))
    print(_render_gbc(_measure_gbc()))
