"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload count --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics; ``--workload all`` runs every
workload both ways.  A table of every metric goes to
standard error with the host stamp; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Each run also appends one row to ``perfbench/out/runs.jsonl`` (one row
per workload and repetition), which ``perfbench/summarize.py`` reduces
to medians and spreads.  A count that differs from the independent
recount fails the run: ``correct`` is false and the exit code is 1.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy

import layers
import loadgen
from hostclock import REFERENCE_MS, HostClock
from probes import Probes, SharedCounter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUP_REPS = 3
#: the least number of reads in a pass that reports percentiles, so
#: that p90 has ten samples beyond it
MIN_READS = 100


def _load_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program at {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def host_stamp() -> dict:
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    finished child (the kernel keeps no per-child sum)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _telemetry_batches(workload):
    tel = workload.telemetry()
    if tel is None:
        return 0, 0.0
    b = tel.snapshot()["batches"]
    return b["count"], b["count"] * b["mean_size"]


def end_to_end(workload, seconds: float):
    """Set up ``SETUP_REPS`` times, then one timed pass; returns the
    metrics, their unscaled values, the rows and the mismatched rows."""
    probes = Probes()
    setups, raw_setups = [], []
    for rep in range(SETUP_REPS):
        clock = HostClock()
        clock.sample()
        t0 = time.perf_counter()
        workload.setup(probes)
        raw = time.perf_counter() - t0
        clock.sample()
        raw_setups.append(raw)
        setups.append(raw * REFERENCE_MS / statistics.mean(clock.samples))
        if rep < SETUP_REPS - 1:
            workload.close()
            gc.collect()
    clock = HostClock()
    try:
        rows = workload.run(seconds, "timed", clock, min_reads=MIN_READS)
        bad = workload.check(rows)
    finally:
        workload.close()
    raw = loadgen.summarise(rows, workload.slo_ms)
    if workload.open_loop:
        metrics = loadgen.summarise(rows, workload.slo_ms, by_segment=True)
    else:
        metrics = loadgen.summarise(rows, workload.slo_ms, clock)
    metrics["setup_s"] = statistics.median(setups)
    raw["setup_s"] = statistics.median(raw_setups)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb()
    raw["clock_ms"] = clock.task_ms()
    return metrics, raw, rows, bad


def per_layer(workload, seconds: float):
    """Set up once, an untraced and a traced pass; returns the per-layer
    metrics, the host clock's time, the rows and the mismatched rows."""
    from repro.obs import disable_tracing, enable_tracing

    from workloads import install_probes
    probes = Probes()
    lookups = SharedCounter(["hit", "miss"])
    install_probes(probes, lookups)
    try:
        probes.on = workload.trace_setup
        rec = enable_tracing() if workload.trace_setup else None
        workload.setup(probes)
        disable_tracing()
        probes.on = False
        setup_records = rec.records if rec is not None else []
        clock = HostClock()
        try:
            untraced = workload.run(seconds / 2, "untraced", clock,
                                    min_reads=MIN_READS)
            before = lookups.read(), _telemetry_batches(workload)
            probes.on = True
            rec = enable_tracing()
            traced = workload.run(seconds / 2, "traced", clock)
            disable_tracing()
            probes.on = False
            after = lookups.read(), _telemetry_batches(workload)
            t = layers.Traced(setup_records, rec.records, untraced, traced,
                              dict(probes.samples))
            metrics = layers.generic(t, workload.open_loop)
            metrics.update(workload.extra_layers(t))
            bad = workload.check(untraced + traced)
        finally:
            workload.close()
    finally:
        disable_tracing()
        probes.restore()
    hits = after[0]["hit"] - before[0]["hit"]
    looked = hits + after[0]["miss"] - before[0]["miss"]
    metrics["query.cache_hit_ratio"] = hits / looked if looked else 0.0
    batches = after[1][0] - before[1][0]
    metrics["service.batch_size_mean"] = \
        (after[1][1] - before[1][1]) / batches if batches else 0.0
    metrics["bench.clock_ms"] = clock.task_ms()
    # the latency figures the end-to-end metrics leave out, from the
    # untraced pass and computed as there
    tail = loadgen.summarise(untraced, workload.slo_ms,
                             None if workload.open_loop else clock,
                             by_segment=workload.open_loop)
    metrics["bench.p90_ms"] = tail["p90_ms"]
    metrics["bench.mean_ms"] = tail["mean_ms"]
    return metrics, {"clock_ms": clock.task_ms()}, untraced + traced, bad


def run_one(args, spec: dict) -> int:
    faulthandler.dump_traceback_later(170, exit=True)
    _load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, raw, rows, bad = per_layer(workload, args.seconds)
        wanted = spec["per_layer"]
    else:
        values, raw, rows, bad = end_to_end(workload, args.seconds)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # a per-layer metric is 0 on a workload that never enters the
        # layer; every end-to-end metric must have been measured
        value = values.get(m["name"], 0.0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    failed = sum(not r["ok"] for r in rows) + len(bad)
    result = {"correct": failed == 0, "attempted": len(rows), "failed": failed,
              "metrics": metrics}
    stamp = host_stamp()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} host={stamp}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    print(f"  attempted={len(rows)} failed={failed} "
          f"mismatches={len(bad)}", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "runs.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "finished_at": time.time(), "host": stamp,
                             "unscaled": raw, **result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload in turn, untraced and then traced, each run in its
    own process; prints every end-to-end and per-layer metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.exit(f"perfbench: workload {w['name']} exited "
                         f"{proc.returncode} without a result")
            one = json.loads(lines[-1])
            merged["correct"] &= one["correct"]
            merged["attempted"] += one["attempted"]
            merged["failed"] += one["failed"]
            for name, m in one["metrics"].items():
                merged["metrics"][f"{w['name']}/{name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
