"""Per-layer metrics of a traced run.

A traced run records three things: the program's own spans
(``repro.obs.tracing``, switched on for set-up and for the traced
pass), the samples of the benchmark's wrappers (:mod:`probes`), and the
rows of an untraced pass and of a traced pass.  Metrics read from
spans or wrappers come from the traced pass; metrics read from rows
(latencies, generator lag, backends served) come from the untraced
pass, so tracing does not distort them.

A layer's time is its *self* time: a span's duration minus the part of
it covered by child spans of another layer.  ``plan.execute`` builds
missing prepared state inside itself, so the engine's time excludes
its ``prepare.*`` children, which ``query.prepare_ms`` counts instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import loadgen


@dataclass
class Traced:
    setup_records: list
    records: list
    untraced: list
    traced: list
    samples: dict


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _children(records) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r["parent_id"], []).append(r)
    return out


def root_prepare_ms(records) -> float:
    """Summed time of prepare spans not nested in another prepare span."""
    by_id = {r["span_id"]: r for r in records}
    total = 0.0
    for r in records:
        if r["name"].startswith("prepare."):
            parent = by_id.get(r["parent_id"])
            if parent is None or not parent["name"].startswith("prepare."):
                total += r["dur_ms"]
    return total


def exec_self_ms(records) -> list:
    """(backend, ms) per ``plan.execute`` span, minus its prepare children."""
    kids = _children(records)
    out = []
    for r in records:
        if r["name"] == "plan.execute":
            prep = sum(c["dur_ms"] for c in kids.get(r["span_id"], ())
                       if c["name"].startswith("prepare."))
            out.append((r["attrs"].get("backend"), r["dur_ms"] - prep))
    return out


def queue_waits_ms(records) -> list:
    """Time from each ``serve.queued`` event to the start of the
    ``serve.batch`` span that took the request, matched by rid."""
    queued = {r["attrs"]["rid"]: r["ts"] for r in records
              if r["name"] == "serve.queued"}
    waits = []
    for r in records:
        if r["name"] == "serve.batch":
            for rid in r["attrs"].get("rids", ()):
                if rid in queued:
                    waits.append((r["ts"] - queued[rid]) * 1e3)
    return waits


def _read_p50(rows) -> float:
    return _median(loadgen.latencies_ms([r for r in rows if r["op"] == "read"]))


def generic(t: Traced, open_loop: bool) -> dict:
    """Metrics every workload derives the same way."""
    execs = exec_self_ms(t.records)
    serial = [ms for backend, ms in execs if backend != "par"]
    sharded = [ms for backend, ms in execs if backend == "par"]
    kernel = [r["attrs"] for r in t.records if r["name"] == "kernel.batch"]
    n_exec = max(len(execs), 1)
    reads = [r for r in t.untraced if r["op"] == "read" and r["ok"]]
    out = {
        "plan.plan_ms": _median(t.samples.get("plan.plan_ms", [])),
        "plan.native_share":
            sum(r["backend"] == "native" for r in reads) / len(reads),
        "engine.exec_ms": _median(serial),
        "engine.kernel_calls":
            sum(a.get("kernel_calls", 0) for a in kernel) / n_exec,
        "engine.kernel_items":
            sum(a.get("kernel_items", 0) for a in kernel) / n_exec,
        "parallel.exec_ms": _median(sharded),
        "service.queue_wait_ms": _median(queue_waits_ms(t.records)),
        "service.session_ms": _median(t.samples.get("service.session_ms", [])),
        "dynamic.write_ms": _median(t.samples.get("dynamic.write_ms", [])),
        "dynamic.materialise_ms":
            _median(t.samples.get("dynamic.materialise_ms", [])),
        "obs.trace_overhead": _read_p50(t.traced) / _read_p50(t.untraced),
    }
    if open_loop:
        lag = [(r["sent"] - r["due"]) * 1e3 for r in t.untraced]
        out["bench.gen_lag_p90_ms"] = loadgen.percentile(lag, 90)
    return out
