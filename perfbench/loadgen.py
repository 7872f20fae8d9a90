"""The benchmark's own load generator: one closed and one open loop.

Both loops run in the calling thread and return one row per operation
(the benchmark's run table).  Every end-to-end figure is derived from
these rows by :func:`summarise`, never from the program's telemetry.
"""

from __future__ import annotations

import time

import numpy as np

_clock = time.perf_counter


def _row(op, key, due, seg):
    graph, p, q = key
    return {"op": op, "graph": graph, "p": p, "q": q, "due": due,
            "seg": seg, "sent": None, "done": None, "ok": False,
            "count": None, "algorithm": None, "backend": None,
            "epoch": None, "error": None}


def _fill(row, result) -> None:
    row["ok"] = True
    row["count"] = int(result.count)
    row["algorithm"] = result.algorithm
    row["backend"] = result.backend
    epoch = (result.extras or {}).get("epoch")
    row["epoch"] = None if epoch is None else int(epoch)


def closed_loop(ops, read, write, block: int, seconds: float,
                min_reads: int, clock) -> list[dict]:
    """One client: send the next operation only when the previous one
    returns.  ``ops`` yields ``("read", key)`` or ``("write", key)``;
    ``read(key)`` returns a count result, ``write(key)`` an epoch.

    Stops at a block boundary once ``seconds`` have passed and at least
    ``min_reads`` reads completed, so every run measures whole blocks of
    the seeded stream (the same mix on every seed).  ``clock`` is
    sampled before each block and after the last; each row records the
    index of the sample before it (``seg``).
    """
    rows = []
    reads = 0
    t0 = _clock()
    while True:
        if len(rows) % block == 0:
            clock.sample()
        op, key = next(ops)
        row = _row(op, key, _clock() - t0, len(clock.samples) - 1)
        row["sent"] = row["due"]
        try:
            if op == "write":
                row["epoch"] = int(write(key))
                row["ok"] = True
            else:
                _fill(row, read(key))
        except Exception as exc:  # a failed request is a row, not a crash
            row["error"] = repr(exc)
        row["done"] = _clock() - t0
        rows.append(row)
        reads += op == "read"
        if len(rows) % block == 0 and row["done"] >= seconds \
                and reads >= min_reads:
            clock.sample()
            return rows


def open_loop(submit, arrivals, keys, drain_timeout: float,
              seg: int = 0) -> list[dict]:
    """Send one read per scheduled offset, whatever the backlog.

    ``arrivals`` are offsets in seconds from the start; ``keys`` yields
    the key of each read, which ``submit(key)`` turns into a future.
    Latency is measured from the due time, so a stall in the program
    (or in this generator) also delays the requests queued behind it.
    """
    rows, futures = [], []
    t0 = _clock()
    for due in arrivals:
        key = next(keys)
        row = _row("read", key, due, seg)
        rows.append(row)
        delay = t0 + due - _clock()
        if delay > 0:
            time.sleep(delay)
        row["sent"] = _clock() - t0
        try:
            fut = submit(key)
        except Exception as exc:  # refused at admission: a miss
            row["error"] = repr(exc)
            row["done"] = _clock() - t0
            continue
        futures.append((row, fut))
        fut.add_done_callback(
            lambda _f, row=row: row.__setitem__("done", _clock() - t0))
    deadline = _clock() + drain_timeout
    for row, fut in futures:
        try:
            result = fut.result(timeout=max(deadline - _clock(), 0.0))
        except Exception as exc:
            row["error"] = repr(exc)
            row["ok"] = False
        else:
            _fill(row, result)
    # done-callbacks run on the program's threads; wait until each ran
    while any(r["done"] is None for r, _ in futures) \
            and _clock() < deadline:
        time.sleep(0.001)
    return rows


def segmented_open_loop(submit, arrivals, keys, segment_s: float,
                        clock) -> list[dict]:
    """:func:`open_loop` over consecutive, equally long slices of the
    schedule, each about ``segment_s`` long.  Each slice drains before
    the next starts; ``clock`` is sampled before each slice and after
    the last, while the program is idle."""
    span = max(arrivals, default=0.0) + 1e-9
    n_segments = max(1, round(span / segment_s))
    length = span / n_segments
    rows = []
    for k in range(n_segments):
        start = k * length
        part = [a - start for a in arrivals if start <= a < start + length]
        clock.sample()
        rows += open_loop(submit, part, keys, drain_timeout=60.0,
                          seg=len(clock.samples) - 1)
    clock.sample()
    return rows


def latencies_ms(rows) -> np.ndarray:
    """Latency of each completed row, from its due time, in ms."""
    return np.array([(r["done"] - r["due"]) * 1e3 for r in rows
                     if r["ok"] and r["done"] is not None])


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile; refuses a tail the sample cannot
    support (fewer than ten values beyond it)."""
    values = np.asarray(values, dtype=float)
    beyond = len(values) * (100.0 - pct) / 100.0
    if pct > 50 and beyond < 10:
        raise ValueError(f"p{pct:g} needs ten samples beyond it; "
                         f"only {len(values)} samples")
    if len(values) == 0:
        raise ValueError("no samples")
    return float(np.percentile(values, pct))


def summarise(rows, slo_ms: float, clock=None, by_segment: bool = False) -> dict:
    """The latency figures of one pass of reads.

    With ``clock``, each latency is first scaled to the reference clock
    by the host-clock samples around its segment.  With ``by_segment``,
    each figure is the median over segments of that segment's figure,
    so a host stall confined to one segment does not set the run's
    value.  ``slo_met_share`` compares unscaled latencies of the whole
    pass with the limit and counts a failed or refused read as a miss.
    """
    reads = [r for r in rows if r["op"] == "read"]
    lat = latencies_ms(reads)
    met = int(np.sum(lat <= slo_ms))
    done = [r for r in reads if r["ok"] and r["done"] is not None]
    if clock is not None:
        lat = lat * np.array([clock.scale(r["seg"]) for r in done])
    groups = [lat]
    if by_segment:
        segs = np.array([r["seg"] for r in done])
        groups = [lat[segs == s] for s in np.unique(segs)]
    return {"p50_ms": float(np.median([percentile(g, 50) for g in groups])),
            "p90_ms": float(np.median([percentile(g, 90) for g in groups])),
            "mean_ms": float(np.median([np.mean(g) for g in groups])),
            "slo_met_share": met / len(reads)}
