"""The host's speed, sampled between measurements, and the scale to a
reference clock.

Small cloud VMs change speed under a benchmark: a fixed
CPU-bound task took 83 ms in one minute and 196 ms a few minutes later
on a 2-vCPU x86_64 VM, on both vCPUs at once, with no steal time
recorded, and the counting workloads slowed with it.  Raw times from
such a host compare the host's phases, not two versions of the
program.

So a run samples a fixed task — Python bytecode and a NumPy sort, the
mix the program's counting paths execute — before every measured
segment and after the last, never while the program is working.  Times
that are all CPU work (closed-loop latencies, set-up) are scaled by
``REFERENCE_MS / sampled ms``: they read as milliseconds on a host
that runs the task in ``REFERENCE_MS``.  The program never runs the
task, so a change to the program moves scaled times exactly as it
moves raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the task's time on the reference host, in ms (about what the 2-vCPU
#: VM above measured in its fast phases)
REFERENCE_MS = 1.5
#: task runs per sample; the sample is their median
RUNS = 16

_keys = np.random.default_rng(7).integers(0, 1 << 30, 60_000)


def _task() -> int:
    total = 0
    for i in range(15_000):
        total += i * i
    return total + int(np.sort(_keys)[0])


class HostClock:
    """Samples of the task's time (ms) over one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the task ``RUNS`` times; keep and return the median ms."""
        times = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            _task()
            times.append((time.perf_counter() - t0) * 1e3)
        ms = statistics.median(times)
        self.samples.append(ms)
        return ms

    def task_ms(self) -> float:
        """The task's median time over the run."""
        return statistics.median(self.samples)

    def scale(self, seg: int) -> float:
        """Factor that turns ms measured between samples ``seg`` and
        ``seg + 1`` into reference ms."""
        return REFERENCE_MS / statistics.mean(self.samples[seg:seg + 2])
