"""The three workloads: set-up, timed passes, correctness gate, layers.

Each workload drives the program only through its public API, from
this one process, with requests made by :mod:`inputs` from the seed.
``README.md`` beside this file says why each workload exists and which
layers it stresses or bypasses.
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np

from repro import (BicliqueQuery, DynamicGraphSession, EdgeMutation,
                   GraphSession, ResultCache, Scheduler, SessionPool,
                   SnapshotSession, from_edges)
from repro.dist import DistRouter
from repro.obs import tracing
from repro.parallel.procpool import shutdown_pools
from repro.plan import warm_session

import inputs
import layers
import loadgen
from hostclock import HostClock


def reference_count(graph, p: int, q: int) -> int:
    """The correctness gate's recount: GBC on the ``native`` engine.

    No workload serves through this (method, engine) pair today, so
    the gate is an independent recount, not a replay of the answer.
    """
    session = GraphSession(graph)
    return int(session.count(BicliqueQuery(p, q), "GBC", backend="native",
                             use_cache=False).count)


class Workload:
    """Shared shape: ``setup`` -> passes of ``run`` -> ``check`` -> ``close``."""

    name = ""
    slo_ms = 0.0
    #: whether the traced run may record spans during set-up (a set-up
    #: that forks workers must fork them untraced, or the workers'
    #: copies of the tracing flag would trace the untraced pass too)
    trace_setup = True
    #: closed loop (latency scaled to the reference clock, see
    #: :mod:`hostclock`) or open loop (latency unscaled)
    open_loop = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{tag}")

    def telemetry(self):
        """The program's serving telemetry, or None when nothing serves."""
        scheduler = getattr(self, "scheduler", None)
        return None if scheduler is None else scheduler.telemetry

    def check(self, rows) -> list:
        """The rows whose count differs from a recount of their
        (graph, shape) on the set-up graph."""
        ref = {}
        for r in rows:
            key = (r["graph"], r["p"], r["q"])
            if r["ok"] and key not in ref:
                ref[key] = reference_count(self.graphs[key[0]], *key[1:])
        return [r for r in rows if r["ok"]
                and r["count"] != ref[(r["graph"], r["p"], r["q"])]]

    def extra_layers(self, t) -> dict:
        """Per-layer metrics only this workload can derive."""
        return {}


class CountSharded(Workload):
    """Closed loop, one client, counting through prepared sessions with
    ``workers=2``: the planner plans for the ``par`` engine and every
    count runs over ``repro.parallel``'s persistent pool."""

    name = "count-sharded"
    slo_ms = 1000.0
    shapes = [(2, 2), (3, 3), (4, 4)]
    workers = 2

    def setup(self, probes) -> None:
        self.graphs = inputs.standins()
        self.sessions = {k: GraphSession(g) for k, g in self.graphs.items()}
        self.keys = [(k, p, q) for k in self.graphs for p, q in self.shapes]
        for graph, p, q in self.keys:
            session = self.sessions[graph]
            with probes.timer("plan.plan_ms"):
                plan = session.plan(BicliqueQuery(p, q), workers=self.workers)
            warm_session(session, plan)
        self.call(self.keys[0], self.workers)   # starts the pool

    def call(self, key, workers):
        graph, p, q = key
        return self.sessions[graph].count(BicliqueQuery(p, q), "auto",
                                          use_cache=False, workers=workers)

    def run(self, seconds: float, tag: str, clock, min_reads: int = 0,
            serial: bool = False):
        workers = None if serial else self.workers
        ops = (("read", key) for key in
               inputs.balanced_stream(self.rng(tag), self.keys))
        return loadgen.closed_loop(ops, lambda key: self.call(key, workers),
                                   None, len(self.keys), seconds, min_reads,
                                   clock)

    def extra_layers(self, t) -> dict:
        # one block of the same keys again, serially: the speedup's base
        # and the only place the single-process engine is timed
        with tracing() as rec:
            self.run(0.0, "serial", HostClock(), serial=True)
        serial = [ms for _, ms in layers.exec_self_ms(rec.records)]
        sharded = [ms for _, ms in layers.exec_self_ms(t.records)]
        return {"query.prepare_ms":
                layers.root_prepare_ms(t.setup_records) / len(self.graphs),
                "engine.exec_ms": float(np.median(serial)),
                "parallel.speedup_vs_serial":
                    float(np.mean(serial) / np.mean(sharded))}

    def close(self) -> None:
        shutdown_pools()
        self.sessions = {}


class ServeHot(Workload):
    """Open loop through ``DistRouter``; every timed request is a
    ``ResultCache`` hit in a worker, so dispatch is the whole cost."""

    name = "serve-hot"
    slo_ms = 10.0
    trace_setup = False
    open_loop = True
    #: seconds of schedule between two host-clock samples; latency
    #: figures are medians over these segments
    segment_s = 3.0
    rate = 50.0
    shapes = [(2, 2), (2, 3), (3, 3)]
    hot = "YT"           # most popular, so replicated
    partitioned = "OR"   # the Table II out-of-memory stand-in
    partitioned_rank = 5

    def setup(self, probes) -> None:
        self.graphs = inputs.standins()
        others = [k for k in self.graphs if k not in (self.hot, self.partitioned)]
        self.rng("ranks").shuffle(others)
        others.insert(self.partitioned_rank - 1, self.partitioned)
        ranked = [self.hot] + others
        self.block = [(g, p, q) for g in inputs.zipf_block(ranked, 100)
                      for p, q in self.shapes]
        self.scheduler = DistRouter(self.graphs, workers=2, hot=[self.hot],
                                   partitioned=[self.partitioned])
        # one request at a time; the hot graph's keys twice, once per
        # replica (replicas are picked round-robin per batch)
        for graph in ranked:
            for p, q in self.shapes:
                for _ in range(2 if graph == self.hot else 1):
                    self.scheduler.count(graph, p, q)

    def run(self, seconds: float, tag: str, clock, min_reads: int = 0):
        """Seeded uniform arrivals at :attr:`rate` for ``seconds`` (at
        least ``min_reads``), sent in segments with clock samples
        between."""
        rng = self.rng(tag)
        n = max(int(self.rate * seconds), min_reads)
        arrivals = sorted(rng.uniform(0.0, n / self.rate) for _ in range(n))
        return loadgen.segmented_open_loop(
            lambda k: self.scheduler.submit(*k), arrivals,
            inputs.balanced_stream(rng, self.block), self.segment_s, clock)

    def extra_layers(self, t) -> dict:
        snap = self.scheduler.cluster_snapshot()
        worker = snap["cluster"]["latency_ms"]["p50"]
        router = snap["router"]["latency_ms"]["p50"]
        fanout = loadgen.latencies_ms(
            [r for r in t.untraced if r["graph"] == self.partitioned])
        return {"dist.worker_ms": worker,
                "dist.ipc_ms": router - worker,
                "dist.fanout_p50_ms": float(np.median(fanout))}

    def close(self) -> None:
        self.scheduler.close()


class ServeMutate(Workload):
    """Reads beside single-edge writes through one in-process
    ``Scheduler``, from one closed-loop client.

    Before each read the client toggles one edge of the graph it is
    about to read and one edge of another graph, so writes run at twice
    the read rate and every read pins a new epoch and really counts.
    Reads fall in three modes: the tracked shape (2, 2), which the
    delta rule serves without counting (a fifth of reads); a cold
    (2, 3) on YT or YL (three fifths); a cold (2, 3) on the larger OR
    or S2, about twice as slow (a fifth).  With those shares the median
    falls in the middle of the second mode and p90 in the middle of the
    third, never on the edge between two modes.
    """

    name = "serve-mutate"
    slo_ms = 250.0
    open_loop = False
    graph_keys = ["YT", "YL", "OR", "S2"]
    tracked = (2, 2)
    recounted = (2, 3)
    #: reads of the recounted shape per block, by graph
    recounts = {"YT": 6, "YL": 6, "OR": 2, "S2": 2}

    def setup(self, probes) -> None:
        self.graphs = inputs.standins(self.graph_keys)
        self.edges = {k: inputs.edge_array(g) for k, g in self.graphs.items()}
        pool = SessionPool()
        for key, graph in self.graphs.items():
            pool.register(key, DynamicGraphSession.from_graph(
                graph, track=[self.tracked]))
        self.scheduler = Scheduler(pool)
        self.log = defaultdict(list)     # graph -> [(epoch, u, v)]
        self.block = [(g, *shape) for g in self.graph_keys
                      for shape in [self.tracked]
                      + [self.recounted] * self.recounts[g]]
        for key in self.graph_keys:
            for p, q in (self.tracked, self.recounted):
                self.scheduler.count(key, p, q)

    def _write(self, key) -> int:
        graph, u, v = key
        epoch = self.scheduler.mutate(graph, [EdgeMutation.toggle(u, v)])
        self.log[graph].append((epoch, u, v))
        return epoch

    def _toggle(self, rng: random.Random, graph: str) -> tuple:
        g = self.graphs[graph]
        if rng.random() < 0.5:           # an original edge: mostly deletes
            u, v = self.edges[graph][rng.randrange(len(self.edges[graph]))]
        else:                            # a random pair: mostly inserts
            u, v = rng.randrange(g.num_u), rng.randrange(g.num_v)
        return graph, int(u), int(v)

    def _ops(self, rng: random.Random):
        others = inputs.balanced_stream(rng, self.graph_keys)
        for key in inputs.balanced_stream(rng, self.block):
            yield "write", self._toggle(rng, key[0])
            yield "write", self._toggle(rng, next(others))
            yield "read", key

    def run(self, seconds: float, tag: str, clock, min_reads: int = 0):
        return loadgen.closed_loop(
            self._ops(self.rng(tag)), lambda k: self.scheduler.count(*k),
            self._write, 3 * len(self.block), seconds, min_reads, clock)

    def check(self, rows) -> list:
        """Recount every read at the epoch it reports, replaying the
        logged toggles onto the set-up graph."""
        bad = []
        by_graph = defaultdict(list)
        for r in rows:
            if r["op"] == "read" and r["ok"]:
                by_graph[r["graph"]].append(r)
        for graph, reads in by_graph.items():
            edges = {(int(u), int(v)) for u, v in self.edges[graph]}
            log = iter(self.log[graph])
            pending = next(log, None)
            ref = {}
            g0 = self.graphs[graph]
            for r in sorted(reads, key=lambda r: r["epoch"]):
                while pending is not None and pending[0] <= r["epoch"]:
                    edges ^= {pending[1:]}
                    pending = next(log, None)
                key = (r["epoch"], r["p"], r["q"])
                if key not in ref:
                    at_epoch = from_edges(g0.num_u, g0.num_v, sorted(edges))
                    ref[key] = reference_count(at_epoch, r["p"], r["q"])
                if r["count"] != ref[key]:
                    bad.append(r)
        return bad

    def extra_layers(self, t) -> dict:
        reads = [r for r in t.traced if r["op"] == "read" and r["ok"]]
        writes = loadgen.latencies_ms(
            [r for r in t.untraced if r["op"] == "write"])
        epochs = len(t.samples.get("dynamic.materialise_ms", []))
        return {"query.prepare_ms":
                layers.root_prepare_ms(t.records) / max(epochs, 1),
                "dynamic.recount_share":
                sum(r["algorithm"] != "delta" for r in reads) / len(reads),
                "service.write_p50_ms": float(np.median(writes))}

    def close(self) -> None:
        self.scheduler.close()
        self.scheduler.pool.close()


WORKLOADS = {w.name: w for w in (CountSharded, ServeHot, ServeMutate)}


def install_probes(probes, counter) -> None:
    """The wrappers of the traced run (see :mod:`probes`)."""
    probes.time_method(SessionPool, "session", "service.session_ms")
    probes.time_method(DynamicGraphSession, "apply_batch", "dynamic.write_ms")
    probes.time_first_get(SnapshotSession, "graph", "dynamic.materialise_ms")
    probes.count_cache_lookups(ResultCache, counter)
