"""Persistent fork-pool: reuse, shipping, and every fallback path.

The headline regression test pins the reason this module exists: two
``run_sharded`` calls with *different* closures must be served by the
**same** worker processes (pid identity), where the legacy path forked
a fresh pool per call.  The rest covers the ShipError fallback, verbatim
exception propagation, the kill switch, and the mirrored token LRU.
"""

import functools
import os
from collections import OrderedDict

import pytest

from repro.parallel import procpool
from repro.parallel.procpool import (CACHE_CAP, ShipError, _TokenRegistry,
                                     _touch_lru, get_pool, shutdown_pools)
from repro.parallel.sharding import run_sharded

pytestmark = pytest.mark.skipif(not procpool.fork_available(),
                                reason="no fork on this platform")


@pytest.fixture(autouse=True)
def fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


def test_worker_pids_stable_across_calls():
    """Two sharded calls with different closures reuse the same
    processes — the fork-per-call overhead regression test."""
    pool = get_pool(2)
    assert pool is not None
    before = sorted(pool.worker_pids)

    weights = [1, 2, 3, 4, 5, 6, 7, 8]

    def weigh(shard):
        return (os.getpid(), sum(weights[i] for i in shard))

    first = run_sharded(weigh, len(weights), workers=2)

    offsets = {i: 10 * i for i in range(8)}     # a different closure

    def offset(shard):
        return (os.getpid(), sum(offsets[i] for i in shard))

    second = run_sharded(offset, len(offsets), workers=2)

    after = sorted(get_pool(2).worker_pids)
    assert before == after
    seen = {pid for _, (pid, _) in first + second}
    assert seen <= set(before)
    assert seen.isdisjoint({os.getpid()})
    assert sum(total for _, (_, total) in first) == sum(weights)
    assert sum(total for _, (_, total) in second) == sum(offsets.values())


def test_results_match_in_process():
    data = list(range(100))

    def chunk(shard):
        return sorted(data[i] * data[i] for i in shard)

    sharded = run_sharded(chunk, len(data), workers=3)
    flat = sorted(x for _, res in sharded for x in res)
    assert flat == sorted(d * d for d in data)
    covered = sorted(i for shard, _ in sharded for i in shard)
    assert covered == data


def test_fn_exception_propagates_verbatim_and_pool_survives():
    def boom(shard):
        raise ValueError(f"bad shard {tuple(shard)}")

    pool = get_pool(2)
    with pytest.raises(ValueError, match="bad shard"):
        pool.run(boom, [(0,), (1,)])
    assert pool.alive()
    assert pool.run(_shard_len, [(0, 1), (2,)]) == [2, 1]


def _shard_len(shard):
    return len(shard)


def _shard_sum(shard):
    return sum(shard)


def test_main_module_globals_ship_by_value():
    """The legacy pool forks at call time, so a ``__main__`` script's
    module globals ride into the children for free.  Persistent workers
    fork once, before those globals may exist — so ``__main__``
    functions must ship the globals (values, helper fns, modules) their
    body references."""
    import math
    ns = {"__name__": "__main__",
          "TABLE": {1: 10, 2: 20},
          "math": math}
    exec("def half(i):\n"
         "    return math.floor(TABLE[i] / 2)\n"
         "def fn(shard):\n"
         "    return sum(half(i) for i in shard)", ns)
    pool = get_pool(2)
    assert pool.run(ns["fn"], [(1,), (2, 1)]) == [5, 15]


def test_unshippable_fn_raises_shiperror():
    pool = get_pool(2)
    with pytest.raises(ShipError):
        pool.run(functools.partial(sum, start=1), [(0,), (1,)])
    assert pool.alive()


def test_run_sharded_falls_back_on_unshippable_fn():
    """A partial cannot ship by value, but run_sharded still answers
    (legacy fork-per-call pool under the hood)."""
    base = {i: i + 1 for i in range(6)}
    bound = functools.partial(_lookup_sum, base)
    results = run_sharded(bound, len(base), workers=2)
    assert sum(total for _, total in results) == sum(base.values())


def _lookup_sum(table, shard):
    return sum(table[i] for i in shard)


def test_kill_switch_disables_pool(monkeypatch):
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "0")
    assert not procpool.pool_enabled()
    assert get_pool(4) is None
    monkeypatch.setenv("REPRO_PERSISTENT_POOL", "1")
    assert procpool.pool_enabled()


def test_get_pool_rejects_single_worker():
    assert get_pool(1) is None


def test_broken_pool_is_replaced():
    pool = get_pool(2)
    pool.close()
    assert not pool.alive()
    fresh = get_pool(2)
    assert fresh is not pool
    assert fresh.alive()
    assert fresh.run(_shard_sum, [(1, 2), (3, 4)]) == [3, 7]


def test_token_registry_stability_and_recycling():
    reg = _TokenRegistry()
    state = {"graph": list(range(50))}
    tok = reg.token(state)
    assert reg.token(state) == tok          # stable while alive
    other = {"graph": list(range(50))}
    assert reg.token(other) != tok          # equality is not identity


def test_touch_lru_mirrors_eviction():
    """Parent mirror and worker cache replay the same token stream and
    must evict identically — the both-sides agreement the wire format
    depends on."""
    parent: OrderedDict = OrderedDict()
    worker: OrderedDict = OrderedDict()
    streams = [list(range(CACHE_CAP)), [0, 1, 2],
               list(range(CACHE_CAP, CACHE_CAP + 10))]
    for stream in streams:
        ev_p = _touch_lru(parent, stream, CACHE_CAP)
        ev_w = _touch_lru(worker, stream, CACHE_CAP)
        assert ev_p == ev_w
    assert list(parent) == list(worker)
    assert len(parent) <= CACHE_CAP


def test_par_backend_counts_identical_through_pool():
    """End to end: GBC counts through backend="par" (persistent pool)
    equal the in-process backend bit for bit."""
    from repro.core.counts import BicliqueQuery
    from repro.core.gbc import gbc_count
    from repro.graph.generators import power_law_bipartite

    g = power_law_bipartite(80, 60, 400, seed=11)
    for p, q in [(2, 2), (2, 3), (3, 3)]:
        par = gbc_count(g, BicliqueQuery(p, q), backend="par", workers=2)
        ref = gbc_count(g, BicliqueQuery(p, q), backend="fast")
        assert par.count == ref.count


def test_gbc_htb_working_set_stays_resident(monkeypatch):
    """GBC on ``par`` ships each session HTB to the workers once.  A
    33-key working set — 11 graphs x 3 shapes, the size of the repo
    benchmark's sharded counting stream — fits the worker token cache
    (``CACHE_CAP``), so a second pass over the same keys ships no HTB
    and only the shards' root ids travel."""
    import pickle
    from types import SimpleNamespace

    from repro.core.counts import BicliqueQuery
    from repro.graph.generators import power_law_bipartite
    from repro.htb.htb import HTB
    from repro.query import GraphSession

    shipped = []

    def counting_dumps(obj, *args, **kwargs):
        if isinstance(obj, HTB):
            shipped.append(obj)
        return pickle.dumps(obj, *args, **kwargs)

    monkeypatch.setattr(procpool, "pickle", SimpleNamespace(
        dumps=counting_dumps, loads=pickle.loads,
        HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
    sessions = [GraphSession(power_law_bipartite(60, 50, 320, seed=s))
                for s in range(11)]
    keys = [(s, BicliqueQuery(k, k)) for s in sessions for k in (2, 3, 4)]
    assert len(keys) == 33

    def one_pass():
        return [s.count(q, "GBC", workers=2, use_cache=False).count
                for s, q in keys]

    first = one_pass()
    assert shipped, "the first pass must ship the HTBs"
    assert len({id(h) for h in shipped}) <= CACHE_CAP
    shipped.clear()
    assert one_pass() == first
    assert shipped == []
