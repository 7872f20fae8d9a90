"""Differential test: the ``par`` engine's device counters vs brute force.

On ``par`` the device counters — GBC, its NH/NB/NW ablations, and GBL —
run the native frontier kernels over root shards in worker processes.
The repo benchmark's correctness gate recounts with GBC on ``native``,
the same kernels, so it cannot catch a defect the two engines share;
this suite checks every variant at every worker count against the
exhaustive :func:`~repro.core.verify.brute_force_count` instead.

Besides random and dense small graphs, the generated graphs cover the
cases root sharding must survive: the empty graph, graphs with no promising root,
fewer roots than workers, and a single hub root carrying most of the
work.  The per-test example budget scales with
``REPRO_HYPOTHESIS_EXAMPLES`` (default 20).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.counts import BicliqueQuery
from repro.core.gbc import gbc_count, gbc_variant
from repro.core.gbl import gbl_count
from repro.core.verify import brute_force_count
from repro.engine import ParallelBackend
from repro.graph.builders import from_edges

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "20"))

COUNTERS = {
    "GBC": lambda g, q, engine: gbc_count(g, q, backend=engine),
    **{f"GBC-{v}": (lambda g, q, engine, v=v:
                    gbc_count(g, q, backend=engine, options=gbc_variant(v)))
       for v in ("NH", "NB", "NW")},
    "GBL": lambda g, q, engine: gbl_count(g, q, backend=engine),
}


@st.composite
def random_graphs(draw):
    num_u = draw(st.integers(1, 9))
    num_v = draw(st.integers(1, 9))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, num_u - 1), st.integers(0, num_v - 1)),
        max_size=min(num_u * num_v, 35)))
    return from_edges(num_u, num_v, pairs)


@st.composite
def dense_graphs(draw):
    """At least half of all pairs present: many roots carry bicliques,
    so every shard of a split contributes to the total."""
    num_u = draw(st.integers(3, 8))
    num_v = draw(st.integers(3, 8))
    cells = [(u, v) for u in range(num_u) for v in range(num_v)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells),
                         max_size=len(cells)))
    pairs = [c for c, k in zip(cells, keep) if k]
    pairs += cells[::2]
    return from_edges(num_u, num_v, pairs)


@st.composite
def empty_graphs(draw):
    return from_edges(draw(st.integers(1, 6)), draw(st.integers(1, 6)), [])


@st.composite
def unpromising_graphs(draw):
    """A matching: every vertex has degree <= 1, so no root survives
    the promising-root filter of any shape with p, q >= 2."""
    n = draw(st.integers(1, 8))
    return from_edges(n, n, [(i, i) for i in range(n)])


@st.composite
def few_root_graphs(draw):
    """One or two U vertices: fewer roots than the largest pool."""
    num_u = draw(st.integers(1, 2))
    num_v = draw(st.integers(2, 8))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, num_u - 1), st.integers(0, num_v - 1)),
        min_size=1, max_size=num_u * num_v))
    return from_edges(num_u, num_v, pairs)


@st.composite
def hub_graphs(draw):
    """One hub adjacent to all of V over sparse noise: a single root
    carries most of the search work, the worst case for a weighted
    root split."""
    num_u = draw(st.integers(2, 9))
    num_v = draw(st.integers(2, 9))
    noise = draw(st.lists(
        st.tuples(st.integers(1, num_u - 1), st.integers(0, num_v - 1)),
        max_size=2 * num_u))
    return from_edges(num_u, num_v, [(0, v) for v in range(num_v)] + noise)


graphs = st.one_of(random_graphs(), dense_graphs(), empty_graphs(),
                   unpromising_graphs(), few_root_graphs(), hub_graphs())
queries = st.builds(BicliqueQuery, st.integers(1, 3), st.integers(1, 3))


@pytest.mark.parametrize("workers", [1, 2, 3])
@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs, query=queries)
def test_par_device_counters_match_brute_force(workers, graph, query):
    expect = brute_force_count(graph, query)
    engine = ParallelBackend(workers)
    for name, count in COUNTERS.items():
        got = count(graph, query, engine)
        assert got.backend == "par"
        assert got.count == expect, (
            f"{name} on par/{workers}: {got.count} != brute force "
            f"{expect}")
