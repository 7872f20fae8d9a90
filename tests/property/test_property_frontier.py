"""Differential test: the budgeted hybrid DFS-BFS frontier vs brute force.

The native frontier (:mod:`repro.core.frontier`) expands a level
breadth-first only while the level's staged pair work fits a word
budget; a larger level is cut into consecutive slices of (task,
candidate) pairs, each finished depth-first before the next expands.
This suite forces budgets of one word (every pair its own slice), a
few words (cuts inside one root's candidate list) and the default, and
checks GBC (the HTB path), GBC-NB and GBL (the CSR path) against the
exhaustive :func:`~repro.core.verify.brute_force_count`:

* on ``native``, through the counters themselves with the module
  budget patched;
* on ``par`` with 1 and 2 workers, through the engine's root-shard map
  running the same shard functions the counters ship, with the budget
  passed explicitly (a patched constant would not reach the pool's
  already-forked workers).

The graphs are those of the ``par`` differential suite: random, dense,
empty, a single hub root whose one level exceeds any small budget, and
a matching with no promising root.  The per-test example budget scales
with ``REPRO_HYPOTHESIS_EXAMPLES`` (default 20).
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import frontier
from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.core.gbc import gbc_count, gbc_variant
from repro.core.gbl import gbl_count
from repro.core.verify import brute_force_count
from repro.engine import ParallelBackend
from repro.engine.native import build_native_pack
from repro.graph.bipartite import LAYER_U
from repro.graph.csr import row_lengths
from repro.htb.htb import htb_from_graph, htb_from_two_hop
from tests.property.test_property_parallel import (dense_graphs,
                                                   empty_graphs, hub_graphs,
                                                   random_graphs,
                                                   unpromising_graphs)

EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "20"))

#: one word, a few words, and the module default
BUDGETS = [1, 5, None]

NATIVE_COUNTERS = {
    "GBC": lambda g, q: gbc_count(g, q, backend="native"),
    "GBC-NB": lambda g, q: gbc_count(g, q, backend="native",
                                     options=gbc_variant("NB")),
    "GBL": lambda g, q: gbl_count(g, q, backend="native"),
}

graphs = st.one_of(random_graphs(), dense_graphs(), empty_graphs(),
                   unpromising_graphs(), hub_graphs())
queries = st.builds(BicliqueQuery, st.integers(1, 3), st.integers(1, 3))


def par_count(graph, query, path: str, workers: int, budget) -> int:
    """The ``par`` counters' shard map at an explicit frontier budget."""
    inputs = prepare_device_inputs(graph, query)
    p, q = inputs.p, inputs.q
    if path == "htb":
        htb1 = htb_from_graph(inputs.graph, LAYER_U)
        htb2 = htb_from_two_hop(inputs.index)

        def shard(roots):
            return frontier.htb_shard_count(htb1, htb2, roots, p, q,
                                            budget=budget)
    else:
        pack = build_native_pack(inputs.graph, inputs.index,
                                 inputs.anchored_layer, q)

        def shard(roots):
            return frontier.csr_shard_count(pack, roots, p, q,
                                            budget=budget)
    weights = row_lengths(inputs.index.offsets,
                          inputs.roots).astype(np.float64)
    parts = ParallelBackend(workers).map_roots(shard, inputs.roots, weights)
    return frontier.merge_shard_counts(parts)[0]


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs, query=queries)
def test_native_frontier_matches_brute_force(budget, graph, query):
    expect = brute_force_count(graph, query)
    words = frontier.FRONTIER_BUDGET_WORDS if budget is None else budget
    with mock.patch.object(frontier, "FRONTIER_BUDGET_WORDS", words):
        for name, count in NATIVE_COUNTERS.items():
            got = count(graph, query)
            assert got.backend == "native"
            assert got.count == expect, (
                f"{name} on native, budget {budget}: {got.count} != "
                f"brute force {expect}")


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("workers", [1, 2])
@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=graphs, query=queries)
def test_par_frontier_matches_brute_force(workers, budget, graph, query):
    expect = brute_force_count(graph, query)
    for path in ("htb", "csr"):
        got = par_count(graph, query, path, workers, budget)
        assert got == expect, (
            f"{path} shards on par/{workers}, budget {budget}: {got} != "
            f"brute force {expect}")
