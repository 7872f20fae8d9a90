"""Memory bound of the hybrid DFS-BFS frontier.

A breadth-first level over a hub-skewed graph stages every (task,
candidate) pair of the level at once, so its scratch grows with the
hub's degree.  The budgeted frontier slices such a level and finishes
each slice depth-first; its reported ``peak_words`` (the levels held on
the DFS path plus the current slice's staged pair work and children)
must stay within a small constant x the budget while the unbounded
traversal's exceeds it at least tenfold, and the count must not move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.counts import BicliqueQuery
from repro.core.device_common import prepare_device_inputs
from repro.core.frontier import (FRONTIER_BUDGET_WORDS, csr_frontier_count,
                                 htb_frontier_count)
from repro.engine import NativeBackend
from repro.graph.bipartite import LAYER_U
from repro.graph.generators import power_law_bipartite
from repro.htb.htb import htb_from_graph, htb_from_two_hop

#: a budget no level of these graphs reaches: plain breadth-first
UNBOUNDED = 1 << 60

#: a skewed U side (few hubs, many leaves) over a small V side
GRAPH = power_law_bipartite(820, 150, 1950, gamma=2.2, seed=14,
                            name="hub-skewed")


def run(path: str, query: BicliqueQuery, budget: int,
        roots=None) -> tuple[int, int]:
    inputs = prepare_device_inputs(GRAPH, query)
    roots = inputs.roots if roots is None else roots
    engine = NativeBackend()
    if path == "htb":
        return htb_frontier_count(
            engine, engine.new_metrics(),
            htb_from_graph(inputs.graph, LAYER_U),
            htb_from_two_hop(inputs.index),
            roots, inputs.p, inputs.q, budget=budget)
    return csr_frontier_count(
        engine, engine.new_metrics(),
        inputs.graph.u_offsets, inputs.graph.u_neighbors,
        inputs.index.offsets, inputs.index.neighbors,
        roots, inputs.p, inputs.q, budget=budget)


@pytest.mark.parametrize("path", ["htb", "csr"])
@pytest.mark.parametrize("query,budget", [
    (BicliqueQuery(2, 3), FRONTIER_BUDGET_WORDS),
    (BicliqueQuery(3, 3), 4096),
])
def test_budget_bounds_peak_words(path, query, budget):
    total, peak = run(path, query, UNBOUNDED)
    assert peak >= 10 * budget, (
        f"premise: the unbounded frontier peaks at {peak} words, under "
        f"10x the {budget}-word budget, so it bounds nothing here")
    bounded_total, bounded_peak = run(path, query, budget)
    assert bounded_total == total
    # each level held on the DFS path, plus one slice's staged work
    # and its children, fits the budget
    assert bounded_peak <= (query.p + 1) * budget


@pytest.mark.parametrize("path", ["htb", "csr"])
@pytest.mark.parametrize("budget", [3, UNBOUNDED])
def test_roots_without_candidates_add_nothing(path, budget):
    """Every anchored vertex as a root, some with no two-hop candidates
    (the counters pass only promising roots): same count."""
    query = BicliqueQuery(3, 2)
    inputs = prepare_device_inputs(GRAPH, query)
    every = np.arange(inputs.graph.num_u, dtype=np.int64)
    assert (np.diff(inputs.index.offsets) == 0).any()
    assert run(path, query, budget, every)[0] \
        == run(path, query, budget)[0]

