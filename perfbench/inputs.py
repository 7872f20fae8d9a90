"""Seeded inputs: the stand-in graphs, request streams and schedules.

The graphs are the 11 Table II stand-ins at ``bench`` size, generated
with ``power_law_bipartite`` / ``paper_synthetic`` from recipes kept in
this file, so that a change to the program's own dataset table
(``repro.bench.datasets``) cannot silently change the benchmark's
inputs.  Everything a workload sends over them — request order, zipf
ranks, arrival times, write streams — is made from the ``--seed``
argument.

The graphs themselves do not vary with the seed.  Relabelling each
graph by a seeded vertex permutation was tried: isomorphic graphs with
identical counts, yet the planner's ``auto`` choice between Basic and
BCLP flipped between seeds on 5 of the 33 (stand-in, shape) keys of
the counting stream, so the seed, not the program, moved its latencies
from run to run.
"""

from __future__ import annotations

import random

import numpy as np

from repro import paper_synthetic, power_law_bipartite

# key -> (generator, args, recipe seed); power_law_bipartite args are
# (num_u, num_v, num_edges, gamma), paper_synthetic args are
# (num_u, num_v, mean_degree, locality)
RECIPES = {
    "YT": ("pl", (460, 155, 1500, 2.0), 11),
    "BC": ("pl", (390, 930, 2150, 2.1), 12),
    "GH": ("pl", (380, 810, 2960, 2.0), 13),
    "SO": ("pl", (820, 150, 1950, 2.2), 14),
    "YL": ("pl", (170, 205, 1850, 1.7), 15),
    "ID": ("pl", (620, 1830, 3880, 2.0), 16),
    "LF": ("pl", (210, 90, 1750, 1.7), 17),
    "FR": ("pl", (90, 1800, 2560, 1.5), 18),
    "OR": ("syn", (1200, 2400, 7.0, 64), 19),
    "S1": ("syn", (260, 220, 16.0, 48), 20),
    "S2": ("syn", (500, 440, 9.0, 64), 21),
}


def _recipe_graph(key: str):
    kind, args, seed = RECIPES[key]
    name = f"{key}-bench"
    if kind == "pl":
        nu, nv, ne, gamma = args
        return power_law_bipartite(nu, nv, ne, gamma=gamma, seed=seed,
                                   name=name)
    nu, nv, mean, loc = args
    return paper_synthetic(nu, nv, mean_degree=mean, locality=loc, seed=seed,
                           name=name)


def edge_array(graph) -> np.ndarray:
    """The graph's edges as an (E, 2) int64 array of (u, v)."""
    us = np.repeat(np.arange(graph.num_u, dtype=np.int64),
                   np.diff(graph.u_offsets))
    return np.stack([us, np.asarray(graph.u_neighbors, dtype=np.int64)],
                    axis=1)


def standins(keys=None) -> dict:
    """Every stand-in (or those in ``keys``), in Table II order."""
    return {key: _recipe_graph(key) for key in RECIPES
            if keys is None or key in keys}


def balanced_stream(rng: random.Random, block: list):
    """Endless stream of seeded shuffles of ``block``.

    Every ``len(block)`` consecutive draws from a block boundary hold
    exactly the block's multiset, so the request mix of a run differs
    between seeds only in order, never in proportions.
    """
    while True:
        items = list(block)
        rng.shuffle(items)
        yield from items


def zipf_block(names: list, size: int) -> list:
    """A block of about ``size`` names with zipf(1) frequencies by list
    rank (every name at least once)."""
    weights = [1.0 / (rank + 1) for rank in range(len(names))]
    total = sum(weights)
    counts = [max(1, round(size * w / total)) for w in weights]
    return [n for n, c in zip(names, counts) for _ in range(c)]
