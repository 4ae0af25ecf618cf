"""Independent Cascade (IC) model.

The paper's diffusion model (Section II-A): seeds are active at round 0;
when a node becomes active it gets a *single* chance to activate each
currently inactive out-neighbour ``v`` with probability ``w(u, v)``;
active nodes stay active. Equivalently (the live-edge view), realise
each edge independently with its probability and activate everything
forward-reachable from the seeds — the equivalence is exercised by the
test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Set

from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng


def simulate_ic(
    graph: DiGraph,
    seeds: Iterable[int],
    seed: SeedLike = None,
) -> Set[int]:
    """Run one IC cascade; return the set of activated nodes.

    The simulation is round-free (BFS order): each newly activated node
    flips a coin per out-edge exactly once, which is distribution-
    equivalent to the round-based formulation. The cascade walks the
    graph's ``out_pairs()`` table in adjacency order, so a graph and
    its pickled copy give identical activations per seed.
    """
    rng = make_rng(seed)
    active: Set[int] = set()
    frontier = deque()
    for s in seeds:
        if s not in active:
            active.add(s)
            frontier.append(s)
    pairs = graph.out_pairs()
    random = rng.random
    while frontier:
        for v, w in pairs[frontier.popleft()]:
            if v not in active and random() < w:
                active.add(v)
                frontier.append(v)
    return active


def sample_live_edge_graph(graph: DiGraph, seed: SeedLike = None) -> DiGraph:
    """Draw a deterministic *sample graph* G ~ G(V, E, w).

    Each edge is kept independently with its weight (probability); kept
    edges have weight 1.0 in the result. This is the generative view of
    the probabilistic graph used throughout the paper's analysis.
    """
    rng = make_rng(seed)
    live = DiGraph(graph.num_nodes)
    for u, v, w in graph.edges():
        if rng.random() < w:
            live.add_edge(u, v, 1.0)
    return live

