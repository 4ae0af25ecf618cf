"""Linear Threshold (LT) model.

The paper notes its solutions "can be easily extended to the Linear
Threshold model" (Section II-A); we provide the model so the extension
is real, not hypothetical. Each node draws a uniform threshold
``θ_v ∈ [0, 1]``; ``v`` activates when the total weight of its active
in-neighbours reaches ``θ_v``. Edge weights into a node are normalised
to sum to at most 1 (a requirement of the model); the weighted-cascade
scheme already satisfies it exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Set

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng


def check_lt_weights(graph: DiGraph) -> None:
    """Raise :class:`GraphError` unless every node's incoming weights
    sum to at most ``1 + 1e-9``, the LT model's requirement."""
    for v, entries in enumerate(graph.in_pairs()):
        total = sum(w for _, w in entries)
        if total > 1.0 + 1e-9:
            raise GraphError(
                f"LT model requires incoming weights to sum to <= 1; "
                f"node {v} has total {total:.6f} "
                "(use assign_weighted_cascade)"
            )


def lt_live_edge_graph(graph: DiGraph, seed: SeedLike = None) -> DiGraph:
    """Draw a deterministic graph from LT's triggering-set distribution.

    Kempe et al. show LT is equivalent to the live-edge model where
    every node independently keeps *at most one* incoming edge, picking
    in-neighbour ``u`` with probability ``w(u, v)`` (and none with the
    remaining mass). Forward reachability from the seeds on this graph
    is distributed exactly like an LT cascade — the basis of the LT
    extension of RIC sampling.
    """
    check_lt_weights(graph)
    rng = make_rng(seed)
    live = DiGraph(graph.num_nodes)
    for v, entries in enumerate(graph.in_pairs()):
        if not entries:
            continue
        draw = rng.random()
        cumulative = 0.0
        for u, w in entries:
            cumulative += w
            if draw < cumulative:
                live.add_edge(u, v, 1.0)
                break
    return live


def simulate_lt(
    graph: DiGraph,
    seeds: Iterable[int],
    seed: SeedLike = None,
    strict: bool = True,
) -> Set[int]:
    """Run one LT cascade; return the set of activated nodes.

    With ``strict=True`` (default) the function first runs
    :func:`check_lt_weights`; with ``strict=False`` the weights are
    used as-is (thresholds above the reachable mass simply never fire),
    which is how a caller running many cascades on one graph skips
    re-checking it per cascade.
    """
    if strict:
        check_lt_weights(graph)
    rng = make_rng(seed)
    thresholds: Dict[int, float] = {}
    incoming_active: Dict[int, float] = {}
    active: Set[int] = set()
    frontier = deque()
    for s in seeds:
        if s not in active:
            active.add(s)
            frontier.append(s)
    # Thresholds are drawn lazily, in out_pairs() order on either graph.
    pairs = graph.out_pairs()
    random = rng.random
    while frontier:
        for v, w in pairs[frontier.popleft()]:
            if v in active:
                continue
            if v not in thresholds:
                thresholds[v] = random()
            incoming_active[v] = incoming_active.get(v, 0.0) + w
            if incoming_active[v] >= thresholds[v]:
                active.add(v)
                frontier.append(v)
    return active
