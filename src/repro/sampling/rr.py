"""Classic Reverse Reachable (RR) sets for Reverse Influence Sampling.

Used by the IM baseline (Section VI-A compares IMC algorithms against
plain influence maximization). An RR set is generated by picking a node
``v`` uniformly at random and collecting every node with a realised path
to ``v``; then ``σ(S) = n · E[1_{RR ∩ S ≠ ∅}]`` (Borgs et al. 2014).
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, List, Optional

from repro.errors import SamplingError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng


class RRSampler:
    """Generates independent RR sets for a probabilistic graph.

    The reverse BFS iterates the graph's ``in_pairs()`` table in
    adjacency order, so a graph and its pickled copy yield identical
    RR sets per seed.
    """

    def __init__(self, graph: DiGraph, seed: SeedLike = None) -> None:
        if graph.num_nodes == 0:
            raise SamplingError("cannot sample RR sets from an empty graph")
        self.graph = graph
        self._rng = make_rng(seed)

    def sample(self, root: Optional[int] = None) -> FrozenSet[int]:
        """One RR set; ``root`` forces the target node (tests)."""
        rng = self._rng
        if root is None:
            root = rng.randrange(self.graph.num_nodes)
        pairs = self.graph.in_pairs()
        random = rng.random
        visited = {root}
        queue = deque([root])
        while queue:
            # Each in-edge of a dequeued node is examined exactly once,
            # so one coin flip per edge suffices (no memo needed).
            for v, w in pairs[queue.popleft()]:
                if v not in visited and random() < w:
                    visited.add(v)
                    queue.append(v)
        return frozenset(visited)

    def sample_many(self, count: int) -> List[FrozenSet[int]]:
        """Generate ``count`` independent RR sets."""
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        return [self.sample() for _ in range(count)]
