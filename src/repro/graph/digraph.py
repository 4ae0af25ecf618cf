"""Core probabilistic directed graph — the one graph type.

Nodes are dense integer ids ``0..n-1``. Each directed edge ``(u, v)``
carries an influence probability ``w(u, v)``, the chance that an active
``u`` activates ``v`` under the Independent Cascade model. The structure
keeps *both* out-adjacency (forward diffusion) and in-adjacency (reverse
sampling — Algorithm 1 of the paper walks in-edges), each stored as
parallel lists of neighbour ids and weights.

Every sampler and simulator reads the edges through the lazy
:meth:`DiGraph.in_pairs` / :meth:`DiGraph.out_pairs` tables: per-node
``(neighbour, weight)`` tuples in adjacency order. Mutation drops them
and pickling leaves them out, so a graph shipped to a worker process
rebuilds the same tables there and samples byte-identically.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import GraphError
from repro.utils.validation import check_node, check_probability


class Edge(NamedTuple):
    """A weighted directed edge ``source -> target`` with probability ``weight``."""

    source: int
    target: int
    weight: float


def _pairs(neighbors: List[int], weights: List[float]):
    return tuple(zip(neighbors, weights))


class DiGraph:
    """A directed graph with per-edge influence probabilities.

    Parallel edges are disallowed: adding ``(u, v)`` twice overwrites the
    weight (matching the paper's ``w: V×V -> [0,1]`` convention where
    ``w_e = 0`` iff the edge is absent). Self-loops are rejected — they
    never affect diffusion (an active node cannot re-activate itself) and
    permitting them would only distort degree-based weight schemes.
    """

    __slots__ = (
        "_n",
        "_out",
        "_out_w",
        "_in",
        "_in_w",
        "_edge_index",
        "_m",
        "_in_pairs",
        "_out_pairs",
    )

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._n = num_nodes
        self._out: List[List[int]] = [[] for _ in range(num_nodes)]
        self._out_w: List[List[float]] = [[] for _ in range(num_nodes)]
        self._in: List[List[int]] = [[] for _ in range(num_nodes)]
        self._in_w: List[List[float]] = [[] for _ in range(num_nodes)]
        # (u, v) -> position of v in _out[u]; also authoritative edge set.
        self._edge_index: Dict[Tuple[int, int], int] = {}
        self._m = 0
        self._in_pairs: Optional[List[Tuple[Tuple[int, float], ...]]] = None
        self._out_pairs: Optional[List[Tuple[Tuple[int, float], ...]]] = None

    # ------------------------------------------------------------------
    # Construction (every mutation drops the pair tables)
    # ------------------------------------------------------------------

    def add_node(self) -> int:
        """Append a fresh node and return its id."""
        self._in_pairs = self._out_pairs = None
        self._out.append([])
        self._out_w.append([])
        self._in.append([])
        self._in_w.append([])
        self._n += 1
        return self._n - 1

    def add_nodes(self, count: int) -> None:
        """Append ``count`` fresh nodes.

        Bulk-extends the four adjacency tables in one shot instead of
        looping :meth:`add_node` — the difference between O(count) list
        appends and four ``extend`` calls matters when synthetic
        generators allocate 100k-node graphs up front.
        """
        if count < 0:
            raise GraphError(f"cannot add a negative number of nodes: {count}")
        self._in_pairs = self._out_pairs = None
        self._out.extend([] for _ in range(count))
        self._out_w.extend([] for _ in range(count))
        self._in.extend([] for _ in range(count))
        self._in_w.extend([] for _ in range(count))
        self._n += count

    def add_edge(self, source: int, target: int, weight: float) -> None:
        """Add (or overwrite) the directed edge ``source -> target``.

        ``weight`` must lie in ``[0, 1]``; a zero weight is permitted and
        means the edge never fires (it still counts structurally, which
        matters for degree-based weight schemes applied later).
        """
        check_node(source, self._n, GraphError)
        check_node(target, self._n, GraphError)
        check_probability(weight, "weight", GraphError)
        if source == target:
            raise GraphError(f"self-loops are not allowed (node {source})")
        self._in_pairs = self._out_pairs = None
        key = (source, target)
        pos = self._edge_index.get(key)
        if pos is not None:
            self._out_w[source][pos] = weight
            # Locate the mirror entry in the in-adjacency and update it.
            in_pos = self._in[target].index(source)
            self._in_w[target][in_pos] = weight
            return
        self._edge_index[key] = len(self._out[source])
        self._out[source].append(target)
        self._out_w[source].append(weight)
        self._in[target].append(source)
        self._in_w[target].append(weight)
        self._m += 1

    def set_weight(self, source: int, target: int, weight: float) -> None:
        """Overwrite the weight of an existing edge.

        Raises :class:`GraphError` when the edge does not exist, to catch
        silent typos in weight-assignment code.
        """
        if (source, target) not in self._edge_index:
            raise GraphError(f"edge ({source}, {target}) does not exist")
        self.add_edge(source, target, weight)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._m

    def __len__(self) -> int:
        return self._n

    def nodes(self) -> range:
        """Iterate node ids ``0..n-1``."""
        return range(self._n)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        return (source, target) in self._edge_index

    def weight(self, source: int, target: int) -> float:
        """The weight of ``source -> target``; 0.0 when the edge is absent.

        Matches the paper's convention ``w_e = 0`` for ``e ∉ E``.
        """
        pos = self._edge_index.get((source, target))
        if pos is None:
            return 0.0
        return self._out_w[source][pos]

    def out_neighbors(self, node: int) -> List[int]:
        """Targets of out-edges of ``node`` (list view — do not mutate)."""
        check_node(node, self._n, GraphError)
        return self._out[node]

    def in_neighbors(self, node: int) -> List[int]:
        """Sources of in-edges of ``node`` (list view — do not mutate)."""
        check_node(node, self._n, GraphError)
        return self._in[node]

    def out_edges(self, node: int) -> Iterator[Edge]:
        """Iterate out-edges of ``node`` as :class:`Edge` tuples."""
        check_node(node, self._n, GraphError)
        for target, weight in zip(self._out[node], self._out_w[node]):
            yield Edge(node, target, weight)

    def in_edges(self, node: int) -> Iterator[Edge]:
        """Iterate in-edges of ``node`` as :class:`Edge` tuples."""
        check_node(node, self._n, GraphError)
        for source, weight in zip(self._in[node], self._in_w[node]):
            yield Edge(source, node, weight)

    def in_pairs(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Per-node traversal table: ``pairs[v]`` holds the ``(source,
        weight)`` pairs of ``v``'s in-edges in adjacency order, as
        immutable tuples — the table the RIC sampler iterates.
        Built lazily; any mutation drops it, and it is not pickled."""
        if self._in_pairs is None:
            self._in_pairs = list(map(_pairs, self._in, self._in_w))
        return self._in_pairs

    def out_pairs(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Forward mirror of :meth:`in_pairs`: ``pairs[u]`` holds
        ``(target, weight)`` pairs — the IC/LT cascade traversal table."""
        if self._out_pairs is None:
            self._out_pairs = list(map(_pairs, self._out, self._out_w))
        return self._out_pairs

    def out_degree(self, node: int) -> int:
        """Number of out-edges of ``node``."""
        check_node(node, self._n, GraphError)
        return len(self._out[node])

    def in_degree(self, node: int) -> int:
        """Number of in-edges of ``node``."""
        check_node(node, self._n, GraphError)
        return len(self._in[node])

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges in node order."""
        for u in range(self._n):
            for v, w in zip(self._out[u], self._out_w[u]):
                yield Edge(u, v, w)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def reversed(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        rev = DiGraph(self._n)
        for u, v, w in self.edges():
            rev.add_edge(v, u, w)
        return rev

    def copy(self) -> "DiGraph":
        """Return a deep structural copy."""
        clone = DiGraph(self._n)
        for u, v, w in self.edges():
            clone.add_edge(u, v, w)
        return clone

    def __repr__(self) -> str:
        return f"DiGraph(n={self._n}, m={self._m})"

    def __getstate__(self):
        """Pickle the adjacency, not the traversal tables."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_in_pairs"] = state["_out_pairs"] = None
        return None, state

    # ------------------------------------------------------------------
    # Equality (structural), used by tests and round-trip checks
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self._n != other._n or self._m != other._m:
            return False
        return all(
            other.has_edge(u, v) and abs(other.weight(u, v) - w) < 1e-12
            for u, v, w in self.edges()
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)
