"""Frozen CSR (compressed sparse row) graph snapshot.

:class:`DiGraph` stores adjacency as per-node Python lists — convenient
while a graph is being built. Once construction is done the graph is
only *read*, so :meth:`DiGraph.freeze` snapshots it into a
:class:`FrozenDiGraph`: in- and out-adjacency packed into contiguous
stdlib ``array('q')`` (offsets, neighbour ids, edge ranks) and
``array('d')`` (weights) buffers. The snapshot is immutable, compact,
and pickles as raw arrays, which is how the parallel sampling engine
and the serving shards ship a graph to worker processes.

- **CSR layout** — the in-edges of node ``u`` live in the half-open
  slice ``in_neighbor_ids[in_offsets[u]:in_offsets[u+1]]`` with weights
  in the parallel ``in_weights`` slice.
- **Global edge ranks** — every in-edge (and out-edge) entry carries the
  edge's dense insertion-order id (:meth:`DiGraph.edge_id`), so any
  per-edge state can be a flat ``m``-sized buffer indexed by rank
  instead of a ``(u, v)``-keyed dict.

The sampling and simulation kernels do not index the buffers: each has
one loop over the per-node ``(neighbour, weight)`` tables of
:meth:`FrozenDiGraph.in_pairs` / :meth:`FrozenDiGraph.out_pairs`, which
:class:`DiGraph` provides too. Per-node slice *order* equals the mutable
graph's adjacency-list order, so both representations feed the kernels
the same tables, and frozen and mutable runs are byte-identical, not
merely equal in distribution.

Accessors that exist for API compatibility
(:meth:`FrozenDiGraph.in_adjacency`, ...) return tuples — genuinely
read-only, unlike the aliased lists the mutable graph hands out.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Tuple

from repro.errors import GraphError
from repro.graph.digraph import DiGraph, Edge
from repro.utils.validation import check_node


def _csr_from_lists(
    neighbor_lists: List[List[int]],
    weight_lists: List[List[float]],
) -> Tuple[array, array, array]:
    """Pack per-node parallel lists into ``(offsets, neighbors, weights)``."""
    offsets = array("q", [0] * (len(neighbor_lists) + 1))
    total = 0
    for node, neighbors in enumerate(neighbor_lists):
        total += len(neighbors)
        offsets[node + 1] = total
    neighbors_flat = array("q", [0] * total)
    weights_flat = array("d", [0.0] * total)
    position = 0
    for neighbors, weights in zip(neighbor_lists, weight_lists):
        for v, w in zip(neighbors, weights):
            neighbors_flat[position] = v
            weights_flat[position] = w
            position += 1
    return offsets, neighbors_flat, weights_flat


def _pair_table(
    offsets: array, ids: array, weights: array
) -> List[Tuple[Tuple[int, float], ...]]:
    """Per-node ``(neighbour, weight)`` tuples of one CSR direction."""
    return [
        tuple(zip(ids[lo:hi], weights[lo:hi]))
        for lo, hi in zip(offsets, offsets[1:])
    ]


class FrozenDiGraph:
    """Immutable CSR snapshot of a :class:`DiGraph`.

    Exposes the read surface of :class:`DiGraph` (``num_nodes``,
    ``in_adjacency``, ``in_pairs``, ``out_degree``, ``edges``, ...) so
    samplers, simulators and analysis code accept either
    representation; the compatibility accessors return immutable
    tuples. The raw CSR buffers are:

    - ``in_offsets`` / ``in_neighbor_ids`` / ``in_weights`` /
      ``in_edge_ranks`` — reverse adjacency, the RIC/RR sampling layout;
    - ``out_offsets`` / ``out_neighbor_ids`` / ``out_weights`` /
      ``out_edge_ranks`` — forward adjacency, the IC/LT cascade layout.

    ``*_edge_ranks[i]`` is the dense insertion-order edge id of the edge
    stored at flat position ``i`` — the index into any ``m``-sized
    per-edge state array. Construction goes through
    :meth:`DiGraph.freeze` (or :meth:`from_digraph`); there is no
    mutation API, and :meth:`freeze` on a snapshot returns ``self`` so
    freezing is idempotent for callers that accept either kind.
    """

    __slots__ = (
        "_n",
        "_m",
        "out_offsets",
        "out_neighbor_ids",
        "out_weights",
        "out_edge_ranks",
        "in_offsets",
        "in_neighbor_ids",
        "in_weights",
        "in_edge_ranks",
        "_in_pairs",
        "_out_pairs",
    )

    def __init__(self) -> None:
        raise GraphError(
            "FrozenDiGraph cannot be built directly; use DiGraph.freeze() "
            "or FrozenDiGraph.from_digraph(graph)"
        )

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "FrozenDiGraph":
        """Snapshot ``graph`` into CSR arrays (the body of ``freeze()``)."""
        self = object.__new__(cls)
        self._n = graph.num_nodes
        self._m = graph.num_edges
        # Adjacency-list order is preserved verbatim so the pair tables,
        # and with them every RNG draw, match the mutable graph's.
        out_lists = [graph.out_adjacency(u)[0] for u in graph.nodes()]
        out_weight_lists = [graph.out_adjacency(u)[1] for u in graph.nodes()]
        in_lists = [graph.in_adjacency(u)[0] for u in graph.nodes()]
        in_weight_lists = [graph.in_adjacency(u)[1] for u in graph.nodes()]
        self.out_offsets, self.out_neighbor_ids, self.out_weights = (
            _csr_from_lists(out_lists, out_weight_lists)
        )
        self.in_offsets, self.in_neighbor_ids, self.in_weights = (
            _csr_from_lists(in_lists, in_weight_lists)
        )
        out_ranks = array("q", [0] * self._m)
        in_ranks = array("q", [0] * self._m)
        position = 0
        for u, targets in enumerate(out_lists):
            for v in targets:
                out_ranks[position] = graph.edge_id(u, v)
                position += 1
        position = 0
        for v, sources in enumerate(in_lists):
            for u in sources:
                in_ranks[position] = graph.edge_id(u, v)
                position += 1
        self.out_edge_ranks = out_ranks
        self.in_edge_ranks = in_ranks
        self._in_pairs = None
        self._out_pairs = None
        return self

    # ------------------------------------------------------------------
    # DiGraph-compatible read surface
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

    def freeze(self) -> "FrozenDiGraph":
        """Already frozen — returns ``self`` (idempotent)."""
        return self

    def out_degree(self, node: int) -> int:
        """Number of out-edges of ``node``."""
        check_node(node, self._n, GraphError)
        return self.out_offsets[node + 1] - self.out_offsets[node]

    def in_degree(self, node: int) -> int:
        """Number of in-edges of ``node``."""
        check_node(node, self._n, GraphError)
        return self.in_offsets[node + 1] - self.in_offsets[node]

    def out_neighbors(self, node: int) -> Tuple[int, ...]:
        """Targets of out-edges of ``node`` (immutable tuple)."""
        check_node(node, self._n, GraphError)
        lo, hi = self.out_offsets[node], self.out_offsets[node + 1]
        return tuple(self.out_neighbor_ids[lo:hi])

    def in_neighbors(self, node: int) -> Tuple[int, ...]:
        """Sources of in-edges of ``node`` (immutable tuple)."""
        check_node(node, self._n, GraphError)
        lo, hi = self.in_offsets[node], self.in_offsets[node + 1]
        return tuple(self.in_neighbor_ids[lo:hi])

    def out_adjacency(self, node: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Parallel ``(targets, weights)`` tuples of out-edges of ``node``.

        Unlike the mutable graph's accessor this returns copies, never
        aliases — safe to hold across calls. Kernels that care about the
        copy cost index ``out_offsets``/``out_neighbor_ids``/
        ``out_weights`` directly instead.
        """
        check_node(node, self._n, GraphError)
        lo, hi = self.out_offsets[node], self.out_offsets[node + 1]
        return tuple(self.out_neighbor_ids[lo:hi]), tuple(self.out_weights[lo:hi])

    def in_adjacency(self, node: int) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Parallel ``(sources, weights)`` tuples of in-edges of ``node``.

        Read-only by construction (tuples); see :meth:`out_adjacency`
        for the direct-array alternative on hot paths.
        """
        check_node(node, self._n, GraphError)
        lo, hi = self.in_offsets[node], self.in_offsets[node + 1]
        return tuple(self.in_neighbor_ids[lo:hi]), tuple(self.in_weights[lo:hi])

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        check_node(source, self._n, GraphError)
        check_node(target, self._n, GraphError)
        lo, hi = self.out_offsets[source], self.out_offsets[source + 1]
        ids = self.out_neighbor_ids
        return any(ids[i] == target for i in range(lo, hi))

    def weight(self, source: int, target: int) -> float:
        """The weight of ``source -> target``; 0.0 when the edge is absent."""
        check_node(source, self._n, GraphError)
        check_node(target, self._n, GraphError)
        lo, hi = self.out_offsets[source], self.out_offsets[source + 1]
        ids = self.out_neighbor_ids
        for i in range(lo, hi):
            if ids[i] == target:
                return self.out_weights[i]
        return 0.0

    def edge_id(self, source: int, target: int) -> int:
        """Dense insertion-order id of an existing edge (see DiGraph)."""
        check_node(source, self._n, GraphError)
        check_node(target, self._n, GraphError)
        lo, hi = self.out_offsets[source], self.out_offsets[source + 1]
        ids = self.out_neighbor_ids
        for i in range(lo, hi):
            if ids[i] == target:
                return self.out_edge_ranks[i]
        raise GraphError(f"edge ({source}, {target}) does not exist")

    def in_pairs(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Per-node traversal cache: ``pairs[v]`` is a tuple of
        ``(source, weight)`` pairs in adjacency order.

        Built lazily on first call and cached on the snapshot — the
        RIC and RR sampling kernels iterate these tuples at C speed
        (``for u, w in pairs[v]``) instead of re-slicing the CSR
        buffers per visit, which would box every int. One cache is
        shared by every sampler over the same snapshot, and
        :meth:`DiGraph.in_pairs` builds the same table. The cache is
        not pickled (workers rebuild it lazily on first use).
        """
        if self._in_pairs is None:
            self._in_pairs = _pair_table(
                self.in_offsets, self.in_neighbor_ids, self.in_weights
            )
        return self._in_pairs

    def out_pairs(self) -> List[Tuple[Tuple[int, float], ...]]:
        """Forward mirror of :meth:`in_pairs`: ``pairs[u]`` holds
        ``(target, weight)`` pairs — the IC/LT cascade traversal cache."""
        if self._out_pairs is None:
            self._out_pairs = _pair_table(
                self.out_offsets, self.out_neighbor_ids, self.out_weights
            )
        return self._out_pairs

    def out_edges(self, node: int) -> Iterator[Edge]:
        """Iterate out-edges of ``node`` as :class:`Edge` tuples."""
        check_node(node, self._n, GraphError)
        for i in range(self.out_offsets[node], self.out_offsets[node + 1]):
            yield Edge(node, self.out_neighbor_ids[i], self.out_weights[i])

    def in_edges(self, node: int) -> Iterator[Edge]:
        """Iterate in-edges of ``node`` as :class:`Edge` tuples."""
        check_node(node, self._n, GraphError)
        for i in range(self.in_offsets[node], self.in_offsets[node + 1]):
            yield Edge(self.in_neighbor_ids[i], node, self.in_weights[i])

    def edges(self) -> Iterator[Edge]:
        """Iterate all edges in node order (same order as DiGraph)."""
        for u in range(self._n):
            for i in range(self.out_offsets[u], self.out_offsets[u + 1]):
                yield Edge(u, self.out_neighbor_ids[i], self.out_weights[i])

    # ------------------------------------------------------------------
    # Conversions and equality
    # ------------------------------------------------------------------

    def thaw(self) -> DiGraph:
        """Rebuild an equivalent mutable :class:`DiGraph`.

        Edges are re-added in global insertion-rank order so the thawed
        graph's edge ids (and hence a re-freeze) match the original.
        """
        ordered: List[Tuple[int, int, float]] = [(0, 0, 0.0)] * self._m
        for u in range(self._n):
            for i in range(self.out_offsets[u], self.out_offsets[u + 1]):
                ordered[self.out_edge_ranks[i]] = (
                    u, self.out_neighbor_ids[i], self.out_weights[i]
                )
        graph = DiGraph(self._n)
        for u, v, w in ordered:
            graph.add_edge(u, v, w)
        return graph

    def __repr__(self) -> str:
        return f"FrozenDiGraph(n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FrozenDiGraph, DiGraph)):
            if self._n != other.num_nodes or self._m != other.num_edges:
                return False
            return all(
                other.has_edge(u, v) and abs(other.weight(u, v) - w) < 1e-12
                for u, v, w in self.edges()
            )
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __reduce__(self):
        """Pickle via the flat arrays (no mutable-graph round trip)."""
        return (
            _rebuild_frozen,
            (
                self._n,
                self._m,
                self.out_offsets,
                self.out_neighbor_ids,
                self.out_weights,
                self.out_edge_ranks,
                self.in_offsets,
                self.in_neighbor_ids,
                self.in_weights,
                self.in_edge_ranks,
            ),
        )


def _rebuild_frozen(
    n: int,
    m: int,
    out_offsets: array,
    out_neighbor_ids: array,
    out_weights: array,
    out_edge_ranks: array,
    in_offsets: array,
    in_neighbor_ids: array,
    in_weights: array,
    in_edge_ranks: array,
) -> FrozenDiGraph:
    """Unpickle helper: reassemble a snapshot from its arrays."""
    self = object.__new__(FrozenDiGraph)
    self._n = n
    self._m = m
    self.out_offsets = out_offsets
    self.out_neighbor_ids = out_neighbor_ids
    self.out_weights = out_weights
    self.out_edge_ranks = out_edge_ranks
    self.in_offsets = in_offsets
    self.in_neighbor_ids = in_neighbor_ids
    self.in_weights = in_weights
    self.in_edge_ranks = in_edge_ranks
    self._in_pairs = None
    self._out_pairs = None
    return self
