"""Graph substrate: probabilistic directed graphs, builders, generators.

The social network is modelled as a directed graph whose edges carry an
influence probability ``w(u, v) ∈ [0, 1]`` (Section II-A of the paper).
This package provides:

- :class:`~repro.graph.digraph.DiGraph` — the one graph type: forward
  and reverse adjacency (RIC sampling walks in-edges), read by every
  sampler and simulator through its lazy ``in_pairs()``/``out_pairs()``
  tables.
- :mod:`~repro.graph.builders` — construction from edge lists / files,
  undirected-to-directed conversion.
- :mod:`~repro.graph.weights` — edge-weight schemes (weighted-cascade,
  uniform, trivalency).
- :mod:`~repro.graph.generators` — synthetic network generators used as
  stand-ins for the SNAP datasets.
- :mod:`~repro.graph.analysis` — reachability, components, degree stats.
- :mod:`~repro.graph.io` — plain-text edge-list persistence.
"""

from repro.graph.analysis import (
    clustering_coefficient,
    degree_histogram,
    forward_reachable,
    reciprocity,
    reverse_reachable,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.graph.builders import (
    from_edge_list,
    from_undirected_edge_list,
    induced_subgraph,
)
from repro.graph.digraph import DiGraph, Edge
from repro.graph.generators import (
    barabasi_albert_graph,
    copying_model_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    planted_partition_graph,
    stochastic_kronecker_graph,
    watts_strogatz_graph,
)
from repro.graph.paths import (
    average_shortest_path_length,
    bfs_distances,
    effective_diameter,
)
from repro.graph.io import read_edge_list, write_dot, write_edge_list
from repro.graph.weights import (
    assign_trivalency_weights,
    assign_uniform_weights,
    assign_weighted_cascade,
)

__all__ = [
    "DiGraph",
    "Edge",
    "from_edge_list",
    "from_undirected_edge_list",
    "induced_subgraph",
    "assign_weighted_cascade",
    "assign_uniform_weights",
    "assign_trivalency_weights",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "planted_partition_graph",
    "forest_fire_graph",
    "copying_model_graph",
    "stochastic_kronecker_graph",
    "read_edge_list",
    "write_edge_list",
    "write_dot",
    "forward_reachable",
    "reverse_reachable",
    "strongly_connected_components",
    "weakly_connected_components",
    "degree_histogram",
    "clustering_coefficient",
    "reciprocity",
    "bfs_distances",
    "effective_diameter",
    "average_shortest_path_length",
]
