"""Plain-text edge-list persistence.

Format: an optional header line ``# nodes <n>`` followed by one edge per
line — ``source target [weight]`` — with ``#`` comments allowed anywhere.
This mirrors the SNAP edge-list format the paper's datasets ship in,
extended with an optional weight column.
"""

from __future__ import annotations

import os
from typing import Optional, TextIO, Union

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

PathLike = Union[str, "os.PathLike[str]"]


def write_edge_list(graph: DiGraph, path: PathLike, weights: bool = True) -> None:
    """Write ``graph`` to ``path`` in edge-list format.

    When ``weights`` is true a third column holds each edge probability
    with full ``repr`` precision, so a round-trip is exact.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {graph.num_nodes}\n")
        for u, v, w in graph.edges():
            if weights:
                fh.write(f"{u} {v} {w!r}\n")
            else:
                fh.write(f"{u} {v}\n")


def write_dot(
    graph: DiGraph,
    path: PathLike,
    communities=None,
    seeds=None,
    max_nodes: int = 2000,
) -> None:
    """Write ``graph`` as GraphViz DOT for visual inspection.

    Optional ``communities`` (a
    :class:`~repro.communities.structure.CommunityStructure`) colors
    nodes by community; optional ``seeds`` renders seed nodes as
    double circles. Edge labels carry the influence probabilities.
    ``max_nodes`` guards against accidentally dumping a huge graph.
    """
    if graph.num_nodes > max_nodes:
        raise GraphError(
            f"refusing to write DOT for {graph.num_nodes} nodes "
            f"(max_nodes={max_nodes}); raise the limit explicitly"
        )
    palette = (
        "lightblue", "lightgreen", "lightsalmon", "khaki", "plum",
        "lightcyan", "wheat", "mistyrose", "palegreen", "lavender",
    )
    seed_set = set(seeds) if seeds is not None else set()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("digraph G {\n  rankdir=LR;\n  node [style=filled];\n")
        for v in graph.nodes():
            attributes = []
            if communities is not None:
                index = communities.community_of(v)
                color = (
                    palette[index % len(palette)]
                    if index is not None
                    else "white"
                )
                attributes.append(f'fillcolor="{color}"')
            else:
                attributes.append('fillcolor="white"')
            if v in seed_set:
                attributes.append("shape=doublecircle")
            fh.write(f"  {v} [{', '.join(attributes)}];\n")
        for u, v, w in graph.edges():
            fh.write(f'  {u} -> {v} [label="{w:.2f}"];\n')
        fh.write("}\n")


def read_edge_list(
    path: PathLike,
    num_nodes: Optional[int] = None,
    default_weight: float = 1.0,
) -> DiGraph:
    """Read a graph from an edge-list file.

    The node count comes from (in priority order) the explicit
    ``num_nodes`` argument, a ``# nodes <n>`` header, or
    ``1 + max node id`` seen in the file.
    """
    header_nodes: Optional[int] = None
    edges = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) == 2 and parts[0] == "nodes":
                        header_nodes = int(parts[1])
                    continue
                parts = line.split()
                if len(parts) not in (2, 3):
                    raise ValueError("expected 'u v [w]'")
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else default_weight
            except ValueError as exc:
                raise GraphError(
                    f"{path}:{lineno}: {exc}, got {line!r}"
                ) from None
            edges.append((u, v, w))
            max_id = max(max_id, u, v)
    n = num_nodes if num_nodes is not None else (
        header_nodes if header_nodes is not None else max_id + 1
    )
    graph = DiGraph(n)
    for u, v, w in edges:
        graph.add_edge(u, v, w)
    return graph
