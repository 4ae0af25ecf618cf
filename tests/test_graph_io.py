"""Edge-list I/O tests."""

import pytest

from repro.errors import GraphError
from repro.graph.builders import from_edge_list
from repro.graph.io import read_edge_list, write_edge_list


def test_round_trip_exact(tmp_path):
    g = from_edge_list(4, [(0, 1, 0.123456789), (2, 3, 1 / 3)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    loaded = read_edge_list(path)
    assert loaded == g
    assert loaded.num_nodes == 4  # header preserves isolated-node count


def test_write_without_weights_uses_default_on_read(tmp_path):
    g = from_edge_list(2, [(0, 1, 0.7)])
    path = tmp_path / "g.txt"
    write_edge_list(g, path, weights=False)
    loaded = read_edge_list(path, default_weight=0.25)
    assert loaded.weight(0, 1) == 0.25


def test_read_infers_node_count_without_header(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 3\n1 2\n")
    g = read_edge_list(path)
    assert g.num_nodes == 4
    assert g.has_edge(0, 3) and g.has_edge(1, 2)


def test_read_explicit_num_nodes_overrides(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes 3\n0 1\n")
    g = read_edge_list(path, num_nodes=10)
    assert g.num_nodes == 10


def test_read_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n\n0 1 0.5\n# another\n1 2 0.75\n")
    g = read_edge_list(path)
    assert g.num_edges == 2
    assert g.weight(1, 2) == 0.75


def test_read_rejects_malformed_line(tmp_path):
    """Every parse failure names the file and line as a GraphError."""
    path = tmp_path / "g.txt"
    for bad in ("0 1 0.5 extra junk", "a b", "0 1 heavy", "# nodes x"):
        path.write_text(f"0 1 0.5\n{bad}\n")
        with pytest.raises(GraphError, match=r"g\.txt:2: .*got"):
            read_edge_list(path)


def test_write_dot_basic(tmp_path):
    from repro.graph.io import write_dot

    g = from_edge_list(3, [(0, 1, 0.5), (1, 2, 0.25)])
    path = tmp_path / "g.dot"
    write_dot(g, path)
    text = path.read_text()
    assert text.startswith("digraph G {")
    assert "0 -> 1" in text and 'label="0.50"' in text
    assert "1 -> 2" in text and 'label="0.25"' in text


def test_write_dot_with_communities_and_seeds(tmp_path):
    from repro.communities.structure import Community, CommunityStructure
    from repro.graph.io import write_dot

    g = from_edge_list(4, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=1, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    path = tmp_path / "g.dot"
    write_dot(g, path, communities=communities, seeds=[0])
    text = path.read_text()
    assert "doublecircle" in text  # the seed
    assert "lightblue" in text  # community 0 colour
    # Node 3 is in no community: white.
    assert 'fillcolor="white"' in text


def test_write_dot_guards_size(tmp_path):
    from repro.graph.digraph import DiGraph
    from repro.graph.io import write_dot

    with pytest.raises(GraphError, match="refusing"):
        write_dot(DiGraph(5000), tmp_path / "big.dot")
