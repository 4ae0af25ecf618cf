"""Independent Cascade model tests."""

import pytest

from repro.diffusion.independent_cascade import (
    sample_live_edge_graph,
    simulate_ic,
)
from repro.graph.builders import from_edge_list
from repro.graph.digraph import DiGraph
from repro.rng import make_rng


def test_seeds_always_active(line_graph):
    active = simulate_ic(line_graph, [2], seed=1)
    assert 2 in active


def test_deterministic_edges_spread_fully(line_graph):
    active = simulate_ic(line_graph, [0], seed=1)
    assert active == {0, 1, 2, 3}


def test_zero_weight_edges_never_fire():
    g = from_edge_list(2, [(0, 1, 0.0)])
    for s in range(50):
        assert simulate_ic(g, [0], seed=s) == {0}


def test_no_backward_influence(line_graph):
    assert simulate_ic(line_graph, [3], seed=1) == {3}


def test_empty_seed_set():
    g = from_edge_list(2, [(0, 1, 1.0)])
    assert simulate_ic(g, [], seed=1) == set()


def test_duplicate_seeds_handled(line_graph):
    assert simulate_ic(line_graph, [0, 0, 1], seed=1) == {0, 1, 2, 3}


def test_activation_probability_matches_edge_weight():
    g = from_edge_list(2, [(0, 1, 0.3)])
    rng = make_rng(42)
    trials = 20_000
    hits = sum(1 in simulate_ic(g, [0], seed=rng) for _ in range(trials))
    assert hits / trials == pytest.approx(0.3, abs=0.02)


def test_two_hop_probability_is_product():
    g = from_edge_list(3, [(0, 1, 0.5), (1, 2, 0.5)])
    rng = make_rng(7)
    trials = 20_000
    hits = sum(2 in simulate_ic(g, [0], seed=rng) for _ in range(trials))
    assert hits / trials == pytest.approx(0.25, abs=0.02)


def test_live_edge_view_matches_simulation_distribution():
    """IC and the live-edge (sample graph) formulation agree."""
    g = from_edge_list(3, [(0, 1, 0.4), (0, 2, 0.6), (1, 2, 0.5)])
    rng_a, rng_b = make_rng(1), make_rng(2)
    trials = 20_000
    from repro.graph.analysis import forward_reachable

    ic_hits = sum(
        2 in simulate_ic(g, [0], seed=rng_a) for _ in range(trials)
    )
    live_hits = sum(
        2 in forward_reachable(sample_live_edge_graph(g, seed=rng_b), [0])
        for _ in range(trials)
    )
    assert ic_hits / trials == pytest.approx(live_hits / trials, abs=0.02)


def test_sample_live_edge_graph_edges_subset():
    g = from_edge_list(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
    live = sample_live_edge_graph(g, seed=3)
    for u, v, w in live.edges():
        assert g.has_edge(u, v)
        assert w == 1.0


def test_sample_live_edge_extreme_probabilities():
    g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 0.0)])
    live = sample_live_edge_graph(g, seed=4)
    assert live.has_edge(0, 1)
    assert not live.has_edge(1, 2)


def test_deterministic_with_seed(triangle_graph):
    a = simulate_ic(triangle_graph, [0], seed=99)
    b = simulate_ic(triangle_graph, [0], seed=99)
    assert a == b
