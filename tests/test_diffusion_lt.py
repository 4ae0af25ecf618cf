"""Linear Threshold model tests."""

import pytest

from repro.diffusion.linear_threshold import simulate_lt
from repro.errors import GraphError
from repro.graph.builders import from_edge_list
from repro.graph.weights import assign_weighted_cascade
from repro.rng import make_rng


def test_seeds_always_active():
    g = from_edge_list(3, [(0, 1, 0.5)])
    assert 0 in simulate_lt(g, [0], seed=1)


def test_strict_rejects_overweight_node():
    g = from_edge_list(3, [(0, 2, 0.8), (1, 2, 0.8)])
    with pytest.raises(GraphError, match="sum to <= 1"):
        simulate_lt(g, [0], seed=1)


def test_non_strict_allows_overweight():
    g = from_edge_list(3, [(0, 2, 0.8), (1, 2, 0.8)])
    active = simulate_lt(g, [0, 1], seed=1, strict=False)
    assert {0, 1} <= active


def test_weighted_cascade_weights_are_lt_valid():
    g = from_edge_list(4, [(0, 3), (1, 3), (2, 3), (3, 0)])
    assign_weighted_cascade(g)
    simulate_lt(g, [0], seed=2)  # no exception


def test_full_incoming_mass_forces_activation():
    # Node 1's only in-edge carries weight 1.0; thresholds are in [0,1),
    # so an active 0 always activates 1.
    g = from_edge_list(2, [(0, 1, 1.0)])
    for s in range(30):
        assert simulate_lt(g, [0], seed=s) == {0, 1}


def test_activation_probability_equals_incoming_weight():
    # With a single in-edge of weight w, Pr[activate] = Pr[theta <= w] = w.
    g = from_edge_list(2, [(0, 1, 0.3)])
    rng = make_rng(11)
    trials = 20_000
    hits = sum(1 in simulate_lt(g, [0], seed=rng) for _ in range(trials))
    assert hits / trials == pytest.approx(0.3, abs=0.02)


def test_lt_accumulates_across_neighbors():
    # Two in-edges of 0.5 each: both sources active -> always activated.
    g = from_edge_list(3, [(0, 2, 0.5), (1, 2, 0.5)])
    for s in range(30):
        active = simulate_lt(g, [0, 1], seed=s)
        assert 2 in active


def test_empty_seed_set():
    g = from_edge_list(2, [(0, 1, 0.5)])
    assert simulate_lt(g, [], seed=1) == set()


def test_deterministic_with_seed():
    g = from_edge_list(4, [(0, 1, 0.5), (1, 2, 0.5), (0, 3, 0.5)])
    assert simulate_lt(g, [0], seed=5) == simulate_lt(g, [0], seed=5)


def test_monte_carlo_evaluators_check_the_weights_once_per_call(monkeypatch):
    from repro.communities.structure import Community, CommunityStructure
    from repro.diffusion import linear_threshold, simulator

    communities = CommunityStructure(
        [Community(members=(2,), threshold=1, benefit=1.0)]
    )
    evaluators = (
        lambda g: simulator.community_benefit_monte_carlo(
            g, communities, [0], num_trials=50, model="lt"
        ),
        lambda g: simulator.spread_monte_carlo(g, [0], num_trials=50, model="lt"),
        lambda g: simulator.average_tipping_profile(
            g, communities, [0], num_trials=50, model="lt"
        ),
    )
    overweight = from_edge_list(3, [(0, 2, 0.8), (1, 2, 0.8)])
    for evaluate in evaluators:
        with pytest.raises(GraphError, match="sum to <= 1"):
            evaluate(overweight)

    calls = []

    def counted(graph):
        calls.append(graph)
        check(graph)

    check = linear_threshold.check_lt_weights
    monkeypatch.setattr(linear_threshold, "check_lt_weights", counted)
    monkeypatch.setattr(simulator, "check_lt_weights", counted)
    valid = from_edge_list(3, [(0, 2, 0.5), (1, 2, 0.5)])
    for evaluate in evaluators:
        calls.clear()
        evaluate(valid)
        assert len(calls) == 1
