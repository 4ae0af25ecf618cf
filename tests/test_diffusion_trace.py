"""Community tipping profile tests."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.diffusion import average_tipping_profile, community_benefit_monte_carlo
from repro.experiments.solution_report import solution_report
from repro.graph.builders import from_edge_list


@pytest.fixture
def chain_instance():
    """0 -> 1 -> 2 -> 3 deterministic; community {1,2} h=2, {3} h=1."""
    graph = from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    communities = CommunityStructure(
        [
            Community(members=(1, 2), threshold=2, benefit=2.0),
            Community(members=(3,), threshold=1, benefit=1.0),
        ]
    )
    return graph, communities


def test_average_tipping_profile_probabilities():
    # 0 -> 1 with p=0.5; community {1} needs 1 member.
    graph = from_edge_list(2, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1,), threshold=1, benefit=1.0)]
    )
    profile = average_tipping_profile(
        graph, communities, [0], num_trials=8000, seed=4
    )
    assert profile[0] == pytest.approx(0.5, abs=0.03)


def test_average_tipping_profile_matches_benefit_decomposition(chain_instance):
    graph, communities = chain_instance
    profile = average_tipping_profile(
        graph, communities, [0], num_trials=50, seed=5
    )
    # Deterministic chain: both communities always tip.
    assert profile == {0: 1.0, 1: 1.0}


def test_tipping_profile_follows_the_diffusion_model():
    # 0 -> 1 <- 2 at weight 0.5 each, seeds {0, 2}. Under LT node 1's
    # active in-weight is 1.0, above every threshold, so {1} always
    # tips; under IC it tips unless both coins fail: 1 - 0.5^2 = 0.75.
    graph = from_edge_list(3, [(0, 1, 0.5), (2, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1,), threshold=1, benefit=1.0)]
    )
    lt = average_tipping_profile(
        graph, communities, [0, 2], num_trials=500, model="lt", seed=1
    )
    assert lt == {0: 1.0}
    (outcome,) = solution_report(
        graph, communities, [0, 2], num_trials=500, model="lt", seed=1
    )
    assert outcome.tipping_probability == 1.0
    ic = average_tipping_profile(
        graph, communities, [0, 2], num_trials=4000, model="ic", seed=2
    )
    assert ic[0] == pytest.approx(0.75, abs=0.03)
    # The profile's trials are the Monte-Carlo c(S) trials.
    assert ic[0] == community_benefit_monte_carlo(
        graph, communities, [0, 2], num_trials=4000, model="ic", seed=2
    )


def test_tipping_profile_rejects_bad_trials_and_models(chain_instance):
    from repro.errors import EstimationError

    graph, communities = chain_instance
    with pytest.raises(EstimationError):
        average_tipping_profile(graph, communities, [0], num_trials=0)
    with pytest.raises(EstimationError):
        average_tipping_profile(graph, communities, [0], model="sir")
