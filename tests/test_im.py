"""Classic IM solver tests (RIS)."""

import pytest

from repro.diffusion.simulator import spread_exact, spread_monte_carlo
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import assign_weighted_cascade
from repro.im.ris_im import ris_im, rr_greedy_cover
from repro.sampling.pool import RRSamplePool
from repro.sampling.rr import RRSampler


@pytest.fixture
def star_graph():
    """Hub 0 -> leaves 1..5 with p = 0.9; node 6 isolated."""
    g = from_edge_list(7, [(0, i, 0.9) for i in range(1, 6)])
    return g


def test_rr_greedy_cover_picks_hub(star_graph):
    pool = RRSamplePool(RRSampler(star_graph, seed=1))
    pool.grow(400)
    seeds = rr_greedy_cover(pool, 1)
    assert seeds == [0]


def test_rr_greedy_cover_multiple_seeds(star_graph):
    pool = RRSamplePool(RRSampler(star_graph, seed=2))
    pool.grow(400)
    seeds = rr_greedy_cover(pool, 2)
    assert 0 in seeds
    assert len(seeds) == 2


def test_ris_im_returns_hub_and_spread_estimate(star_graph):
    seeds, spread = ris_im(star_graph, 1, seed=3, max_samples=5000)
    assert seeds == [0]
    exact = spread_exact(star_graph, [0], max_edges=10)
    assert spread == pytest.approx(exact, rel=0.25)


def test_ris_im_validates(star_graph):
    with pytest.raises(SolverError):
        ris_im(star_graph, 0)
    with pytest.raises(SolverError):
        ris_im(star_graph, 1, epsilon=0.0)


def test_ris_im_near_optimal_on_scale_free():
    graph = barabasi_albert_graph(120, 2, directed=False, seed=4)
    assign_weighted_cascade(graph)
    seeds, _ = ris_im(graph, 5, seed=5, max_samples=20_000)
    ours = spread_monte_carlo(graph, seeds, num_trials=800, seed=6)
    # Compare to the high-degree heuristic — RIS should match or beat it.
    from repro.baselines.degree import high_degree_seeds

    hd = spread_monte_carlo(
        graph, high_degree_seeds(graph, 5), num_trials=800, seed=6
    )
    assert ours >= 0.9 * hd

