"""RR sets: RIC samples over singleton communities (the IM baseline's).

With one threshold-1 community per node, the sample of community ``v``
is the RR set rooted at ``v``: every node with a realised path to
``v``, ``v`` included (Borgs et al. 2014).
"""

import pytest

from repro.baselines import ris_im
from repro.diffusion.simulator import spread_exact
from repro.errors import CommunityError, SamplingError, SolverError
from repro.graph.builders import from_edge_list
from repro.graph.digraph import DiGraph
from repro.sampling.ric import RICSampler

from tests.ric_samples import singletons


def rr_sampler(graph, seed):
    return RICSampler(graph, singletons(graph.num_nodes), seed=seed)


def test_rr_set_contains_root():
    g = from_edge_list(3, [(0, 1, 0.5)])
    sampler = rr_sampler(g, 1)
    for _ in range(20):
        assert 1 in sampler.sample(1).nodes


def test_rr_set_only_reverse_reachable():
    g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
    sampler = rr_sampler(g, 2)
    assert set(sampler.sample(1).nodes) <= {0, 1}
    assert set(sampler.sample(3).nodes) <= {2, 3}


def test_rr_deterministic_edges_fully_included():
    g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    sampler = rr_sampler(g, 3)
    assert set(sampler.sample(2).nodes) == {0, 1, 2}


def test_empty_graph_rejected():
    with pytest.raises(CommunityError):
        singletons(0)
    with pytest.raises(SolverError):
        ris_im(DiGraph(0), 1)


def test_spread_identity_borgs_et_al():
    """sigma(S) = n * Pr[RR ∩ S != {}] — validated against exact spread."""
    g = from_edge_list(3, [(0, 1, 0.5), (1, 2, 0.5)])
    trials = 40_000
    hits = sum(0 in s.nodes for s in rr_sampler(g, 4).sample_many(trials))
    estimate = g.num_nodes * hits / trials
    assert estimate == pytest.approx(spread_exact(g, [0]), abs=0.05)


def test_sample_many():
    g = from_edge_list(2, [(0, 1, 0.5)])
    sampler = rr_sampler(g, 5)
    assert len(sampler.sample_many(30)) == 30
    with pytest.raises(SamplingError):
        sampler.sample_many(-2)
