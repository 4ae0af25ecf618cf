"""Conformance: Lemma 1 on the pool against exact ground truth.

Lemma 1 makes ``ĉ_R(S) = (b/|R|) Σ_g X_g(S)`` an unbiased estimate of
``c(S)``: ``Σ_g X_g(S)`` is binomial with success probability
``c(S)/b``. On random IC instances small enough for
:func:`~repro.diffusion.simulator.community_benefit_exact` (at most 12
edges), a fresh 20,000-sample pool per instance must put ``ĉ_R(S)``
within two binomial standard errors of the exact ``c(S)`` for at least
0.9 of all seed sets of size 1 and 2 (0.954 is expected; a seed set
that always or never influences must be estimated exactly), and the
upper bound ``ν_R(S)`` (eq. 7) must never fall below ``ĉ_R(S)``. Each
random graph is also checked as a singleton instance, one threshold-1,
benefit-1 community per node: classic IM, where ``c(S) = σ(S)`` and the
pool is the IM baseline's RR-set pool. The sweep runs in the
``conformance`` lane (it is also ``slow``); one fixed instance of each
kind runs in tier-1. The LT path waits for an exact LT enumerator.
"""

import itertools
import math
import random

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.diffusion.simulator import community_benefit_exact, spread_exact
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import singletons

pytestmark = pytest.mark.conformance

POOL_SIZE = 20_000
MIN_SHARE = 0.9
INSTANCE_SEEDS = range(20)
#: The tier-1 instance: 6 nodes, 9 edges, 21 seed sets, none of which
#: always or never influences.
FIXED_INSTANCE = 8


def random_instance(seed, singleton=False):
    """5-8 nodes, at most 12 edges and one or two communities, or with
    ``singleton`` the same graph with one community per node."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    graph = DiGraph(n)
    for u, v in rng.sample(pairs, rng.randint(4, 12)):
        graph.add_edge(u, v, rng.choice((0.2, 0.4, 0.6, 0.8)))
    if singleton:
        return graph, singletons(n)
    nodes = list(range(n))
    rng.shuffle(nodes)
    communities = []
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(2, 3)
        members, nodes = tuple(nodes[:size]), nodes[size:]
        communities.append(
            Community(
                members=members,
                threshold=rng.randint(1, size),
                benefit=float(rng.randint(1, 3)),
            )
        )
    return graph, CommunityStructure(communities)


def lemma1_cases(seed, singleton=False):
    """``(exact c(S), ĉ_R(S), ν_R(S))`` for every seed set of size 1, 2,
    as shares of ``b``."""
    graph, communities = random_instance(seed, singleton)
    pool = RICSamplePool(RICSampler(graph, communities, seed=seed))
    pool.grow(POOL_SIZE)
    b = communities.total_benefit
    cases = []
    for size in (1, 2):
        for seeds in itertools.combinations(range(graph.num_nodes), size):
            exact = community_benefit_exact(graph, communities, seeds)
            if singleton:
                assert exact == pytest.approx(spread_exact(graph, seeds))
            cases.append(
                (
                    exact / b,
                    pool.estimate_benefit(seeds) / b,
                    pool.estimate_upper_bound(seeds) / b,
                )
            )
    return cases


def check_lemma1(cases):
    """ĉ within two binomial SEs of ``c(S)`` at rate, and ``ν ≥ ĉ``.

    Values are shares of ``b``. A seed set that never or always
    influences (``c(S)/b`` of 0 or 1) has no spread to allow, so its
    estimate must be exact; the others count toward the rate.
    """
    within = []
    for exact, estimate, upper in cases:
        assert upper >= estimate
        if exact < 1e-12 or exact > 1.0 - 1e-12:
            assert estimate == pytest.approx(exact, abs=1e-9)
            continue
        error = math.sqrt(exact * (1.0 - exact) / POOL_SIZE)
        within.append(abs(estimate - exact) <= 2.0 * error)
    assert within
    assert sum(within) / len(within) >= MIN_SHARE


@pytest.mark.slow
def test_pool_estimate_within_two_standard_errors_at_rate():
    for singleton in (False, True):
        check_lemma1(
            [
                case
                for seed in INSTANCE_SEEDS
                for case in lemma1_cases(seed, singleton)
            ]
        )


def test_pool_estimate_within_two_standard_errors_fixed_instance():
    check_lemma1(lemma1_cases(FIXED_INSTANCE))


def test_pool_estimate_within_two_standard_errors_fixed_singleton_instance():
    check_lemma1(lemma1_cases(FIXED_INSTANCE, singleton=True))
