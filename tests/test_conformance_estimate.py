"""Conformance: Algorithm 6's estimate against exact ground truth.

Dagum's stopping rule promises ``Pr[|ĉ − c(S)| ≤ ε·c(S)] ≥ 1 − δ``.
On the paper's Fig. 2 gadget ``c(S)`` is exact by live-edge
enumeration (:func:`~repro.diffusion.simulator.community_benefit_exact`),
so the share of ``Estimate`` runs that land within ``(1 ± ε)·c(S)``,
over many sampler seeds, must be at least ``1 − δ``. The sweep runs in
the ``conformance`` lane (it is also ``slow``); one fixed-seed slice of
it runs in tier-1.
"""

import pytest

from repro.core.framework import estimate_benefit
from repro.diffusion.simulator import community_benefit_exact
from repro.sampling.ric import RICSampler

pytestmark = pytest.mark.conformance

EPSILON = DELTA = 0.2
#: c = 0.09, 0.216 and 0.51: one, two and three seeds, a member among
#: the last.
SEED_SETS = ((1,), (0, 1), (0, 1, 3))
SAMPLER_SEEDS = range(200)


def _within_epsilon(graph, communities, seeds, sampler_seed) -> bool:
    exact = community_benefit_exact(graph, communities, seeds)
    result = estimate_benefit(
        RICSampler(graph, communities, seed=sampler_seed),
        seeds,
        epsilon=EPSILON,
        delta=DELTA,
    )
    assert result.converged
    return abs(result.value - exact) <= EPSILON * exact


@pytest.mark.slow
@pytest.mark.parametrize("seeds", SEED_SETS)
def test_estimate_within_epsilon_at_rate_one_minus_delta(
    fig2_graph, fig2_communities, seeds
):
    hits = sum(
        _within_epsilon(fig2_graph, fig2_communities, seeds, sampler_seed)
        for sampler_seed in SAMPLER_SEEDS
    )
    assert hits / len(SAMPLER_SEEDS) >= 1 - DELTA


def test_estimate_within_epsilon_fixed_seed(fig2_graph, fig2_communities):
    for seeds in SEED_SETS:
        assert _within_epsilon(fig2_graph, fig2_communities, seeds, 0)
