"""Diffusion substrate: IC/LT propagation, benefit evaluation, estimators.

Provides forward Monte-Carlo simulation of the Independent Cascade and
Linear Threshold models, live-edge sampling, community-benefit
evaluation ``c(S)``, exact evaluation by live-edge enumeration on tiny
graphs, and the Dagum–Karp–Luby–Ross stopping-rule estimator used by
Algorithm 6 of the paper.
"""

from repro.diffusion.common_worlds import CommonWorldEvaluator
from repro.diffusion.estimators import (
    DagumEstimate,
    dagum_stopping_rule,
    mean_with_confidence,
)
from repro.diffusion.independent_cascade import (
    sample_live_edge_graph,
    simulate_ic,
)
from repro.diffusion.linear_threshold import (
    check_lt_weights,
    lt_live_edge_graph,
    simulate_lt,
)
from repro.diffusion.simulator import (
    BenefitEvaluator,
    average_tipping_profile,
    community_benefit_exact,
    community_benefit_monte_carlo,
    influenced_communities,
    spread_exact,
    spread_monte_carlo,
)

__all__ = [
    "simulate_ic",
    "simulate_lt",
    "sample_live_edge_graph",
    "lt_live_edge_graph",
    "check_lt_weights",
    "average_tipping_profile",
    "BenefitEvaluator",
    "CommonWorldEvaluator",
    "influenced_communities",
    "community_benefit_monte_carlo",
    "community_benefit_exact",
    "spread_monte_carlo",
    "spread_exact",
    "DagumEstimate",
    "dagum_stopping_rule",
    "mean_with_confidence",
]
