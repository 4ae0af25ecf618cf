"""Forward evaluation of spread and community benefit.

``c(S)`` — the expected benefit of influenced communities — is #P-hard
to compute exactly, so the library offers these evaluators:

- :func:`community_benefit_monte_carlo` — plain Monte-Carlo mean over
  IC (or LT) cascades, one trial loop shared with
  :func:`spread_monte_carlo` and :func:`average_tipping_profile`;
- :class:`BenefitEvaluator` — the same with a persistent configuration,
  shared by experiments;
- :func:`community_benefit_exact` — exact value by enumerating all
  live-edge realisations; exponential in ``m``, for tiny test graphs
  only (it is the ground truth the samplers are validated against).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, Iterable, Iterator, List, Set

from repro.communities.structure import CommunityStructure
from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.linear_threshold import check_lt_weights, simulate_lt
from repro.errors import EstimationError
from repro.graph.analysis import forward_reachable
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng, spawn_rng

# LT's cascades skip the weight check: _cascades runs it once per call.
_MODELS = {"ic": simulate_ic, "lt": partial(simulate_lt, strict=False)}


def influenced_communities(
    active: Set[int], communities: CommunityStructure
) -> List[int]:
    """Indices of communities whose activated-member count meets ``h_i``."""
    counts = [0] * communities.r
    for node in active:
        idx = communities.community_of(node)
        if idx is not None:
            counts[idx] += 1
    return [
        i for i, community in enumerate(communities) if counts[i] >= community.threshold
    ]


def benefit_of_active_set(
    active: Set[int], communities: CommunityStructure
) -> float:
    """Total benefit of the communities influenced by ``active``."""
    return sum(
        communities[i].benefit for i in influenced_communities(active, communities)
    )


def _cascades(
    graph: DiGraph,
    seeds: Iterable[int],
    num_trials: int,
    model: str,
    seed: SeedLike,
) -> Iterator[Set[int]]:
    """Active sets of ``num_trials`` cascades of ``model`` from ``seeds``.

    Each cascade runs on its own child stream of ``seed``'s RNG, in
    trial order. Every Monte-Carlo evaluator is a loop over this.
    """
    if num_trials < 1:
        raise EstimationError(f"num_trials must be >= 1, got {num_trials}")
    cascade = _MODELS.get(model)
    if cascade is None:
        raise EstimationError(f"unknown model {model!r}; expected 'ic' or 'lt'")
    if model == "lt":
        check_lt_weights(graph)
    rng = make_rng(seed)
    seed_list = list(seeds)
    for _ in range(num_trials):
        yield cascade(graph, seed_list, seed=spawn_rng(rng))


def community_benefit_monte_carlo(
    graph: DiGraph,
    communities: CommunityStructure,
    seeds: Iterable[int],
    num_trials: int = 1000,
    model: str = "ic",
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of ``c(S)`` under the chosen diffusion model."""
    total = 0.0
    for active in _cascades(graph, seeds, num_trials, model, seed):
        total += benefit_of_active_set(active, communities)
    return total / num_trials


def spread_monte_carlo(
    graph: DiGraph,
    seeds: Iterable[int],
    num_trials: int = 1000,
    model: str = "ic",
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of the classic influence spread ``σ(S)``."""
    total = 0
    for active in _cascades(graph, seeds, num_trials, model, seed):
        total += len(active)
    return total / num_trials


def average_tipping_profile(
    graph: DiGraph,
    communities: CommunityStructure,
    seeds: Iterable[int],
    num_trials: int = 200,
    model: str = "ic",
    seed: SeedLike = None,
) -> Dict[int, float]:
    """Per-community probability of tipping, averaged over cascades.

    Returns ``{community_index: Pr[tipped]}`` under the chosen
    diffusion model — the per-community decomposition of
    ``c(S)/b_i``. Communities that never tip across all trials are
    included with probability 0.0.
    """
    tipped_counts = [0] * communities.r
    for active in _cascades(graph, seeds, num_trials, model, seed):
        for index in influenced_communities(active, communities):
            tipped_counts[index] += 1
    return {i: tipped_counts[i] / num_trials for i in range(communities.r)}


def _live_edge_realizations(graph: DiGraph):
    """Yield ``(probability, live_graph)`` over all 2^m edge subsets."""
    edge_list = list(graph.edges())
    for keep_mask in itertools.product((False, True), repeat=len(edge_list)):
        probability = 1.0
        live = DiGraph(graph.num_nodes)
        for keep, (u, v, w) in zip(keep_mask, edge_list):
            if keep:
                probability *= w
                live.add_edge(u, v, 1.0)
            else:
                probability *= 1.0 - w
        if probability > 0.0:
            yield probability, live


def community_benefit_exact(
    graph: DiGraph,
    communities: CommunityStructure,
    seeds: Iterable[int],
    max_edges: int = 20,
) -> float:
    """Exact ``c(S)`` by enumerating all live-edge graphs.

    Exponential in the edge count — guarded by ``max_edges``. This is
    the ground truth used to validate RIC unbiasedness in the tests.
    """
    if graph.num_edges > max_edges:
        raise EstimationError(
            f"exact evaluation enumerates 2^m graphs; m={graph.num_edges} "
            f"exceeds max_edges={max_edges}"
        )
    seed_list = list(seeds)
    expected = 0.0
    for probability, live in _live_edge_realizations(graph):
        active = forward_reachable(live, seed_list)
        expected += probability * benefit_of_active_set(active, communities)
    return expected


def spread_exact(
    graph: DiGraph, seeds: Iterable[int], max_edges: int = 20
) -> float:
    """Exact influence spread ``σ(S)`` by live-edge enumeration."""
    if graph.num_edges > max_edges:
        raise EstimationError(
            f"exact evaluation enumerates 2^m graphs; m={graph.num_edges} "
            f"exceeds max_edges={max_edges}"
        )
    seed_list = list(seeds)
    expected = 0.0
    for probability, live in _live_edge_realizations(graph):
        expected += probability * len(forward_reachable(live, seed_list))
    return expected


class BenefitEvaluator:
    """Reusable ``c(S)`` evaluator with a fixed configuration.

    Experiments evaluate many seed sets against the same
    (graph, communities, model) triple; this class carries that context
    and hands each evaluation an independent child RNG stream.
    """

    def __init__(
        self,
        graph: DiGraph,
        communities: CommunityStructure,
        num_trials: int = 1000,
        model: str = "ic",
        seed: SeedLike = None,
    ) -> None:
        if model not in _MODELS:
            raise EstimationError(f"unknown model {model!r}; expected 'ic' or 'lt'")
        communities.validate_against(graph.num_nodes)
        self.graph = graph
        self.communities = communities
        self.num_trials = num_trials
        self.model = model
        self._rng = make_rng(seed)

    def advance(self, count: int = 1) -> None:
        """Burn ``count`` child RNG streams without evaluating.

        Each :meth:`__call__` consumes one child stream from the
        evaluator's master RNG, so the Nth evaluation depends on how
        many came before it. Checkpoint resume uses this to skip the
        streams of runs restored from disk, keeping every *recomputed*
        benefit byte-identical to an uninterrupted session.
        """
        for _ in range(count):
            spawn_rng(self._rng)

    def __call__(self, seeds: Iterable[int]) -> float:
        """Estimate ``c(seeds)``."""
        return community_benefit_monte_carlo(
            self.graph,
            self.communities,
            seeds,
            num_trials=self.num_trials,
            model=self.model,
            seed=spawn_rng(self._rng),
        )
