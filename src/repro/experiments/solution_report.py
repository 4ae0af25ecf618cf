"""Per-community breakdown of a seed set's effect.

Given an instance and a seed set, report for every community: its size,
threshold, benefit, how many seeds sit inside it, and its Monte-Carlo
tipping probability — the per-community decomposition of ``c(S)``. The
CLI and examples render it; analyses use the raw rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.communities.structure import CommunityStructure
from repro.diffusion.simulator import average_tipping_profile
from repro.experiments.reporting import ascii_table
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike


@dataclass(frozen=True)
class CommunityOutcome:
    """One community's row in the solution report."""

    index: int
    size: int
    threshold: int
    benefit: float
    seeds_inside: int
    tipping_probability: float

    @property
    def expected_benefit(self) -> float:
        """This community's contribution to ``c(S)``."""
        return self.benefit * self.tipping_probability


def solution_report(
    graph: DiGraph,
    communities: CommunityStructure,
    seeds: Iterable[int],
    num_trials: int = 500,
    model: str = "ic",
    seed: SeedLike = None,
) -> List[CommunityOutcome]:
    """Build the per-community outcome rows under the chosen diffusion
    model, sorted by expected benefit (descending), ties by community
    index."""
    seed_list = list(seeds)
    profile = average_tipping_profile(
        graph,
        communities,
        seed_list,
        num_trials=num_trials,
        model=model,
        seed=seed,
    )
    seed_set = set(seed_list)
    outcomes = []
    for index, community in enumerate(communities):
        inside = sum(1 for member in community.members if member in seed_set)
        outcomes.append(
            CommunityOutcome(
                index=index,
                size=community.size,
                threshold=community.threshold,
                benefit=community.benefit,
                seeds_inside=inside,
                tipping_probability=profile[index],
            )
        )
    outcomes.sort(key=lambda o: (-o.expected_benefit, o.index))
    return outcomes


def render_report(
    outcomes: List[CommunityOutcome], top: Optional[int] = None
) -> str:
    """ASCII rendering of the report (optionally only the ``top`` rows).

    A final row totals the expected benefit — an estimate of ``c(S)``.
    """
    shown = outcomes if top is None else outcomes[:top]
    total = sum(o.expected_benefit for o in outcomes)
    rows = [
        (
            o.index,
            o.size,
            o.threshold,
            o.benefit,
            o.seeds_inside,
            o.tipping_probability,
            o.expected_benefit,
        )
        for o in shown
    ]
    rows.append(("total", "", "", "", "", "", total))
    return ascii_table(
        ["community", "size", "h", "benefit", "seeds in", "Pr[tip]", "E[benefit]"],
        rows,
    )
