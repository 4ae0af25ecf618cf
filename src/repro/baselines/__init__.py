"""Heuristic baselines from Section VI-A of the paper.

- :func:`hbc_seeds` — High Beneficial Connection,
- :func:`ks_seeds` — Knapsack-like community selection,
- :func:`im_seeds` / :func:`ris_im` — classic influence maximization
  (spread objective),
- :func:`high_degree_seeds` / :func:`random_seeds` — sanity baselines.
"""

from repro.baselines.degree import high_degree_seeds, random_seeds
from repro.baselines.hbc import beneficial_connection, hbc_seeds
from repro.baselines.im_baseline import im_seeds, ris_im
from repro.baselines.knapsack import knapsack_communities, ks_seeds

__all__ = [
    "hbc_seeds",
    "beneficial_connection",
    "ks_seeds",
    "knapsack_communities",
    "im_seeds",
    "ris_im",
    "high_degree_seeds",
    "random_seeds",
]
