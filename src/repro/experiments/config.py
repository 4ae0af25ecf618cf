"""Experiment configuration.

One :class:`ExperimentConfig` describes an IMC *instance family*: which
dataset stand-in, how communities are formed (Louvain vs Random, size
cap ``s``), which threshold policy (bounded ``h=2`` vs fractional 50%)
and the statistical parameters. The paper's defaults (Section VI-A) are
the field defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ExperimentError

#: Algorithms understood by the runner. "UBG"/"MAF"/"BT"/"MB"/"GreedyC"
#: are MAXR solvers run on a RIC pool; the rest are direct baselines.
ALGORITHMS: Tuple[str, ...] = (
    "UBG",
    "MAF",
    "BT",
    "MB",
    "GreedyC",
    "HBC",
    "KS",
    "IM",
    "Degree",
    "Random",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters defining an IMC experiment instance."""

    dataset: str = "facebook"
    #: Fraction of the dataset's reference size to generate.
    scale: float = 0.25
    #: Community formation: "louvain" (paper's default), "random", or
    #: "label-propagation" (extension detector).
    formation: str = "louvain"
    #: Number of communities for the random formation (``None`` ->
    #: match the Louvain community count of the same instance).
    random_communities: Optional[int] = None
    #: Size cap ``s`` (Section VI-A; default 8). ``None`` disables.
    size_cap: Optional[int] = 8
    #: "bounded" -> ``h_i = min(2, |C_i|)``; "fractional" -> ``h_i = 0.5|C_i|``.
    threshold: str = "fractional"
    #: Constant for the bounded policy.
    bounded_value: int = 2
    #: RIC pool size for fixed-pool solver comparisons.
    pool_size: int = 2_000
    #: Monte-Carlo trials when evaluating ``c(S)`` for a returned seed set.
    eval_trials: int = 300
    #: RIC sampling worker processes: ``None`` samples in this process,
    #: ``n`` fans out to ``n`` processes (identical samples for a fixed
    #: seed, so results don't change).
    workers: Optional[int] = None
    epsilon: float = 0.2
    delta: float = 0.2
    seed: int = 7

    def __post_init__(self) -> None:
        if self.formation not in (
            "louvain",
            "random",
            "label-propagation",
            "greedy-modularity",
        ):
            raise ExperimentError(
                "formation must be one of 'louvain', 'random', "
                "'label-propagation', 'greedy-modularity'; got "
                f"{self.formation!r}"
            )
        if self.threshold not in ("bounded", "fractional"):
            raise ExperimentError(
                "threshold must be 'bounded' or 'fractional', got "
                f"{self.threshold!r}"
            )
        if self.scale <= 0:
            raise ExperimentError(f"scale must be positive, got {self.scale}")
        if self.pool_size < 1:
            raise ExperimentError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )
        if self.eval_trials < 1:
            raise ExperimentError(
                f"eval_trials must be >= 1, got {self.eval_trials}"
            )
        if self.workers is not None and self.workers < 1:
            raise ExperimentError(
                f"workers must be >= 1, got {self.workers}"
            )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        from dataclasses import replace

        return replace(self, **kwargs)
