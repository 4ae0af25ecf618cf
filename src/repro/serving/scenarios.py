"""Scenario specs: the (graph, community-scenario) keys shards warm up.

A :class:`ScenarioSpec` pins everything that determines a shard's
sample distribution — dataset, scale, threshold policy, diffusion
model, seed — so two servers configured with the same spec build
byte-identical pools (the same guarantee the offline pipeline makes).
:func:`build_instance` materialises the spec into the ``(graph,
communities)`` pair a :class:`~repro.serving.shards.WarmShard` samples
from; :func:`default_scenarios` builds one spec per requested dataset.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Sequence, Tuple

from repro.communities.louvain import louvain_communities
from repro.communities.structure import CommunityStructure
from repro.communities.thresholds import (
    build_structure,
    constant_thresholds,
    fractional_thresholds,
)
from repro.datasets.registry import DATASETS, load_dataset
from repro.errors import ServingError
from repro.graph.digraph import DiGraph
from repro.rng import derive_seed


@dataclass(frozen=True)
class ScenarioSpec:
    """Immutable description of one servable IMC instance.

    ``name`` is the key clients send in ``/solve`` payloads; everything
    else pins the instance so a shard rebuilt after eviction (or on a
    different server) regenerates the *same* pool distribution.
    ``pool_size`` is the warm target: the sample count a shard grows to
    before answering its first request.
    """

    name: str
    dataset: str
    scale: float = 0.2
    threshold: str = "bounded"
    size_cap: int = 8
    model: str = "ic"
    seed: int = 7
    pool_size: int = 600

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ServingError(
                f"scenario {self.name!r} names unknown dataset "
                f"{self.dataset!r} (known: {', '.join(DATASETS)})"
            )
        if self.threshold not in ("bounded", "fractional"):
            raise ServingError(
                f"scenario {self.name!r} threshold must be 'bounded' or "
                f"'fractional', got {self.threshold!r}"
            )
        if self.pool_size < 1:
            raise ServingError(
                f"scenario {self.name!r} pool_size must be >= 1, got "
                f"{self.pool_size}"
            )

    def describe(self) -> Dict[str, object]:
        """JSON-ready copy of the spec (for ``/status``)."""
        return asdict(self)


def build_instance(spec: ScenarioSpec) -> Tuple[DiGraph, CommunityStructure]:
    """Materialise ``spec`` into its ``(graph, communities)`` pair.

    The same pipeline as ``python -m repro solve``: load the dataset
    stand-in at ``spec.scale``, detect Louvain communities and attach
    the threshold policy. Shards sample the returned graph as built.
    """
    dataset = load_dataset(
        spec.dataset, scale=spec.scale, seed=derive_seed(spec.seed, "dataset")
    )
    graph = dataset.graph
    blocks = louvain_communities(graph, seed=derive_seed(spec.seed, "louvain"))
    policy = (
        constant_thresholds(2)
        if spec.threshold == "bounded"
        else fractional_thresholds(0.5)
    )
    communities = build_structure(
        blocks, size_cap=spec.size_cap, threshold_policy=policy
    )
    return graph, communities


def default_scenarios(
    datasets: Sequence[str],
    *,
    scale: float = 0.2,
    threshold: str = "bounded",
    size_cap: int = 8,
    model: str = "ic",
    seed: int = 7,
    pool_size: int = 600,
) -> Dict[str, ScenarioSpec]:
    """One scenario per dataset name, sharing the remaining knobs.

    The scenario name is the dataset name — the shape the CLI's
    ``--datasets facebook,wiki`` flag produces.
    """
    specs = {}
    for name in datasets:
        specs[name] = ScenarioSpec(
            name=name,
            dataset=name,
            scale=scale,
            threshold=threshold,
            size_cap=size_cap,
            model=model,
            seed=seed,
            pool_size=pool_size,
        )
    return specs
