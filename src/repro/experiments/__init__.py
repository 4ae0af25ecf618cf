"""Experiment harness reproducing every table and figure of the paper.

Declarative configs (:mod:`~repro.experiments.config`), a runner that
builds instances and times algorithms (:mod:`~repro.experiments.runner`),
per-figure drivers (:mod:`~repro.experiments.figures`), the Table-I
driver (:mod:`~repro.experiments.tables`) and ASCII reporting
(:mod:`~repro.experiments.reporting`).

Each figure driver returns plain data structures (series of points), so
the benchmark modules can both print the paper-style rows and assert the
qualitative shape.
"""

from repro.experiments.checkpoint import (
    CheckpointStore,
    ResumeReport,
    as_checkpoint,
)
from repro.experiments.config import ALGORITHMS, ExperimentConfig
from repro.experiments.fidelity import (
    FidelityRow,
    fidelity_expectations,
    fidelity_report,
)
from repro.experiments.figures import (
    fig4_community_structure,
    fig5_benefit_regular,
    fig6_benefit_bounded,
    fig7_runtime,
    fig8_ubg_ratio,
)
from repro.experiments.reporting import ascii_table, format_series
from repro.experiments.runner import (
    AlgorithmRun,
    build_instance,
    run_algorithm,
    run_suite,
)
from repro.experiments.persistence import load_runs, save_runs
from repro.experiments.perturbation import (
    PerturbationResult,
    perturb_weights,
    perturbation_study,
)
from repro.experiments.scaling import ScalePoint, scaling_study
from repro.experiments.solution_report import (
    CommunityOutcome,
    render_report,
    solution_report,
)
from repro.experiments.stats import AggregatedCell, repeat_suite
from repro.experiments.sweeps import formation_comparison
from repro.experiments.tables import table1_datasets

__all__ = [
    "ExperimentConfig",
    "ALGORITHMS",
    "build_instance",
    "run_algorithm",
    "run_suite",
    "AlgorithmRun",
    "fig4_community_structure",
    "fig5_benefit_regular",
    "fig6_benefit_bounded",
    "fig7_runtime",
    "fig8_ubg_ratio",
    "table1_datasets",
    "ascii_table",
    "format_series",
    "save_runs",
    "load_runs",
    "formation_comparison",
    "scaling_study",
    "ScalePoint",
    "solution_report",
    "render_report",
    "CommunityOutcome",
    "repeat_suite",
    "AggregatedCell",
    "perturbation_study",
    "perturb_weights",
    "PerturbationResult",
    "CheckpointStore",
    "ResumeReport",
    "as_checkpoint",
    "fidelity_report",
    "fidelity_expectations",
    "FidelityRow",
]
