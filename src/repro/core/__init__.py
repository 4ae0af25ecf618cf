"""Core contribution: MAXR solvers and the IMCAF framework.

MAXR (Definition 3 of the paper): given a collection ``R`` of RIC
samples, find ``k`` seeds maximizing the number of influenced samples —
equivalently the estimate ``ĉ_R``. The solvers implemented here are the
paper's three algorithms plus the compound MB:

- :class:`~repro.core.ubg.UBG` — Upper Bound Greedy (sandwich with the
  submodular ``ν_R``), ratio ``(ĉ(S_ν)/ν(S_ν))(1 - 1/e)``;
- :class:`~repro.core.maf.MAF` — Most Appearance First, ratio
  ``⌊k/h⌋ / r``;
- :class:`~repro.core.bt.BT` — bounded-threshold algorithm,
  ratio ``(1 - 1/e)/k^{d-1}`` for thresholds bounded by ``d``;
- :class:`~repro.core.bt.MB` — best of MAF and BT, ratio
  ``Θ(√((1-1/e)/r))``, tight to the inapproximability bound.

:func:`~repro.core.framework.solve_imc` wires any of them into the
stop-and-stare IMCAF loop (Algorithm 5) for an ``α(1-ε)`` guarantee
with probability ``1 - δ``.
"""

from typing import Optional

from repro.core.bt import BT, MB
from repro.core.budgeted import (
    BudgetedUBG,
    budgeted_lazy_greedy_nu,
    degree_proportional_costs,
    uniform_costs,
)
from repro.core.framework import EstimateResult, IMCResult, estimate_benefit, solve_imc
from repro.core.greedy import RunCache, greedy_maxr, lazy_greedy_nu
from repro.core.maf import MAF
from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState
from repro.core.ratios import (
    bt_ratio,
    inapproximability_bound,
    maf_ratio,
    mb_ratio,
    sandwich_ratio,
)
from repro.core.curvature import (
    NonSubmodularityProfile,
    probe_nonsubmodularity,
    submodularity_violation_rate,
    weak_submodularity_gamma,
)
from repro.core.reduction import DkSReduction, dks_to_imc, induced_edge_count
from repro.core.solution import SeedSelection
from repro.core.static_bound import StaticIMCResult, solve_imc_static
from repro.core.ubg import UBG, GreedyC
from repro.errors import SolverError

#: The MAXR solver names :func:`make_solver` builds.
SOLVERS = ("UBG", "MAF", "BT", "MB", "GreedyC")


def make_solver(
    name: str, seed: Optional[int], runs: Optional[RunCache] = None
):
    """Build a fresh solver by name with its default settings.

    MAF and MB carry an RNG stream derived from ``seed``, so each solve
    gets a new instance.
    ``runs`` hands UBG and GreedyC a :class:`~repro.core.greedy.RunCache`
    to draw their greedy arms from; MAF, BT and MB have no greedy arm.
    An unknown ``name`` raises :class:`~repro.errors.SolverError`.
    """
    if name == "UBG":
        return UBG(runs=runs)
    if name == "MAF":
        return MAF(seed=seed)
    if name == "BT":
        return BT()
    if name == "MB":
        return MB(seed=seed)
    if name == "GreedyC":
        return GreedyC(runs=runs)
    raise SolverError(
        f"unknown solver {name!r} (known: {', '.join(SOLVERS)})"
    )


__all__ = [
    "SOLVERS",
    "make_solver",
    "CoverageState",
    "FlatCoverage",
    "SeedSelection",
    "greedy_maxr",
    "lazy_greedy_nu",
    "RunCache",
    "UBG",
    "GreedyC",
    "MAF",
    "BT",
    "MB",
    "solve_imc",
    "solve_imc_static",
    "StaticIMCResult",
    "estimate_benefit",
    "IMCResult",
    "EstimateResult",
    "DkSReduction",
    "dks_to_imc",
    "induced_edge_count",
    "NonSubmodularityProfile",
    "probe_nonsubmodularity",
    "submodularity_violation_rate",
    "weak_submodularity_gamma",
    "BudgetedUBG",
    "budgeted_lazy_greedy_nu",
    "uniform_costs",
    "degree_proportional_costs",
    "maf_ratio",
    "bt_ratio",
    "mb_ratio",
    "sandwich_ratio",
    "inapproximability_bound",
]
