"""Most Appearance First (MAF) — Algorithm 3.

MAF builds two candidate seed sets from frequency statistics of the
sample pool and keeps the better one under ``ĉ_R``:

- ``S_1`` — walk communities in descending order of how often they are
  the *source* of a sample; for each, put ``h`` of its members into the
  seed set while the budget allows. ``S_1`` alone carries the
  ``⌊k/h⌋ / r`` guarantee of Theorem 3.
- ``S_2`` — the ``k`` nodes that *touch* the most samples. No guarantee
  (the paper exhibits a counterexample) but empirically strong.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.obs import trace
from repro.rng import SeedLike, make_rng
from repro.sampling.pool import RICSamplePool
from repro.utils.retry import Deadline
from repro.utils.validation import check_candidates, check_positive


class MAF:
    """Most Appearance First MAXR solver (the paper's fastest method)."""

    name = "MAF"

    def __init__(
        self,
        seed: SeedLike = None,
        candidates: Optional[Iterable[int]] = None,
    ) -> None:
        #: RNG for the "randomly picks h nodes in C" step of Alg. 3.
        self._rng = make_rng(seed)
        #: Restrict seeding to these nodes (None = all nodes). S1 skips
        #: communities without enough eligible members; S2 ranks only
        #: eligible nodes.
        self.candidates: Optional[Set[int]] = (
            set(candidates) if candidates is not None else None
        )

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """Theorem 3 ratio ``⌊k/h⌋ / r``, capped at 1 (0 when ``k < h``)."""
        communities = pool.sampler.communities
        h = communities.max_threshold
        return min(1.0, (k // h) / communities.r)

    def _build_s1(self, pool: RICSamplePool, k: int) -> List[int]:
        communities = pool.sampler.communities
        counts = pool.community_counts()
        # Descending frequency; ties by community index for determinism.
        order = sorted(counts, key=lambda idx: (-counts[idx], idx))
        s1: List[int] = []
        chosen = set()
        for community_index in order:
            community = communities[community_index]
            if len(s1) + community.threshold > k:
                continue
            members = [
                m
                for m in community.members
                if m not in chosen
                and (self.candidates is None or m in self.candidates)
            ]
            if len(members) < community.threshold:
                continue
            picks = self._rng.sample(members, community.threshold)
            s1.extend(picks)
            chosen.update(picks)
        return s1

    def _build_s2(self, pool: RICSamplePool, k: int) -> List[int]:
        nodes = pool.touching_nodes()
        if self.candidates is not None:
            nodes = [v for v in nodes if v in self.candidates]
        nodes.sort(key=lambda v: (-pool.touch_count(v), v))
        return nodes[:k]

    def solve(
        self,
        pool: RICSamplePool,
        k: int,
        deadline: Optional[Deadline] = None,
    ) -> SeedSelection:
        """Run Algorithm 3 on the pool.

        MAF is the package's fastest solver, so ``deadline`` is polled
        once, after the S1 arm: on expiry the S2 arm is skipped and the
        selection flagged ``truncated``. A deadline that passes after
        both arms ran flags nothing.
        """
        check_positive(k, "k", SolverError)
        check_candidates(
            self.candidates, pool.sampler.graph.num_nodes, SolverError
        )
        with trace.span("maf/s1_communities", k=k, num_samples=len(pool)):
            s1 = self._build_s1(pool, k)
        skipped = deadline is not None and bool(s1) and deadline.expired()
        if skipped:
            s2: List[int] = []
        else:
            with trace.span("maf/s2_nodes", k=k, num_samples=len(pool)):
                s2 = self._build_s2(pool, k)
        value_1 = pool.estimate_benefit(s1)
        value_2 = pool.estimate_benefit(s2)
        if value_1 >= value_2:
            winner, value, arm = s1, value_1, "S1-communities"
        else:
            winner, value, arm = s2, value_2, "S2-nodes"
        return SeedSelection(
            seeds=tuple(winner),
            objective=value,
            solver=self.name,
            metadata={
                "arm": arm,
                "value_s1": value_1,
                "value_s2": value_2,
                "num_samples": len(pool),
            },
            truncated=skipped,
        )
