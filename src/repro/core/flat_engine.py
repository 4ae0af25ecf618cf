"""The fast coverage engine.

Two engines implement the incremental ĉ/ν state of greedy selection:

- ``CoverageState`` (reference) keeps per-sample member sets as Python
  ``set`` objects over its own ``(sample, member)`` pairs — the
  readable oracle the tests check this engine against;
- ``FlatCoverage`` (this module) reads the pool's mask index
  (:attr:`RICSamplePool.mask_index`, node ->
  ``{sample_idx: member_mask}``) in place, so a marginal evaluation is
  a loop of integer ANDs and popcounts with one dict lookup per node.

The index belongs to the pool and grows only in
:meth:`RICSamplePool.add`; every engine on the pool shares it and
keeps only its own state: per sample, the member bits still uncovered
and the members still needed to reach the threshold; per node, the
entries that can still contribute. A marginal call drops an entry for
good once its sample has reached its threshold (the sample's
uncovered bits are then cleared) or once all of the node's member bits
in it are covered; either way ``mask & uncovered`` is zero. Both
conditions are monotone while seeds are only added, a dropped entry
adds nothing to either gain, and the surviving terms are summed in the
original order, so the ``(ĉ, ν)`` pairs are bit-identical to an
unpruned scan.

While the seed set is empty, ``gain_pair`` answers from the pool's
empty-seed cache (:meth:`RICSamplePool.empty_seed_gain`), which holds
the same floats. ``gain_bound`` is the length of a node's pruned list
(or of its index dict before its first marginal call): every sample
the node could still push past its threshold is one of those entries,
so it bounds the node's ĉ gain now and after any later seed.

It is the default engine of :class:`~repro.core.ubg.UBG`,
:class:`~repro.core.ubg.GreedyC`, :func:`~repro.core.greedy.greedy_maxr`
and :func:`~repro.core.greedy.lazy_greedy_nu`; ``engine="reference"``
selects the oracle instead (the hypothesis suite cross-checks both on
random pools).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SolverError
from repro.sampling.pool import RICSamplePool
from repro.utils.math import popcount


class FlatCoverage:
    """Incremental ĉ/ν coverage over a pool's mask index.

    The public surface mirrors :class:`~repro.core.objective.CoverageState`:
    ``add_seed``, ``gain_influenced``, ``gain_fractional``, ``gain_pair``,
    ``gain_bound`` and the two estimate accessors. Like the reference
    engine, it snapshots the pool's sample count at construction and
    fails fast (``SolverError``) once the pool has grown; a grown pool
    takes a fresh engine.
    """

    def __init__(self, pool: RICSamplePool) -> None:
        self.pool = pool
        self.seeds: List[int] = []
        self._seed_set = set()
        self._index = pool.mask_index
        self._thresholds = [s.threshold for s in pool.samples]
        num_samples = len(self._thresholds)
        # Per node: the (sample, mask) entries that survived its last
        # marginal call; absent until the node is first evaluated.
        self._live: Dict[int, List[Tuple[int, int]]] = {}
        # Per sample: member bits not yet covered (-1 sets every bit;
        # 0 once the sample reached its threshold, since no further
        # bit counts) and the members still needed to reach it.
        self._uncovered: List[int] = [-1] * num_samples
        self._need: List[int] = list(self._thresholds)
        self._influenced = 0
        self._fractional = 0.0
        self._synced_samples = num_samples

    def _check_sync(self) -> None:
        """Fail fast when the pool grew since this engine was built."""
        if len(self.pool.samples) != self._synced_samples:
            raise SolverError(
                f"pool grew from {self._synced_samples} to "
                f"{len(self.pool.samples)} samples since this flat "
                "engine was built; build a fresh engine on the grown pool"
            )

    # -- accessors ------------------------------------------------------

    @property
    def influenced_count(self) -> int:
        """``Σ_g X_g(S)`` for the current seed set."""
        return self._influenced

    @property
    def fractional_count(self) -> float:
        """``Σ_g min(|I_g(S)|/h_g, 1)`` for the current seed set."""
        return self._fractional

    def estimate_benefit(self) -> float:
        """``ĉ_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return self.pool.total_benefit * self._influenced / len(self.pool.samples)

    def estimate_upper_bound(self) -> float:
        """``ν_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return self.pool.total_benefit * self._fractional / len(self.pool.samples)

    # -- mutation -------------------------------------------------------

    def _entries(self, node: int):
        """``node``'s entries that may still contribute, or None.

        The pruned list of its last marginal call when there is one,
        else every ``(sample, mask)`` entry of the pool's index.
        """
        entries = self._live.get(node)
        if entries is None:
            masks = self._index.get(node)
            if masks is None:
                return None
            entries = masks.items()
        return entries

    def add_seed(self, node: int) -> None:
        """Add ``node`` and merge its member masks into the covered state."""
        self._check_sync()
        if node in self._seed_set:
            raise SolverError(f"node {node} is already a seed")
        self.seeds.append(node)
        self._seed_set.add(node)
        entries = self._entries(node)
        if entries is None:
            return
        uncovered = self._uncovered
        needs = self._need
        thresholds = self._thresholds
        for sample_idx, mask in entries:
            new_bits = mask & uncovered[sample_idx]
            if not new_bits:
                continue
            added = popcount(new_bits)
            need = needs[sample_idx]
            if added >= need:
                self._fractional += need / thresholds[sample_idx]
                self._influenced += 1
                uncovered[sample_idx] = 0
            else:
                self._fractional += added / thresholds[sample_idx]
                uncovered[sample_idx] ^= new_bits
                needs[sample_idx] = need - added
        # A seed's marginal is 0 from now on; its list is never read.
        self._live.pop(node, None)

    # -- marginals ------------------------------------------------------

    def gain_bound(self, node: int) -> int:
        """Upper bound on ``node``'s ĉ gain, now and after any later seed.

        The number of entries :meth:`gain_pair` would still scan; see
        the module docstring.
        """
        self._check_sync()
        entries = self._entries(node)
        return 0 if entries is None else len(entries)

    def gain_pair(self, node: int) -> Tuple[int, float]:
        """Marginal (ĉ, ν) gains of adding ``node``.

        Prunes the node's dead entries (sample saturated, or every
        member bit already covered) as a side effect; see the module
        docstring for why that leaves every answer unchanged. With no
        seeds yet, answers from the pool's empty-seed cache.
        """
        self._check_sync()
        if not self.seeds:
            return self.pool.empty_seed_gain(node)
        if node in self._seed_set:
            return 0, 0.0
        entries = self._entries(node)
        if entries is None:
            return 0, 0.0
        kept: List[Tuple[int, int]] = []
        keep = kept.append
        gain_c = 0
        gain_nu = 0.0
        uncovered = self._uncovered
        needs = self._need
        thresholds = self._thresholds
        for entry in entries:
            sample_idx, mask = entry
            new_bits = mask & uncovered[sample_idx]
            if not new_bits:
                continue
            keep(entry)
            added = popcount(new_bits)
            need = needs[sample_idx]
            if added >= need:
                gain_nu += need / thresholds[sample_idx]
                gain_c += 1
            else:
                gain_nu += added / thresholds[sample_idx]
        self._live[node] = kept
        return gain_c, gain_nu

    def gain_influenced(self, node: int) -> int:
        """Marginal ĉ gain of ``node``."""
        return self.gain_pair(node)[0]

    def gain_fractional(self, node: int) -> float:
        """Marginal ν gain of ``node``."""
        return self.gain_pair(node)[1]
