"""Sample pools with inverted indexes.

MAXR solvers repeatedly ask "which members of which samples does node
v cover?". :class:`RICSamplePool` answers from one inverted index,
``node -> {sample_idx: member_mask}``, grown incrementally by every
:meth:`RICSamplePool.add`, so IMCAF's exponential doubling reuses all
previously generated samples and no consumer rebuilds the index. Every
greedy starts from the empty seed set, so the pool also caches each
node's ``(ĉ, ν)`` marginal there until the next :meth:`add`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import SamplingError
from repro.sampling.ric import RICSample, RICSampler
from repro.utils.math import popcount

_NO_MASKS: Mapping[int, int] = MappingProxyType({})


class RICSamplePool:
    """A growing collection ``R`` of RIC samples plus inverted indexes.

    Indexes maintained per added sample:

    - :attr:`mask_index` — per node ``v``, ``{sample_idx: member_mask}``
      with bit ``i`` of the mask set when ``v ∈ R_g(u_i)``. Each
      node's dict is ordered by sample index and its length is the
      number of distinct samples ``v`` touches (MAF's node-appearance
      frequency); every marginal, evaluation and frequency query reads
      it;
    - ``community_counts`` — per-community source frequency in ``R``
      (MAF's community frequency).

    Derived from the index and dropped by every :meth:`add`: each
    node's marginal on the empty seed set (:meth:`empty_seed_gain`),
    computed on first request.
    """

    def __init__(self, sampler: RICSampler) -> None:
        self.sampler = sampler
        self.samples: List[RICSample] = []
        self._masks: Dict[int, Dict[int, int]] = {}
        self._community_counts: Dict[int, int] = {}
        self._empty_gains: Dict[int, Tuple[int, float]] = {}

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def total_benefit(self) -> float:
        """``b`` of the underlying community structure."""
        return self.sampler.communities.total_benefit

    def add(self, sample: RICSample) -> None:
        """Append one sample and update all indexes.

        Files each of the sample's ``(node, mask)`` pairs under its
        node; the only place the mask index grows, so it also drops the
        empty-seed marginals.
        """
        self._empty_gains.clear()
        index = len(self.samples)
        self.samples.append(sample)
        masks = self._masks
        for node, mask in zip(sample.nodes, sample.masks):
            entry = masks.get(node)
            if entry is None:
                masks[node] = {index: mask}
            else:
                entry[index] = mask
        self._community_counts[sample.community_index] = (
            self._community_counts.get(sample.community_index, 0) + 1
        )

    def add_many(self, samples: Iterable[RICSample]) -> None:
        """Append a batch of samples, updating indexes incrementally."""
        for sample in samples:
            self.add(sample)

    def grow(self, count: int) -> None:
        """Generate and add ``count`` fresh samples.

        Delegates generation to ``sampler.sample_many`` so a sampler
        with worker processes fans the whole request out at once; the
        inverted indexes are still updated incrementally per sample.
        """
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        self.add_many(self.sampler.sample_many(count))

    def grow_to(self, target: int) -> None:
        """Grow the pool until it holds at least ``target`` samples."""
        self.grow(max(0, target - len(self.samples)))

    @property
    def mask_index(self) -> Mapping[int, Mapping[int, int]]:
        """Read-only view of the index: node -> ``{sample_idx: member_mask}``.

        The per-node dicts are the pool's own, read in place by the
        coverage engines; callers must not mutate them. They grow only
        in :meth:`add`.
        """
        return MappingProxyType(self._masks)

    def empty_seed_gain(self, node: int) -> Tuple[int, float]:
        """``node``'s marginal ``(ĉ, ν)`` gain on the empty seed set.

        With no seeds, every entry is live and a sample needs all ``h``
        of its members, so the pair is the count of masks with
        ``popcount >= h`` and ``Σ min(popcount, h) / h`` over the
        node's entries in sample order: the floats a coverage engine's
        ``gain_pair`` computes. Cached per node until the next
        :meth:`add`; like :meth:`add`, it must not race other pool
        access (``shard.lock`` in serving).
        """
        gain = self._empty_gains.get(node)
        if gain is None:
            samples = self.samples
            gain_c = 0
            gain_nu = 0.0
            for sample_idx, mask in self._masks.get(node, _NO_MASKS).items():
                threshold = samples[sample_idx].threshold
                added = popcount(mask)
                if added >= threshold:
                    gain_nu += 1.0
                    gain_c += 1
                else:
                    gain_nu += added / threshold
            gain = self._empty_gains[node] = (gain_c, gain_nu)
        return gain

    def touch_count(self, node: int) -> int:
        """Number of distinct samples ``node`` touches (MAF frequency)."""
        return len(self._masks.get(node, _NO_MASKS))

    def touching_nodes(self) -> List[int]:
        """All nodes that touch at least one sample."""
        return list(self._masks)

    def community_count(self, community_index: int) -> int:
        """How many samples have ``community_index`` as their source."""
        return self._community_counts.get(community_index, 0)

    def community_counts(self) -> Dict[int, int]:
        """Copy of the per-community source-frequency map."""
        return dict(self._community_counts)

    def samples_touched_by(self, node: int) -> List[int]:
        """Ascending distinct sample indices touched by ``node`` (``G_R(u)``)."""
        return list(self._masks.get(node, _NO_MASKS))

    # ------------------------------------------------------------------
    # Objective evaluation on the pool
    # ------------------------------------------------------------------

    def _covered_masks(self, seeds: Iterable[int]) -> Dict[int, int]:
        """Per touched sample, the members ``seeds`` cover, as a mask.

        ORs each distinct seed's masks in seed-set order, samples in
        ascending order within a seed, so the dict's order (which fixes
        the summation order of :meth:`fractional_count`) is the order a
        per-``(sample, member)`` scan of the same seeds would produce.
        """
        index = self._masks
        covered: Dict[int, int] = {}
        for v in set(seeds):
            for sample_idx, mask in index.get(v, _NO_MASKS).items():
                covered[sample_idx] = covered.get(sample_idx, 0) | mask
        return covered

    def influenced_count(self, seeds: Iterable[int]) -> int:
        """``Σ_g X_g(S)`` — samples influenced by ``seeds``."""
        samples = self.samples
        return sum(
            1
            for sample_idx, mask in self._covered_masks(seeds).items()
            if popcount(mask) >= samples[sample_idx].threshold
        )

    def influenced_count_by_community(
        self, seeds: Iterable[int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per-source-community split of :meth:`influenced_count`.

        Returns ``(seen, influenced)``: how many pool samples each
        community sourced, and how many of those ``seeds`` influence.
        Same single pass over the mask index as
        :meth:`influenced_count`; backs the per-community
        activation-probability diagnostics in
        :mod:`repro.obs.diagnostics`.
        """
        influenced: Dict[int, int] = {}
        for sample_idx, mask in self._covered_masks(seeds).items():
            sample = self.samples[sample_idx]
            if popcount(mask) >= sample.threshold:
                influenced[sample.community_index] = (
                    influenced.get(sample.community_index, 0) + 1
                )
        return dict(self._community_counts), influenced

    def estimate_benefit(self, seeds: Iterable[int]) -> float:
        """``ĉ_R(S) = (b/|R|) Σ_g X_g(S)`` (eq. 3). 0.0 on an empty pool."""
        if not self.samples:
            return 0.0
        return self.total_benefit * self.influenced_count(seeds) / len(self.samples)

    def fractional_count(self, seeds: Iterable[int]) -> float:
        """``Σ_g min(|I_g(S)|/h_g, 1)`` — the ν numerator (eq. 7)."""
        samples = self.samples
        return sum(
            min(popcount(mask) / samples[sample_idx].threshold, 1.0)
            for sample_idx, mask in self._covered_masks(seeds).items()
        )

    def estimate_upper_bound(self, seeds: Iterable[int]) -> float:
        """``ν_R(S) = (b/|R|) Σ_g min(|I_g(S)|/h_g, 1)`` (eq. 7)."""
        if not self.samples:
            return 0.0
        return self.total_benefit * self.fractional_count(seeds) / len(self.samples)

