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
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SamplingError
from repro.obs import metrics
from repro.sampling.ric import RICSample, RICSampler
from repro.sampling.rr import RRSampler
from repro.utils.math import popcount

_NO_MASKS: Mapping[int, int] = MappingProxyType({})

# One shared int per single-bit mask. Most index entries hold one
# member bit; pointing them at these few objects instead of a fresh int
# each keeps the index smaller and its masks hot in cache.
_BITS = tuple(1 << i for i in range(64))


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
        # Any object with the RICSampler surface works, notably
        # repro.sampling.parallel.ParallelRICSampler.
        self.sampler = sampler
        self.samples: List[RICSample] = []
        self._masks: Dict[int, Dict[int, int]] = {}
        self._community_counts: Dict[int, int] = {}
        self._empty_gains: Dict[int, Tuple[int, float]] = {}
        # Persistent intern table (reach-set value -> canonical object)
        # plus a watermark of how many samples compact() has already
        # processed. Together they make the compact -> add -> compact
        # top-up cycle O(new samples) instead of O(pool) per pass, and
        # guarantee a reach set is interned exactly once: the canonical
        # representative chosen on first sight never changes, so a
        # re-compact can never re-point references ("double-intern").
        self._intern: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._interned_through = 0
        self._reach_sets_total = 0
        self._pending_rewrites = 0

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def total_benefit(self) -> float:
        """``b`` of the underlying community structure."""
        return self.sampler.communities.total_benefit

    def add(self, sample: RICSample) -> None:
        """Append one sample and update all indexes.

        ORs each member's bit into the mask of every node in its reach
        set; the only place the mask index grows, so it also drops the
        empty-seed marginals.
        """
        self._empty_gains.clear()
        index = len(self.samples)
        if self._interned_through:
            # The pool has been compacted at least once: intern the new
            # sample's reach sets eagerly against the persistent table,
            # so a server's compact -> add -> compact top-up loop never
            # accumulates duplicate frozensets between passes.
            sample = self._intern_sample(sample)
        self.samples.append(sample)
        masks = self._masks
        for member_idx, reach in enumerate(sample.reach_sets):
            bit = _BITS[member_idx] if member_idx < 64 else 1 << member_idx
            for node in reach:
                entry = masks.get(node)
                if entry is None:
                    masks[node] = {index: bit}
                else:
                    prev = entry.get(index)
                    entry[index] = bit if prev is None else prev | bit
        self._reach_sets_total += len(sample.reach_sets)
        self._community_counts[sample.community_index] = (
            self._community_counts.get(sample.community_index, 0) + 1
        )

    def add_many(self, samples: Iterable[RICSample]) -> None:
        """Append a batch of samples, updating indexes incrementally."""
        for sample in samples:
            self.add(sample)

    def grow(self, count: int) -> None:
        """Generate and add ``count`` fresh samples.

        Delegates generation to ``sampler.sample_many`` so batching
        engines (:class:`~repro.sampling.parallel.ParallelRICSampler`)
        fan the whole request out to their workers at once; the inverted
        indexes are still updated incrementally per sample.
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

    def _intern_sample(self, sample: RICSample) -> RICSample:
        """Rewrite ``sample``'s reach sets through the intern table.

        Returns the same object (fields rewritten in place when any
        reference changed); counts rewrites in ``_pending_rewrites`` so
        the next :meth:`compact` can report them.
        """
        intern = self._intern
        new_sets = []
        changed = False
        for reach in sample.reach_sets:
            kept = intern.setdefault(reach, reach)
            if kept is not reach:
                changed = True
                self._pending_rewrites += 1
            new_sets.append(kept)
        if changed:
            # RICSample is a frozen dataclass; rewriting the field
            # through object.__setattr__ preserves value equality
            # while sharing the canonical frozensets.
            object.__setattr__(sample, "reach_sets", tuple(new_sets))
        return sample

    def compact(self) -> Dict[str, int]:
        """Intern duplicate reach sets.

        RIC samples over a common graph repeat reach sets constantly (a
        node with one realised in-path yields the same frozenset in
        many samples). Keeping one canonical frozenset per distinct
        value drops the duplicates' memory and makes later equality
        checks pointer comparisons. Samples are rewritten in place to
        reference the canonical objects; values are unchanged, so the
        mask index, estimators and golden results are unaffected.
        Idempotent.

        The intern table persists across calls and samples already
        processed are watermarked, so the serving top-up cycle
        ``compact() -> add() -> compact()`` costs O(new samples) per
        pass, not O(pool): canonical representatives never change
        between passes, samples appended after the first pass are
        interned eagerly by :meth:`add`, and a no-op re-compact reports
        ``interned_duplicates == 0``.

        Returns a stats dict: ``reach_sets`` (total), ``unique_reach_sets``,
        ``interned_duplicates`` (references rewritten to a canonical
        object since the previous pass), and ``coverage_entries``
        (``(node, sample)`` entries of the mask index).
        """
        for sample in self.samples[self._interned_through:]:
            self._intern_sample(sample)
        self._interned_through = len(self.samples)
        rewritten, self._pending_rewrites = self._pending_rewrites, 0
        entries = sum(map(len, self._masks.values()))
        metrics.set_gauge("pool.coverage_entries", entries)
        return {
            "reach_sets": self._reach_sets_total,
            "unique_reach_sets": len(self._intern),
            "interned_duplicates": rewritten,
            "coverage_entries": entries,
        }

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

    def stats(self) -> Dict[str, float]:
        """Diagnostic summary of the pool.

        Returns sample count, mean/max reach-set size, mean members per
        sample, the number of distinct touching nodes, and the most
        frequent source community's share — the numbers to look at when
        sampling cost or solver behaviour surprises you.
        """
        if not self.samples:
            return {
                "num_samples": 0.0,
                "mean_reach_size": 0.0,
                "max_reach_size": 0.0,
                "mean_members": 0.0,
                "touching_nodes": 0.0,
                "top_source_share": 0.0,
            }
        reach_sizes = [
            len(reach)
            for sample in self.samples
            for reach in sample.reach_sets
        ]
        return {
            "num_samples": float(len(self.samples)),
            "mean_reach_size": sum(reach_sizes) / len(reach_sizes),
            "max_reach_size": float(max(reach_sizes)),
            "mean_members": sum(len(s.members) for s in self.samples)
            / len(self.samples),
            "touching_nodes": float(len(self._masks)),
            "top_source_share": max(self._community_counts.values())
            / len(self.samples),
        }

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


class RRSamplePool:
    """A growing collection of classic RR sets with a node index."""

    def __init__(self, sampler: RRSampler) -> None:
        self.sampler = sampler
        self.samples: List[FrozenSet[int]] = []
        self._membership: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self.samples)

    def add(self, rr_set: FrozenSet[int]) -> None:
        """Append one RR set and index its members."""
        index = len(self.samples)
        self.samples.append(rr_set)
        for node in rr_set:
            self._membership.setdefault(node, []).append(index)

    def grow(self, count: int) -> None:
        """Generate and add ``count`` fresh RR sets."""
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        for _ in range(count):
            self.add(self.sampler.sample())

    def sets_containing(self, node: int) -> Sequence[int]:
        """Indices of RR sets containing ``node``."""
        return self._membership.get(node, ())

    def coverage(self, seeds: Iterable[int]) -> int:
        """Number of RR sets hit by ``seeds``."""
        hit: Set[int] = set()
        for v in set(seeds):
            hit.update(self.sets_containing(v))
        return len(hit)

    def estimate_spread(self, seeds: Iterable[int]) -> float:
        """``σ̂(S) = n · coverage / |R|``; 0.0 on an empty pool."""
        if not self.samples:
            return 0.0
        return (
            self.sampler.graph.num_nodes
            * self.coverage(seeds)
            / len(self.samples)
        )
