"""Sample pools with inverted indexes.

MAXR solvers repeatedly ask "which (sample, member) pairs does node v
cover?". The pools answer that in O(#pairs) via inverted indexes that
are maintained incrementally, so IMCAF's exponential doubling reuses all
previously generated samples.
"""

from __future__ import annotations

from array import array
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SamplingError
from repro.obs import metrics
from repro.sampling.ric import RICSample, RICSampler
from repro.sampling.rr import RRSampler


class FlatIndex(NamedTuple):
    """A pool's inverted index compiled into flat parallel sequences.

    Each touching node owns one *slot*; slot ``s`` covers the half-open
    range ``entry_off[s]:entry_off[s+1]`` of ``entry_sample`` (sample
    index) and ``entry_mask`` (that node's member bitset within the
    sample), one entry per distinct sample the node touches.
    ``thresholds`` is indexed by sample. Offsets live in an
    ``array('q')``; samples and masks live in plain lists because member
    masks are arbitrary-precision ints and list slicing iterates at C
    speed without re-boxing.

    Read-only: every coverage engine on the pool shares one instance
    and keeps its own covered state beside it.
    """

    thresholds: List[int]
    slot_of: Dict[int, int]
    entry_off: array
    entry_sample: List[int]
    entry_mask: List[int]


class RICSamplePool:
    """A growing collection ``R`` of RIC samples plus inverted indexes.

    Indexes maintained per added sample:

    - ``coverage_of(v)`` — list of ``(sample_idx, member_idx)`` pairs
      with ``v ∈ R_g(u)`` (drives marginal-gain computation),
    - ``touch_counts`` — per-node number of *distinct* samples touched
      (MAF's node-appearance frequency),
    - ``community_counts`` — per-community source frequency in ``R``
      (MAF's community frequency).

    :meth:`flat_index` compiles ``coverage_of`` into the flat layout the
    flat coverage engine reads; it is built on demand and dropped by
    every :meth:`add`.
    """

    def __init__(self, sampler: RICSampler) -> None:
        # Any object with the RICSampler surface works, notably
        # repro.sampling.parallel.ParallelRICSampler.
        self.sampler = sampler
        self.samples: List[RICSample] = []
        self._coverage: Dict[int, List[Tuple[int, int]]] = {}
        self._touch_counts: Dict[int, int] = {}
        self._community_counts: Dict[int, int] = {}
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
        # Compiled form of the index for the current sample count;
        # add() drops it, flat_index() rebuilds it on demand.
        self._flat_index: Optional[FlatIndex] = None

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def total_benefit(self) -> float:
        """``b`` of the underlying community structure."""
        return self.sampler.communities.total_benefit

    def add(self, sample: RICSample) -> None:
        """Append one sample and update all indexes.

        A pool sealed by :meth:`compact` may keep growing: appending to
        a node whose coverage entry was frozen into a tuple thaws that
        entry back into a list (re-run :meth:`compact` to re-seal).
        Appending also drops the compiled :meth:`flat_index`.
        """
        self._flat_index = None
        index = len(self.samples)
        if self._interned_through:
            # The pool has been compacted at least once: intern the new
            # sample's reach sets eagerly against the persistent table,
            # so a server's compact -> add -> compact top-up loop never
            # accumulates duplicate frozensets between seals.
            sample = self._intern_sample(sample)
        self.samples.append(sample)
        coverage = self._coverage
        touched: Set[int] = set()
        for member_idx, reach in enumerate(sample.reach_sets):
            for node in reach:
                entry = coverage.get(node)
                if entry is None:
                    coverage[node] = [(index, member_idx)]
                elif type(entry) is tuple:
                    thawed = list(entry)
                    thawed.append((index, member_idx))
                    coverage[node] = thawed
                else:
                    entry.append((index, member_idx))
                touched.add(node)
        self._reach_sets_total += len(sample.reach_sets)
        for node in touched:
            self._touch_counts[node] = self._touch_counts.get(node, 0) + 1
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

    def coverage_of(self, node: int) -> Sequence[Tuple[int, int]]:
        """``(sample_idx, member_idx)`` pairs covered by ``node``.

        .. warning:: **Aliasing.** On a pool that has not been sealed
           by :meth:`compact`, this returns the *internal* index list,
           not a copy — mutating it corrupts the inverted index
           silently. After :meth:`compact` the entry is an immutable
           tuple (read-only by construction), which is what the
           coverage engines consume.
        """
        return self._coverage.get(node, ())

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
        """Intern duplicate reach sets and seal the inverted index.

        Two effects, both idempotent:

        - **Reach-set interning** — RIC samples over a common graph
          repeat reach sets constantly (a node with one realised
          in-path yields the same frozenset in many samples). Keeping
          one canonical frozenset per distinct value (frozenset → id
          mapping) drops the duplicates' memory and makes later
          equality checks pointer comparisons. Samples are rewritten
          in place to reference the canonical objects; values are
          unchanged, so estimators and golden results are unaffected.
        - **Index sealing** — every coverage entry is converted from a
          list to an immutable tuple, so engine compile passes cannot
          accidentally mutate the index they iterate
          (:meth:`coverage_of` documents the aliasing hazard on the
          unsealed path).

        The intern table persists across calls and samples already
        processed are watermarked, so the serving top-up cycle
        ``compact() -> add() -> compact()`` costs O(new samples + nodes)
        per pass, not O(pool): canonical representatives never change
        between passes, samples appended after the first seal are
        interned eagerly by :meth:`add`, and a no-op re-compact reports
        ``interned_duplicates == 0``.

        Returns a stats dict: ``reach_sets`` (total), ``unique_reach_sets``,
        ``interned_duplicates`` (references rewritten to a canonical
        object since the previous seal), and ``coverage_entries``.
        """
        for sample in self.samples[self._interned_through:]:
            self._intern_sample(sample)
        self._interned_through = len(self.samples)
        rewritten, self._pending_rewrites = self._pending_rewrites, 0
        entries = 0
        for node, pairs in self._coverage.items():
            entries += len(pairs)
            if type(pairs) is list:
                self._coverage[node] = tuple(pairs)
        metrics.inc("pool.compactions")
        metrics.set_gauge("pool.coverage_entries", entries)
        return {
            "reach_sets": self._reach_sets_total,
            "unique_reach_sets": len(self._intern),
            "interned_duplicates": rewritten,
            "coverage_entries": entries,
        }

    def flat_index(self) -> FlatIndex:
        """The inverted index compiled to a :class:`FlatIndex`.

        Compacts the pool and compiles on first use, then returns the
        same instance until :meth:`add` drops it, so the index is built
        at most once per pool size however many engines read it.
        Callers must not mutate it.
        """
        index = self._flat_index
        if index is not None:
            return index
        self.compact()
        slot_of: Dict[int, int] = {}
        entry_off = array("q", [0])
        entry_sample: List[int] = []
        entry_mask: List[int] = []
        for node in self._touch_counts:
            masks: Dict[int, int] = {}
            for sample_idx, member_idx in self._coverage[node]:
                masks[sample_idx] = masks.get(sample_idx, 0) | (1 << member_idx)
            slot_of[node] = len(entry_off) - 1
            entry_sample.extend(masks)
            entry_mask.extend(masks.values())
            entry_off.append(len(entry_sample))
        index = self._flat_index = FlatIndex(
            [s.threshold for s in self.samples],
            slot_of,
            entry_off,
            entry_sample,
            entry_mask,
        )
        return index

    def touch_count(self, node: int) -> int:
        """Number of distinct samples ``node`` touches (MAF frequency)."""
        return self._touch_counts.get(node, 0)

    def touching_nodes(self) -> List[int]:
        """All nodes that touch at least one sample."""
        return list(self._touch_counts)

    def community_count(self, community_index: int) -> int:
        """How many samples have ``community_index`` as their source."""
        return self._community_counts.get(community_index, 0)

    def community_counts(self) -> Dict[int, int]:
        """Copy of the per-community source-frequency map."""
        return dict(self._community_counts)

    def samples_touched_by(self, node: int) -> List[int]:
        """Sorted distinct sample indices touched by ``node`` (``G_R(u)``)."""
        return sorted({sample_idx for sample_idx, _ in self.coverage_of(node)})

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
            "touching_nodes": float(len(self._touch_counts)),
            "top_source_share": max(self._community_counts.values())
            / len(self.samples),
        }

    # ------------------------------------------------------------------
    # Objective evaluation on the pool
    # ------------------------------------------------------------------

    def influenced_count(self, seeds: Iterable[int]) -> int:
        """``Σ_g X_g(S)`` — samples influenced by ``seeds``."""
        seed_set = set(seeds)
        covered: Dict[int, Set[int]] = {}
        for v in seed_set:
            for sample_idx, member_idx in self.coverage_of(v):
                covered.setdefault(sample_idx, set()).add(member_idx)
        return sum(
            1
            for sample_idx, members in covered.items()
            if len(members) >= self.samples[sample_idx].threshold
        )

    def influenced_count_by_community(
        self, seeds: Iterable[int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Per-source-community split of :meth:`influenced_count`.

        Returns ``(seen, influenced)``: how many pool samples each
        community sourced, and how many of those ``seeds`` influence.
        Same single pass over the coverage index as
        :meth:`influenced_count`; backs the per-community
        activation-probability diagnostics in
        :mod:`repro.obs.diagnostics`.
        """
        seed_set = set(seeds)
        covered: Dict[int, Set[int]] = {}
        for v in seed_set:
            for sample_idx, member_idx in self.coverage_of(v):
                covered.setdefault(sample_idx, set()).add(member_idx)
        influenced: Dict[int, int] = {}
        for sample_idx, members in covered.items():
            sample = self.samples[sample_idx]
            if len(members) >= sample.threshold:
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
        seed_set = set(seeds)
        covered: Dict[int, Set[int]] = {}
        for v in seed_set:
            for sample_idx, member_idx in self.coverage_of(v):
                covered.setdefault(sample_idx, set()).add(member_idx)
        return sum(
            min(len(members) / self.samples[sample_idx].threshold, 1.0)
            for sample_idx, members in covered.items()
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
