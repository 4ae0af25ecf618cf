"""Reverse Influenceable Community (RIC) sampling — Algorithm 1, and the
influence indicator Algorithm 6 draws.

A RIC sample is generated by:

1. selecting a source community ``C_g`` with probability
   ``ρ(C_i) = b_i / b``;
2. lazily realising a deterministic sample graph ``G_g`` by reverse BFS
   from all of ``C_g``'s members, flipping each in-edge's coin at most
   once;
3. computing, for each member ``u ∈ C_g``, the reachable set
   ``R_g(u)`` — all nodes with a realised path *to* ``u`` (``u`` itself
   included, matching the paper's Fig. 3 example). A sample stores the
   sets as ``(node, member-mask)`` pairs: bit ``i`` of a node's mask is
   set iff the node lies in ``R_g(u_i)``, which is all that ``X_g(S)``
   and ``|I_g(S)|`` read.

Only edges touched by the backward exploration are ever realised, so
the cost is proportional to the explored neighbourhood, not to ``m``.

One kernel draws every sample: it iterates the per-node ``(source,
weight)`` tables of :meth:`DiGraph.in_pairs()
<repro.graph.digraph.DiGraph.in_pairs>` in adjacency order, so a graph
and its pickled copy in a worker process yield byte-identical samples
for any seed. Algorithm 1's ``st[·]`` edge-state memo is
elided: community members are distinct, so the reverse BFS dequeues
each node once and examines each in-edge at most once per sample, and
the memo could never record a hit. Visited and reach tracking are
epoch-stamped per-node lists, and one ``random.Random`` per sampler is
reseeded for each sample (``r.seed(x)`` leaves it in the state
``Random(x)`` starts in).

:meth:`RICSampler.sample_indicator` serves Algorithm 6, which needs only
``X_g(S)``: it draws the same sample but stops as soon as the indicator
is decided, and builds no masks.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.communities.structure import CommunityStructure
from repro.errors import SamplingError
from repro.graph.digraph import DiGraph
from repro.obs import metrics, trace
from repro.rng import SeedLike, make_rng, spawn_seed
from repro.sampling.parallel import WorkerPool
from repro.utils.faults import FaultInjector
from repro.utils.math import popcount
from repro.utils.retry import RetryPolicy

_NO_SEEDS: FrozenSet[int] = frozenset()

# One shared int per single-bit mask. Most nodes of a sample reach one
# member; pointing their masks (and so the pool's index entries) at
# these few objects instead of a fresh int each keeps both smaller.
_BITS = tuple(1 << i for i in range(64))


@dataclass(frozen=True)
class RICSample:
    """One RIC sample ``g``, stored as ``(node, member-mask)`` pairs.

    ``nodes[j]`` lies in ``R_g(members[i])`` — it can reach member ``i``
    of the source community in the realised sample graph — iff bit
    ``i`` of ``masks[j]`` is set. Each node that reaches some member
    appears once (every member reaches itself), and no other node
    appears. A seed set ``S`` *influences* ``g`` iff its nodes' masks
    together carry at least ``threshold`` bits.
    """

    community_index: int
    threshold: int
    members: Tuple[int, ...]
    nodes: Tuple[int, ...]
    masks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.masks):
            raise SamplingError("RICSample needs one member mask per node")
        if not (1 <= self.threshold <= len(self.members)):
            raise SamplingError(
                f"threshold {self.threshold} outside [1, {len(self.members)}]"
            )

    @property
    def reach_sets(self) -> Tuple[FrozenSet[int], ...]:
        """``R_g(u)`` per member, derived from the masks.

        A read-only view for tests and oracles; solvers read the pairs.
        """
        return tuple(
            frozenset(v for v, m in zip(self.nodes, self.masks) if m >> i & 1)
            for i in range(len(self.members))
        )

    def reach_sizes(self) -> List[int]:
        """``|R_g(u)|`` per member: the number of masks with its bit."""
        sizes = [0] * len(self.members)
        for mask in self.masks:
            while mask:
                low = mask & -mask
                sizes[low.bit_length() - 1] += 1
                mask ^= low
        return sizes

    def touched_nodes(self) -> Set[int]:
        """All nodes that *touch* the sample (reach some member).

        This is the node-appearance notion MAF counts: ``v`` appears in
        ``g`` iff ``v ∈ C_g`` or ``v ∈ R_g(u)`` for some member ``u``
        (members always appear since ``u ∈ R_g(u)``).
        """
        return set(self.nodes)

    def _covered_mask(self, seeds: Iterable[int]) -> int:
        """``I_g(S)`` as a mask: the OR of the seeds' masks."""
        seed_set = set(seeds)
        covered = 0
        for node, mask in zip(self.nodes, self.masks):
            if node in seed_set:
                covered |= mask
        return covered

    def covered_members(self, seeds: Iterable[int]) -> int:
        """``|I_g(S)|`` — members whose reach set intersects ``seeds``."""
        return popcount(self._covered_mask(seeds))

    def is_influenced_by(self, seeds: Iterable[int]) -> bool:
        """``X_g(S)`` — whether ``seeds`` influence this sample."""
        return popcount(self._covered_mask(seeds)) >= self.threshold


class RICSampler:
    """Generates independent RIC samples for a (graph, communities) pair.

    The sampler owns a *master* RNG stream from which each sample draws
    its own child-stream seed (exactly one master draw per sample, via
    :func:`repro.rng.spawn_seed`); all randomness inside a sample comes
    from the child stream. A sample is therefore a pure function of
    ``(graph, communities, model, child_seed)``, so the samples do not
    depend on ``workers``, ``batch_size`` or healed worker crashes. The
    cumulative table of the source distribution ``ρ`` is precomputed so
    repeated calls are cheap.

    With ``workers > 1``, a ``sample_many`` call of at least
    :attr:`MIN_DISPATCH` samples runs in a lazily started
    :class:`~repro.sampling.parallel.WorkerPool`, in batches of
    ``batch_size`` (default: a quarter of a worker's share), healing
    crashes within ``retry`` (default: 3 attempts); ``fault_injector``
    ships into the workers. Such a sampler owns OS processes: call
    :meth:`close` (or use it as a context manager) when done.

    A sampler is not reentrant: its per-node scratch and its reseeded
    child stream are per sampler, so callers must not sample through
    one instance from two threads at once
    (:class:`~repro.serving.shards.WarmShard` serialises access under
    ``shard.lock``). The graph's ``in_pairs()`` table is re-read per
    sample, so a sampler follows later mutations of its graph; worker
    processes keep the copy taken when they started.
    """

    #: Below this many samples a ``sample_many`` call stays in process.
    MIN_DISPATCH = 16

    def __init__(
        self,
        graph: DiGraph,
        communities: CommunityStructure,
        seed: SeedLike = None,
        model: str = "ic",
        workers: int = 1,
        batch_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise SamplingError(f"workers must be >= 1, got {workers}")
        if batch_size is not None and batch_size < 1:
            raise SamplingError(f"batch_size must be >= 1, got {batch_size}")
        communities.validate_against(graph.num_nodes)
        if model not in ("ic", "lt"):
            raise SamplingError(
                f"model must be 'ic' or 'lt', got {model!r}"
            )
        self.graph = graph
        self.communities = communities
        self.model = model
        self._rng = make_rng(seed)
        self._child = random.Random()
        self._epoch = 0
        self._stamp = 0
        self._bind(graph.in_pairs())
        # Zero-benefit communities are excluded from the cumulative
        # table: ρ(C_i) = 0 means C_i must never be drawn, but a
        # duplicated CDF entry would be selected when the uniform draw
        # lands exactly on its predecessor's value (e.g. 0.0 picking a
        # zero-benefit community 0).
        distribution = communities.benefit_distribution()
        self._source_index: List[int] = []
        self._cumulative: List[float] = []
        running = 0.0
        for index, p in enumerate(distribution):
            if p <= 0.0:
                continue
            running += p
            self._source_index.append(index)
            self._cumulative.append(running)
        if not self._cumulative:
            raise SamplingError(
                "cannot sample sources: every community has zero benefit"
            )
        # Guard against floating drift so the last community is reachable.
        self._cumulative[-1] = 1.0
        self.workers = workers
        self.batch_size = batch_size
        self._pool = (
            WorkerPool(graph, communities, model, workers, retry, fault_injector)
            if workers > 1
            else None
        )
        self._profile: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------

    def _bind(self, pairs) -> None:
        """Size the per-node scratch for ``pairs`` (and LT's trigger table).

        Visit and reach entries are stamps: an entry is set for the
        current sample iff it equals the current stamp, so resetting
        between samples is one integer bump. Origin and realised in-edge
        entries are only read for nodes visited in the current sample.
        """
        self._pairs = pairs
        n = len(pairs)
        self._visit = [0] * n
        self._origin = [0] * n
        self._reach = [0] * n
        self._live: List[List[int]] = [[]] * n
        if self.model == "lt":
            # Per-node cumulative trigger table of ``(cumulative_weight,
            # source)`` in adjacency order: one draw and a linear walk
            # realise the node's single LT trigger.
            table: List[Tuple[Tuple[float, int], ...]] = []
            for entries in pairs:
                running = 0.0
                cumulative = []
                for v, w in entries:
                    running += w
                    cumulative.append((running, v))
                table.append(tuple(cumulative))
            self._lt_cum = table

    def _child_stream(self, sample_seed: int) -> random.Random:
        """The sampler's child stream, reseeded to ``sample_seed``.

        Re-binds the scratch first when the graph's pair table is no
        longer the one it was sized for (a ``DiGraph`` was mutated).
        """
        pairs = self.graph.in_pairs()
        if pairs is not self._pairs:
            self._bind(pairs)
        rng = self._child
        rng.seed(sample_seed)
        return rng

    def _pick_source(self, rng) -> int:
        """Draw a community index from ``ρ`` by inverse CDF (binary search)."""
        return self._source_index[bisect_left(self._cumulative, rng.random())]

    def _reverse_bfs(
        self,
        rng: random.Random,
        members: Tuple[int, ...],
        seeds: AbstractSet[int],
        threshold: int,
    ) -> Tuple[Optional[List[List[int]]], int]:
        """Phase 1: reverse BFS from ``members``, realising edges lazily.

        Returns ``(live_in, covered)``: ``live_in[u]`` lists the sources
        of ``u``'s realised in-edges for every visited ``u`` (the list is
        per-node scratch; other nodes' entries are stale). Each
        visited node records the bit of the member whose search reached
        it first, so a realised edge out of a seed proves that seed
        reaches that member; ``covered`` is the mask of members proven
        covered this way (or seeds themselves). Once ``threshold``
        members are covered the search stops and ``live_in`` is
        ``None``. The pool path passes no seeds and always runs to the
        end.
        """
        self._epoch += 1
        epoch = self._epoch
        visit = self._visit
        origin = self._origin
        covered = 0
        count = 0
        bit = 1
        for u in members:
            visit[u] = epoch
            origin[u] = bit
            if u in seeds:
                covered |= bit
                count += 1
            bit <<= 1
        if count >= threshold:
            return None, covered
        live_in = self._live
        # A list iterated while it grows is a FIFO queue: the loop
        # below visits nodes in BFS order, appended ones included.
        queue = list(members)
        push = queue.append
        draw = rng.random
        pairs = self._pairs
        if self.model == "ic":
            for u in queue:
                realized: List[int] = []
                live_in[u] = realized
                bit = origin[u]
                for v, w in pairs[u]:
                    if draw() < w:
                        realized.append(v)
                        if visit[v] != epoch:
                            visit[v] = epoch
                            origin[v] = bit
                            push(v)
                        if v in seeds and not covered & bit:
                            covered |= bit
                            count += 1
                            if count >= threshold:
                                return None, covered
            return live_in, covered
        lt_cum = self._lt_cum
        for u in queue:
            realized = []
            live_in[u] = realized
            cum = lt_cum[u]
            if not cum:
                continue
            if cum[-1][0] > 1.0 + 1e-9:
                raise SamplingError(
                    "LT-mode RIC requires incoming weights to sum to <= 1 "
                    f"(found {cum[-1][0]:.6f}); use assign_weighted_cascade"
                )
            r = draw()
            for cumulative, v in cum:
                if r < cumulative:
                    realized.append(v)
                    bit = origin[u]
                    if visit[v] != epoch:
                        visit[v] = epoch
                        origin[v] = bit
                        push(v)
                    if v in seeds and not covered & bit:
                        covered |= bit
                        count += 1
                        if count >= threshold:
                            return None, covered
                    break
        return live_in, covered

    def next_sample_seed(self) -> int:
        """Draw the next sample's child-stream seed from the master RNG.

        Advances the master stream exactly as :meth:`sample` would, so a
        caller may pre-draw a batch of seeds (to ship to workers) and
        later materialise the identical samples via
        :meth:`sample_from_seed`.
        """
        return spawn_seed(self._rng)

    def sample(self, community_index: Optional[int] = None) -> RICSample:
        """Generate one RIC sample (Algorithm 1).

        ``community_index`` forces the source community (used by tests);
        by default it is drawn from ``ρ``.
        """
        return self.sample_from_seed(self.next_sample_seed(), community_index)

    def sample_from_seed(
        self, sample_seed: int, community_index: Optional[int] = None
    ) -> RICSample:
        """Generate the RIC sample determined by ``sample_seed``.

        Does not touch the master RNG stream: the sample is a pure
        function of the sampler's instance and ``sample_seed``.
        """
        rng = self._child_stream(sample_seed)
        if community_index is None:
            community_index = self._pick_source(rng)
        community = self.communities[community_index]
        members = community.members
        live_in, _ = self._reverse_bfs(
            rng, members, _NO_SEEDS, community.threshold
        )
        # Phase 2 — per-member reachability over realised edges only,
        # marking membership with a fresh stamp per member and OR-ing
        # member i's bit into the mask of every node it reaches; a
        # member without realised in-edges reaches only itself.
        reach = self._reach
        masks: Dict[int, int] = {}
        get = masks.get
        stamp = self._stamp
        for i, u in enumerate(members):
            bit = _BITS[i] if i < 64 else 1 << i
            prev = get(u)
            masks[u] = bit if prev is None else prev | bit
            if not live_in[u]:
                continue
            stamp += 1
            reach[u] = stamp
            stack = [u]
            while stack:
                for v in live_in[stack.pop()]:
                    if reach[v] != stamp:
                        reach[v] = stamp
                        stack.append(v)
                        prev = get(v)
                        masks[v] = bit if prev is None else prev | bit
        self._stamp = stamp

        return RICSample(
            community_index=community_index,
            threshold=community.threshold,
            members=tuple(members),
            nodes=tuple(masks),
            masks=tuple(masks.values()),
        )

    def sample_indicator(self, seeds: AbstractSet[int]) -> Tuple[int, bool]:
        """Draw the next sample's ``(community_index, X_g(seeds))``.

        Equals ``(s.community_index, s.is_influenced_by(seeds))`` for
        ``s = self.sample()``, and advances the master stream by the
        same one draw, but builds no masks and stops as soon as the
        outcome is known. Coverage only grows as more edges are
        realised, so stopping the reverse BFS once ``h`` members are
        covered is exact; the rest of the child stream is thrown away.
        If the BFS ends without reaching a seed the answer is 0.
        Otherwise a per-member DFS over the realised edges stops at the
        first seed it meets, and the member loop ends once ``h`` members
        are covered or no longer can be. ``seeds`` is a set; ids outside
        the graph never match.
        """
        rng = self._child_stream(self.next_sample_seed())
        community_index = self._pick_source(rng)
        community = self.communities[community_index]
        members = community.members
        threshold = community.threshold
        live_in, covered = self._reverse_bfs(rng, members, seeds, threshold)
        if live_in is None:
            return community_index, True
        if not covered:
            return community_index, False
        count = popcount(covered)
        unknown = len(members) - count
        bit = 1
        for u in members:
            if not covered & bit:
                unknown -= 1
                if self._reaches(u, live_in, seeds):
                    count += 1
                    if count >= threshold:
                        return community_index, True
                elif count + unknown < threshold:
                    return community_index, False
            bit <<= 1
        return community_index, False

    def _reaches(
        self, u: int, live_in: List[List[int]], seeds: AbstractSet[int]
    ) -> bool:
        """Whether a seed lies in ``R_g(u)`` (DFS over realised edges)."""
        self._stamp += 1
        stamp = self._stamp
        reach = self._reach
        reach[u] = stamp
        stack = [u]
        while stack:
            for v in live_in[stack.pop()]:
                if v in seeds:
                    return True
                if reach[v] != stamp:
                    reach[v] = stamp
                    stack.append(v)
        return False

    def sample_many(self, count: int) -> List[RICSample]:
        """Generate ``count`` independent RIC samples.

        Draws every sample's child seed from the master stream first,
        then materialises the samples in this process, or in the worker
        processes when ``workers > 1`` and ``count >= MIN_DISPATCH``.
        The samples equal ``count`` calls of :meth:`sample`. Worker
        crashes and worker-raised exceptions are healed within the
        ``retry`` budget; exhaustion raises
        :class:`~repro.errors.WorkerCrashError`.
        """
        if count < 0:
            raise SamplingError(f"count must be non-negative, got {count}")
        pool = self._pool if count >= self.MIN_DISPATCH else None
        mode = "serial" if pool is None else "parallel"
        with trace.span(
            "ric/sample_many", mode=mode, samples=count, workers=self.workers
        ) as span:
            began = time.perf_counter()
            rng = self._rng
            seeds = [spawn_seed(rng) for _ in range(count)]
            batch, batches, utilization = count, 1, None
            health = dict(
                retries=0, worker_restarts=0, failed_batches=[], attempts=1
            )
            if pool is None:
                samples = [self.sample_from_seed(s) for s in seeds]
            else:
                batch = self.batch_size or -(-count // (self.workers * 4))
                batches = -(-count // batch)
                span.set(batches=batches, batch_size=batch)
                samples, busy, health = pool.run(seeds, batch)
            elapsed = time.perf_counter() - began
            if pool is not None and elapsed > 0:
                utilization = min(1.0, busy / (self.workers * elapsed))
            self._profile = dict(
                mode=mode,
                samples=count,
                elapsed_seconds=elapsed,
                samples_per_sec=count / elapsed if elapsed else float("inf"),
                workers=self.workers,
                batches=batches,
                batch_size=batch,
                worker_utilization=utilization,
                **health,
            )
            metrics.inc("ric.samples.generated", count)
        return samples

    def last_profile(self) -> Optional[Dict[str, Any]]:
        """Profile of the most recent ``sample_many`` call (or ``None``).

        Keys, in order: ``mode`` (``"serial"``, drawn in this process,
        or ``"parallel"``, drawn by workers), ``samples``,
        ``elapsed_seconds``, ``samples_per_sec``, the fan-out shape
        ``workers``, ``batches`` and ``batch_size``,
        ``worker_utilization`` (the fraction of worker wall-clock spent
        generating; ``None`` when serial), and the self-healing counters
        of :meth:`~repro.sampling.parallel.WorkerPool.run` (``0``,
        ``0``, ``[]`` and ``1`` when serial).
        """
        return self._profile

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        A no-op for a sampler without workers. A later parallel
        ``sample_many`` starts fresh workers and continues the master
        stream where it left off; one raced against ``close()`` raises
        :class:`~repro.errors.SamplingError`.
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "RICSampler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
