"""BT and MB on ``(node, mask)`` pairs pick what the reach-set BT picked.

BT used to build a private ``node -> [(sample, member)]`` index from
the samples' reach sets, reduce a collection by filtering those sets
(Lemma 5) and dedupe each greedy gain through a set. It now reuses the
pool's mask index, reduces by ``threshold - popcount(mask_u)`` and
``mask & ~mask_u``, and counts a node's live samples. The reference
here is the reach-set ``_Collection``, ``_greedy_cover`` and
``_bt_solve``, kept literally. On random pools with thresholds up to
the bound (2 by default, 3 with ``threshold_bound=3``), with and
without ``candidates`` and ``candidate_limit``, BT and MB must return
the same seeds in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.bt import BT, MB
from repro.core.maf import MAF
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.heap import LazyMaxHeap

from tests.ric_samples import ric_sample

NUM_NODES = 12


class ReachSetCollection:
    """BT's reduced collection over reach sets, as it was."""

    def __init__(self, thresholds, reach_sets):
        self.thresholds = thresholds
        self.reach_sets = reach_sets
        self.coverage = {}
        self.auto_influenced = sum(1 for h in thresholds if h <= 0)
        for sample_idx, reaches in enumerate(reach_sets):
            if thresholds[sample_idx] <= 0:
                continue
            for member_idx, reach in enumerate(reaches):
                for node in reach:
                    self.coverage.setdefault(node, []).append(
                        (sample_idx, member_idx)
                    )

    def __len__(self):
        return len(self.thresholds)

    @classmethod
    def from_pool(cls, pool):
        return cls(
            [s.threshold for s in pool.samples],
            [s.reach_sets for s in pool.samples],
        )

    def nodes(self):
        return list(self.coverage)

    def touched_by(self, node):
        return sorted({s for s, _ in self.coverage.get(node, ())})

    def reduce_by(self, node):
        thresholds = []
        reach_sets = []
        for sample_idx in self.touched_by(node):
            kept = [
                reach
                for reach in self.reach_sets[sample_idx]
                if node not in reach
            ]
            removed = len(self.reach_sets[sample_idx]) - len(kept)
            thresholds.append(max(0, self.thresholds[sample_idx] - removed))
            reach_sets.append(tuple(kept))
        return ReachSetCollection(thresholds, reach_sets)

    def influenced_count(self, seeds):
        covered = {}
        for v in set(seeds):
            for sample_idx, member_idx in self.coverage.get(v, ()):
                covered.setdefault(sample_idx, set()).add(member_idx)
        live_influenced = sum(
            1
            for sample_idx, members in covered.items()
            if len(members) >= self.thresholds[sample_idx]
        )
        return live_influenced + self.auto_influenced

    def max_threshold(self):
        return max(self.thresholds, default=0)


def reach_set_greedy_cover(collection, k, allowed=None):
    sample_covered = [h <= 0 for h in collection.thresholds]
    heap = LazyMaxHeap()

    def gain(node):
        return len(
            {
                s
                for s, _ in collection.coverage.get(node, ())
                if not sample_covered[s]
            }
        )

    for node in sorted(collection.coverage):
        if allowed is not None and node not in allowed:
            continue
        g = gain(node)
        if g > 0:
            heap.push(node, g)
    chosen = []
    while heap and len(chosen) < k:
        node, _ = heap.pop_max()
        fresh = gain(node)
        if fresh <= 0:
            continue
        if heap:
            _, next_best = heap.peek_max()
            if fresh < next_best:
                heap.push(node, fresh)
                continue
        chosen.append(node)
        for s, _ in collection.coverage.get(node, ()):
            sample_covered[s] = True
    return chosen


def reach_set_bt_solve(collection, k, depth, candidate_limit, allowed=None):
    if k <= 0 or len(collection) == 0:
        return []
    if depth <= 1 or collection.max_threshold() <= 1:
        return reach_set_greedy_cover(collection, k, allowed=allowed)
    candidates = collection.nodes()
    if allowed is not None:
        candidates = [v for v in candidates if v in allowed]
    candidates.sort(key=lambda v: (-len(collection.touched_by(v)), v))
    if candidate_limit is not None:
        candidates = candidates[:candidate_limit]
    best_seeds = []
    best_score = -1
    for u in candidates:
        reduced = collection.reduce_by(u)
        companions = reach_set_bt_solve(
            reduced, k - 1, depth - 1, candidate_limit, allowed=allowed
        )
        companions = [v for v in companions if v != u][: k - 1]
        score = reduced.influenced_count(companions)
        if score > best_score:
            best_score = score
            best_seeds = [u] + companions
    return best_seeds


def pools(max_threshold):
    """A random pool whose thresholds are at most ``max_threshold``."""

    @st.composite
    def build(draw):
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, NUM_NODES - 1),
                    st.integers(0, NUM_NODES - 1),
                    st.sampled_from((0.3, 0.6, 1.0)),
                ).filter(lambda e: e[0] != e[1]),
                max_size=30,
                unique_by=lambda e: (e[0], e[1]),
            )
        )
        graph = DiGraph(NUM_NODES)
        for u, v, w in edges:
            graph.add_edge(u, v, w)
        nodes = draw(st.permutations(range(NUM_NODES)))
        communities = []
        start = 0
        for _ in range(draw(st.integers(1, 3))):
            size = draw(st.integers(1, 4))
            members = tuple(nodes[start:start + size])
            start += size
            communities.append(
                Community(
                    members=members,
                    threshold=draw(st.integers(1, min(size, max_threshold))),
                    benefit=float(draw(st.integers(1, 5))),
                )
            )
        structure = CommunityStructure(communities)
        pool = RICSamplePool(
            RICSampler(graph, structure, seed=draw(st.integers(0, 2**16)))
        )
        pool.grow(draw(st.integers(1, 40)))
        # Hand-built samples whose reach sets need not follow the graph.
        for _ in range(draw(st.integers(0, 4))):
            idx = draw(st.integers(0, len(structure) - 1))
            community = structure[idx]
            reaches = tuple(
                frozenset(
                    draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=4))
                    | {member}
                )
                for member in community.members
            )
            pool.add(
                ric_sample(idx, community.threshold, community.members, reaches)
            )
        return pool

    return build()


def options():
    return st.tuples(
        st.integers(1, 4),
        st.one_of(
            st.none(),
            st.sets(st.integers(0, NUM_NODES - 1), min_size=1, max_size=8),
        ),
        st.one_of(st.none(), st.integers(1, 5)),
        st.integers(0, 2**16),
    )


def assert_bt_and_mb_match(pool, bound, k, candidates, limit, maf_seed):
    expected = reach_set_bt_solve(
        ReachSetCollection.from_pool(pool), k, bound, limit, allowed=candidates
    )
    kwargs = {"threshold_bound": bound, "candidate_limit": limit}
    bt = BT(candidates=candidates, **kwargs).solve(pool, k)
    assert list(bt.seeds) == expected
    assert bt.objective == pool.estimate_benefit(expected)
    maf = MAF(seed=maf_seed, candidates=candidates).solve(pool, k)
    winner = maf.seeds if maf.objective >= bt.objective else tuple(expected)
    mb = MB(seed=maf_seed, candidates=candidates, **kwargs).solve(pool, k)
    assert mb.seeds == winner


@given(pools(2), options())
@settings(max_examples=200, deadline=None)
def test_bt_and_mb_match_the_reach_set_bt(pool, opts):
    assert_bt_and_mb_match(pool, 2, *opts)


@given(pools(3), options())
@settings(max_examples=100, deadline=None)
def test_bt3_and_mb3_match_the_reach_set_bt(pool, opts):
    assert_bt_and_mb_match(pool, 3, *opts)
