"""The bound-pruned ĉ greedy picks what the eager loop picks.

``greedy_maxr`` evaluates candidates in descending ``gain_bound`` order
and ends a round once the next bound is below the best ĉ gain found.
The reference here is the literal greedy loop: every round recomputes
every remaining candidate's ``(ĉ, ν)`` marginal on the reference engine
and keeps the largest ``(ĉ, ν, -id)``. On random pools, on both
engines, with and without a ``candidates`` restriction and after the
pool grows, both must pick the same seeds in the same order. Pools mix
thresholds above 1 (where ĉ is not submodular, so a node's ĉ gain can
rise after other seeds) with threshold-1 samples (where ĉ gains are
positive from the first round, so rounds prune).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.flat_engine import FlatCoverage
from repro.core.greedy import greedy_maxr
from repro.core.objective import CoverageState
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample

NUM_NODES = 12


def eager_greedy_maxr(pool, k, candidates=None):
    """Greedy on ĉ_R that recomputes every marginal in every round."""
    state = CoverageState(pool)
    if candidates is None:
        remaining = set(pool.touching_nodes())
    else:
        remaining = set(candidates)
    chosen = []
    for _ in range(min(k, len(remaining))):
        best_node = None
        best_key = None
        for node in sorted(remaining):
            key = state.gain_pair(node)
            if best_key is None or key > best_key:
                best_key = key
                best_node = node
        state.add_seed(best_node)
        remaining.discard(best_node)
        chosen.append(best_node)
    return chosen


def _structure(draw):
    communities = []
    next_node = 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, size)),
                benefit=1.0,
            )
        )
    return CommunityStructure(communities)


def _graph(draw):
    graph = DiGraph(NUM_NODES)
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, NUM_NODES - 1), st.integers(0, NUM_NODES - 1)
            ).filter(lambda edge: edge[0] != edge[1]),
            max_size=30,
        )
    )
    for source, target in sorted(edges):
        graph.add_edge(source, target, draw(st.sampled_from([0.3, 0.6, 1.0])))
    return graph


@st.composite
def greedy_cases(draw):
    structure = _structure(draw)
    sampler = RICSampler(
        _graph(draw), structure, seed=draw(st.integers(0, 2**16))
    )
    pool = RICSamplePool(sampler)
    pool.grow(draw(st.integers(1, 25)))
    # Hand-drawn samples add duplicate and overlapping reach sets that
    # an edge-sparse graph rarely samples.
    for _ in range(draw(st.integers(0, 6))):
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
    candidates = draw(
        st.none()
        | st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=1, max_size=8
        )
    )
    k = draw(st.integers(1, 6))
    growth = draw(st.integers(1, 20))
    return pool, candidates, k, growth


@given(greedy_cases())
@settings(max_examples=300, deadline=None)
def test_greedy_maxr_matches_the_eager_loop(case):
    pool, candidates, k, growth = case
    for _ in range(2):
        expected = eager_greedy_maxr(pool, k, candidates)
        for engine in ("flat", "reference"):
            assert (
                greedy_maxr(pool, k, candidates=candidates, engine=engine)
                == expected
            )
        # The grown pool drops the empty-seed cache the first pass
        # filled; the second pass must read the new samples.
        pool.grow(growth)


def test_greedy_maxr_skips_marginals_that_cannot_win(monkeypatch):
    """Node 0 completes all eight threshold-1 samples, so the first
    round stops after it (every other bound is 1). The eager loop
    makes 8 + 7 calls for k = 2; the pruned loop makes 1 + 7."""
    graph = DiGraph(NUM_NODES)
    communities = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=0))
    for node in range(1, 8):
        pool.add(ric_sample(0, 1, (0,), (frozenset({0, node}),)))
    pool.add(ric_sample(0, 1, (0,), (frozenset({0}),)))
    candidates = sorted(pool.touching_nodes())
    k = 2
    for engine, cls in (("flat", FlatCoverage), ("reference", CoverageState)):
        calls = []
        original = cls.gain_pair

        def counted(self, node, original=original, calls=calls):
            calls.append(node)
            return original(self, node)

        monkeypatch.setattr(cls, "gain_pair", counted)
        seeds = greedy_maxr(pool, k, engine=engine)
        monkeypatch.setattr(cls, "gain_pair", original)
        assert seeds == eager_greedy_maxr(pool, k) == [0, 1]
        eager_calls = sum(len(candidates) - r for r in range(k))
        assert len(calls) == 8 < eager_calls < k * len(candidates)
