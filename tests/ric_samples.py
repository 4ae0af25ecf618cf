"""Hand-built RIC samples and singleton instances for tests.

Tests state a sample the way the paper does, by its per-member reach
sets ``R_g(u)``; :func:`ric_sample` packs them into the ``(node,
member-mask)`` pairs a :class:`~repro.sampling.ric.RICSample` stores.
:func:`singletons` is classic IM as an IMC instance: a RIC sample of
its community ``v`` is an RR set rooted at ``v``.
"""

from typing import AbstractSet, Dict, Sequence

from repro.communities.structure import Community, CommunityStructure
from repro.sampling.ric import RICSample


def singletons(num_nodes: int) -> CommunityStructure:
    """One threshold-1, benefit-1 community per node, indexed by node."""
    return CommunityStructure(
        [
            Community(members=(v,), threshold=1, benefit=1.0)
            for v in range(num_nodes)
        ]
    )


def ric_sample(
    community_index: int,
    threshold: int,
    members: Sequence[int],
    reach_sets: Sequence[AbstractSet[int]],
) -> RICSample:
    """The sample whose member ``i`` is reached by ``reach_sets[i]``.

    Bit ``i`` of a node's mask is set iff the node lies in
    ``reach_sets[i]``. Nodes are listed in first-seen order, member by
    member, each reach set in ascending order.
    """
    assert len(reach_sets) == len(members), "one reach set per member"
    masks: Dict[int, int] = {}
    for i, reach in enumerate(reach_sets):
        for node in sorted(reach):
            masks[node] = masks.get(node, 0) | 1 << i
    return RICSample(
        community_index,
        threshold,
        tuple(members),
        tuple(masks),
        tuple(masks.values()),
    )
