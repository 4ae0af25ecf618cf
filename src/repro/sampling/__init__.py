"""Sampling substrate: RIC samples (Algorithm 1), RR sets, pools.

The Reverse Influenceable Community (RIC) sample is the paper's key
estimation device: pick a source community ``C_g`` with probability
``ρ(C_i) = b_i / b``, realise a deterministic sample graph lazily by
reverse BFS from ``C_g``, and record for every member ``u ∈ C_g`` its
reachable set ``R_g(u)`` (nodes that can reach ``u``), stored as one
member mask per reaching node. Then
``c(S) = b · E[X_g(S)]`` where ``X_g(S) = 1`` iff ``S`` intersects the
reach sets of at least ``h_g`` members (Lemma 1).

Classic RR sets (Reverse Influence Sampling) are included for the IM
baseline: ``σ(S) = n · E[1_{R ∩ S ≠ ∅}]``.
"""

from repro.sampling.pool import RICSamplePool, RRSamplePool
from repro.sampling.ric import RICSample, RICSampler
from repro.sampling.rr import RRSampler

__all__ = [
    "RICSample",
    "RICSampler",
    "RRSampler",
    "RICSamplePool",
    "RRSamplePool",
]
