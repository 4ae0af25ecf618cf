"""Sampling substrate: RIC samples (Algorithm 1) and their pool.

The Reverse Influenceable Community (RIC) sample is the paper's key
estimation device: pick a source community ``C_g`` with probability
``ρ(C_i) = b_i / b``, realise a deterministic sample graph lazily by
reverse BFS from ``C_g``, and record for every member ``u ∈ C_g`` its
reachable set ``R_g(u)`` (nodes that can reach ``u``), stored as one
member mask per reaching node. Then
``c(S) = b · E[X_g(S)]`` where ``X_g(S) = 1`` iff ``S`` intersects the
reach sets of at least ``h_g`` members (Lemma 1).

Over singleton communities (threshold 1, benefit 1) a RIC sample is a
classic RR set and ``c(S) = σ(S) = n · E[1_{R ∩ S ≠ ∅}]``; the IM
baseline (:mod:`repro.baselines.im_baseline`) samples that way.
"""

from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSample, RICSampler

__all__ = [
    "RICSample",
    "RICSampler",
    "RICSamplePool",
]
