"""Argument-validation helpers shared by public API entry points.

All helpers raise :class:`ValueError` (or a library-specific error passed
via ``exc``) with actionable messages that name the offending argument.
"""

from __future__ import annotations

from typing import Iterable, Optional, Type


def check_probability(value: float, name: str, exc: Type[Exception] = ValueError) -> float:
    """Require ``0 <= value <= 1``; return ``value``."""
    if not (0.0 <= value <= 1.0):
        raise exc(f"{name} must be a probability in [0, 1], got {value!r}")
    return value


def check_fraction(value: float, name: str, exc: Type[Exception] = ValueError) -> float:
    """Require ``0 < value < 1`` (open interval, e.g. epsilon/delta)."""
    if not (0.0 < value < 1.0):
        raise exc(f"{name} must lie strictly in (0, 1), got {value!r}")
    return value


def check_positive(value, name: str, exc: Type[Exception] = ValueError):
    """Require ``value > 0``; return ``value``."""
    if value <= 0:
        raise exc(f"{name} must be positive, got {value!r}")
    return value


def check_node(node: int, n: int, exc: Type[Exception] = ValueError) -> int:
    """Require ``node`` to be a valid node id for a graph with ``n`` nodes."""
    if not isinstance(node, int) or isinstance(node, bool):
        raise exc(f"node ids must be ints, got {node!r}")
    if not (0 <= node < n):
        raise exc(f"node id {node} out of range for graph with {n} nodes")
    return node


def check_candidates(
    candidates: Optional[Iterable[int]],
    n: int,
    exc: Type[Exception] = ValueError,
) -> None:
    """Require every seeding candidate to be a node id in ``[0, n)``.

    ``None`` (no restriction) passes. The error names every offending
    id, so a typo in a candidate list is found in one round trip.
    """
    if candidates is None:
        return
    outside = sorted(v for v in candidates if not 0 <= v < n)
    if outside:
        raise exc(
            f"candidates {outside} are not node ids of the {n}-node graph"
        )


def check_seed_budget(k: int, n: int, exc: Type[Exception] = ValueError) -> int:
    """Require ``1 <= k <= n`` for a seed budget on an ``n``-node graph."""
    if k < 1:
        raise exc(f"seed budget k must be at least 1, got {k}")
    if k > n:
        raise exc(f"seed budget k={k} exceeds the number of nodes n={n}")
    return k
