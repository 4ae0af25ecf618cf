"""Math helpers used by sample-complexity bounds and estimators."""

from __future__ import annotations

import math

# int.bit_count() exists from Python 3.10; fall back for 3.9.
if hasattr(int, "bit_count"):
    popcount = int.bit_count
else:  # pragma: no cover - exercised only on Python 3.9

    def popcount(x: int) -> int:
        """Number of set bits in the non-negative int ``x``."""
        return bin(x).count("1")


def log_binomial(n: int, k: int) -> float:
    """Natural log of the binomial coefficient ``C(n, k)``.

    Computed via ``lgamma`` so it stays exact enough for the huge values
    that appear in union-bound sample counts (e.g. ``C(10^6, 100)``).
    Returns ``-inf`` for impossible combinations.
    """
    if k < 0 or k > n:
        return float("-inf")
    if k == 0 or k == n:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def log_n_choose_k(n: int, k: int) -> float:
    """Alias of :func:`log_binomial` matching the paper's ``ln C(n,k)``."""
    return log_binomial(n, k)


def harmonic_number(n: int) -> float:
    """The ``n``-th harmonic number ``H_n = sum_{i=1..n} 1/i``.

    Uses the asymptotic expansion for large ``n`` to stay O(1).
    """
    if n <= 0:
        return 0.0
    if n < 100:
        return sum(1.0 / i for i in range(1, n + 1))
    gamma = 0.577_215_664_901_532_9
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into ``[low, high]``."""
    return max(low, min(high, value))


def mean(values) -> float:
    """Arithmetic mean of a non-empty iterable of numbers."""
    total = 0.0
    count = 0
    for v in values:
        total += v
        count += 1
    if count == 0:
        raise ValueError("mean of empty sequence")
    return total / count
