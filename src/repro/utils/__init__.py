"""Small shared utilities: lazy heap, math helpers, timing, validation,
retry/deadline primitives and deterministic fault injection."""

from repro.utils.faults import Fault, FaultInjected, FaultInjector
from repro.utils.heap import LazyMaxHeap
from repro.utils.math import harmonic_number, log_binomial, log_n_choose_k
from repro.utils.retry import Deadline, RetryPolicy, as_deadline
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_node,
    check_positive,
    check_probability,
    check_seed_budget,
)

__all__ = [
    "LazyMaxHeap",
    "harmonic_number",
    "log_binomial",
    "log_n_choose_k",
    "Stopwatch",
    "Deadline",
    "RetryPolicy",
    "as_deadline",
    "Fault",
    "FaultInjected",
    "FaultInjector",
    "check_fraction",
    "check_node",
    "check_positive",
    "check_probability",
    "check_seed_budget",
]
