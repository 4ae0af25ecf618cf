"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while the library
itself raises the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples include referencing a node outside ``range(n)``, adding an
    edge with a probability outside ``[0, 1]``, or loading a malformed
    edge-list file.
    """


class CommunityError(ReproError):
    """Raised for invalid community structures.

    A valid structure partitions a subset of ``V`` into *disjoint*
    communities with positive thresholds not exceeding the community size
    and non-negative benefits.
    """


class SamplingError(ReproError):
    """Raised when RIC / RR sample generation receives invalid input."""


class WorkerCrashError(SamplingError):
    """Raised when parallel sampling exhausts its retry budget.

    The self-healing :class:`~repro.sampling.parallel.ParallelRICSampler`
    transparently restarts crashed worker pools and re-dispatches failed
    batches; only when the same work keeps failing for every attempt
    allowed by its :class:`~repro.utils.retry.RetryPolicy` does this
    error surface. ``attempts`` records how many dispatch rounds ran.
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class DeadlineExceededError(ReproError):
    """Raised when a time budget expires before *any* result exists.

    Deadline-aware entry points (``solve_imc``, the MAXR solvers) prefer
    graceful degradation — they return the best-so-far seed set marked
    ``truncated`` — and raise this error only when the deadline expired
    before a single seed could be selected, so callers never receive a
    silently-empty "result".
    """


class SolverError(ReproError):
    """Raised when a MAXR / IMC solver is mis-configured.

    Examples: ``k`` larger than the number of nodes, a bounded-threshold
    algorithm (BT/MB) applied to an instance whose thresholds exceed its
    declared bound, or an empty sample pool handed to a solver that
    requires one.
    """


class EstimationError(ReproError):
    """Raised when a Monte-Carlo estimator is given invalid parameters."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or invalid dataset specs."""


class ExperimentError(ReproError):
    """Raised for malformed experiment configurations."""


class ServingError(ReproError):
    """Raised for invalid requests to the :mod:`repro.serving` layer.

    Examples: an unknown scenario name, a malformed ``/solve`` payload
    (non-positive budget, unknown solver), or operations on a store
    that has been shut down. The HTTP front end maps this (and every
    other :class:`ReproError`) to a ``400`` response, except
    :class:`UnknownScenarioError`, which is a ``404``; unexpected
    exceptions become ``500`` so no connection is ever dropped.
    """


class UnknownScenarioError(ServingError):
    """Raised when a request names a scenario the server does not hold.

    The HTTP front end maps this type — and only this type — to ``404``.
    The status is chosen by type, never by matching message text, since
    error messages echo client input.
    """


class ClusterError(ServingError):
    """Raised for cluster-level serving failures.

    Examples: a replica that never became healthy within the startup
    timeout, a supervisor asked to address a replica id it does not
    manage, or a router whose every candidate replica refused a request
    (the router maps that exhaustion to a ``503`` rather than letting
    the error escape the HTTP layer).
    """


class ObservabilityError(ReproError):
    """Raised for misuse of the :mod:`repro.obs` instrumentation layer.

    Examples: nesting instrumentation sessions (only one may be active
    per process) or loading a file that is not a run manifest.
    """
