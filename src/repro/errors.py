"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems raise the most specific
subclass that applies; constructors accept a human-readable message and
(optionally) structured context that is folded into the message.
"""

from __future__ import annotations

from typing import NoReturn, Sequence

__all__ = [
    "ReproError",
    "ConfigurationError",
    "PlatformError",
    "PartitionError",
    "CommunicationError",
    "DeadlockError",
    "RankFailedError",
    "RepartitionSignal",
    "FaultPlanError",
    "WhatIfPlanError",
    "DataError",
    "ShapeError",
    "ConvergenceError",
    "ExperimentError",
    "EnviFormatError",
    "require",
    "raise_root_cause",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter or inconsistent configuration was supplied."""


class PlatformError(ReproError):
    """A heterogeneous platform description is malformed or unusable.

    Raised e.g. for unknown processor ids, non-symmetric link-capacity
    matrices, or topologies that are not connected.
    """


class PartitionError(ReproError):
    """A data partitioning request cannot be satisfied.

    Raised when the aggregate memory of the platform cannot hold the
    workload, when workload fractions do not sum to one, or when a
    partition would be empty where the algorithm requires non-empty
    shares.
    """


class CommunicationError(ReproError):
    """A message-passing operation failed or was used incorrectly."""


class DeadlockError(CommunicationError):
    """The runtime detected that all ranks are blocked with no messages
    in flight — the program can never make progress."""


class RankFailedError(CommunicationError):
    """A rank stopped executing (crashed) and can no longer communicate.

    Raised on the failing rank itself by the fault injector
    (``injected=True``) and on its peers when they try to talk to it
    (``secondary=True``).  The failure-sorting logic in both backends
    prefers injected over secondary errors, so the reported root cause
    is always the crash, not the fallout.

    Attributes:
        rank: the rank that failed (in the *current* run's numbering).
        injected: True when raised by a fault plan on the failing rank.
        secondary: True when raised on a peer that observed the failure.
    """

    def __init__(
        self,
        rank: int,
        message: str | None = None,
        injected: bool = False,
        secondary: bool = False,
    ) -> None:
        self.rank = int(rank)
        self.injected = bool(injected)
        self.secondary = bool(secondary)
        super().__init__(message or f"rank {rank} failed")


class RepartitionSignal(ReproError):
    """Cooperative mid-run exit: all ranks agreed to repartition.

    Raised by every rank of an adaptive run at the same iteration
    boundary after the master's repartition decision was broadcast (see
    :mod:`repro.faults.adaptive`).  Unlike a crash, no rank is left
    blocked — each rank raises this right after the decision broadcast
    completes locally — so the backends retire the rank *without*
    aborting the router (an abort could kill peers still forwarding
    inside the broadcast tree, turning a clean coordinated exit into
    nondeterministic secondary failures).

    Attributes:
        rank: dense rank id of the drifting rank (current numbering).
        factor: estimated slowdown factor to fold into the model.
        step: completed iteration count the run can resume from.
        ewma: the detector's EWMA relative error at the decision.
    """

    #: Marker for the backends' failure handling: a cooperative signal
    #: must not abort the router.
    cooperative = True

    def __init__(
        self, rank: int, factor: float, step: int, ewma: float = 0.0
    ) -> None:
        self.rank = int(rank)
        self.factor = float(factor)
        self.step = int(step)
        self.ewma = float(ewma)
        super().__init__(
            f"repartition requested at step {step}: rank {rank} drifted "
            f"(estimated slowdown x{factor:.3g}, ewma={ewma:.4f})"
        )


class FaultPlanError(ConfigurationError):
    """A fault plan is malformed or inconsistent with the platform."""


class WhatIfPlanError(ConfigurationError):
    """A what-if plan is malformed or inconsistent with the trace."""


class DataError(ReproError, ValueError):
    """Input data (image cube, spectra, ground truth) is invalid."""


class ShapeError(DataError):
    """An array does not have the shape or dimensionality required."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured or produced invalid output."""


class EnviFormatError(ReproError, IOError):
    """An ENVI header/binary pair could not be parsed or round-tripped."""


def require(
    condition: bool,
    message: str,
    error: type[ReproError] = ConfigurationError,
) -> None:
    """Raise ``error(message)`` unless ``condition`` holds (the
    validators' one-line guard)."""
    if not condition:
        raise error(message)


def _is_secondary(exc: BaseException) -> bool:
    return isinstance(exc, DeadlockError) or bool(getattr(exc, "secondary", False))


def raise_root_cause(failures: Sequence[tuple[int, BaseException]]) -> NoReturn:
    """Raise the root cause of a multi-rank failure, chaining the rest.

    When one rank crashes, its peers typically surface secondary
    :class:`DeadlockError`/:class:`RankFailedError` fallout.  Failures
    are ordered injected-first, secondaries last (ties broken by rank),
    the remaining exceptions are linked onto the winner's
    ``__context__`` chain, and the winner is raised (wrapped in a
    :class:`ReproError` if it is a foreign exception).
    """
    ordered = sorted(
        failures,
        key=lambda item: (
            _is_secondary(item[1]),
            not bool(getattr(item[1], "injected", False)),
            item[0],
        ),
    )
    rank, root = ordered[0]
    tail: BaseException = root
    for _, exc in ordered[1:]:
        if exc is root or exc is tail:
            continue
        tail.__context__ = exc
        tail = exc
    if isinstance(root, ReproError):
        raise root
    raise ReproError(f"rank {rank} failed: {root!r}") from root
