"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class DimensionError(ReproError):
    """Raised when matrix or vector dimensions are incompatible."""


class SingularMatrixError(ReproError):
    """Raised when a pivot is (numerically) zero during decomposition."""

    def __init__(self, pivot_index: int, value: float = 0.0) -> None:
        self.pivot_index = pivot_index
        self.value = value
        super().__init__(
            f"matrix is singular or nearly singular at pivot {pivot_index} "
            f"(value={value!r})"
        )


class NotSymmetricError(ReproError):
    """Raised when a symmetric matrix is required but a non-symmetric one is given."""


class EmptySequenceError(ReproError):
    """Raised when an evolving matrix/graph sequence is empty."""


class PatternError(ReproError):
    """Raised when a value falls outside the admissible sparsity pattern."""


class OrderingError(ReproError):
    """Raised when a permutation/ordering is malformed."""


class ClusteringError(ReproError):
    """Raised when a clustering parameter or result is invalid."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or loaded."""


class MeasureError(ReproError):
    """Raised when a graph measure is configured incorrectly."""


class StoreError(ReproError):
    """Raised for persistent factor-store failures."""


class StoreFormatError(StoreError):
    """Raised when an on-disk checkpoint is torn, corrupt, or foreign.

    The store treats this as a miss: a file that fails its magic, version,
    checksum, or structural checks is never decoded into a served system.
    """


class FactorizationError(MeasureError):
    """Raised when one or more of a batch's cold factorizations failed.

    Carries one annotated report per failed group (its index among the
    batch's cold groups plus the failing system's description), so a
    poisoned query in a large batch is diagnosable.
    """

    def __init__(self, failures) -> None:
        self.failures = tuple(failures)
        super().__init__(
            f"{len(self.failures)} factor unit(s) failed: "
            + "; ".join(self.failures)
        )
