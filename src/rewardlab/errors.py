"""Exception types shared across the package.

Structural problems (wrong shapes, impossible parameters) raise immediately;
data-quality problems are collected into validation reports instead, so the
two failure modes never get conflated.
"""


class StructuralError(ValueError):
    """Input has the wrong shape or an impossible parameter."""


class ValidationFailure(ValueError):
    """A loaded document failed re-validation (carries the report)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(RuntimeError):
    """A solver could not meet its tolerance: iteration cap hit, or round-off above it."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CapacityError(RuntimeError):
    """A brute-force enumeration would exceed its configured cap."""


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


class CertificationError(RuntimeError):
    """A synthesized policy failed its membership certification."""


class InternalConsistencyError(RuntimeError):
    """Two independent decision paths disagreed; signals a bug, not bad input."""


class UnknownClaimError(ValueError):
    """Requested claim id is not in the registry."""
