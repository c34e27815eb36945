"""Exception types shared across the library."""


class SymkitError(Exception):
    """Base class for all library errors."""


class EvaluationBudgetError(SymkitError):
    """A single query exceeded its primitive-application budget."""

    def __init__(self, message, limit=None, spent=None, form=None):
        super().__init__(message)
        self.limit, self.spent, self.form = limit, spent, form


class NoSupportCertificateError(SymkitError):
    """An operation needed a finite-support certificate the permutation lacks."""


class NoCertificateError(SymkitError):
    """An operation needed a certificate (norm bound, block permutation) that is absent."""


class ConvergenceError(SymkitError):
    """A convergence hypothesis failed at some level of a sequence."""

    def __init__(self, message, level=None, point=None, condition=None):
        super().__init__(message)
        self.level = level
        self.point = point
        self.condition = condition


class UnsupportedMetricError(SymkitError):
    """The metric does not support the requested operation (e.g. comparison-only values)."""


class NotUncrowdedError(SymkitError):
    """A ball enumeration exceeded its size cap."""

    def __init__(self, message, center=None, radius=None):
        super().__init__(message)
        self.center = center
        self.radius = radius


class InsufficientSetError(SymkitError):
    """The supplied point enumeration ran out before the construction finished."""


class ProfileViolationError(SymkitError):
    """A declared partition profile contradicts an observed block."""


class NotIsomorphicError(SymkitError):
    """Two partitions disagree on block-size multiplicities at the probed depth."""


class HypothesisFailureError(SymkitError):
    """An oracle could not supply the orbit sizes a construction requires."""

    def __init__(self, message, level=None, gamma=None):
        super().__init__(message)
        self.level = level
        self.gamma = gamma


class IllFormedTreeError(SymkitError):
    """A tree construction produced a duplicate component."""


class PreconditionError(SymkitError):
    """An operation's precondition was violated."""


class ParseError(SymkitError):
    """A descriptor or permutation string failed to parse."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
