"""Exception types shared across the package."""


class MildlabError(Exception):
    """Base class for all package errors."""


class NonFiniteInput(MildlabError):
    """An argument that must be finite is nan or infinite."""


class BracketFailure(MildlabError):
    """A root bracket's ends do not straddle the root (malformed graph)."""


class NoConvergence(MildlabError):
    """An iteration reached its cap before its stop test held."""


class GridMismatch(MildlabError):
    """Two grid functions live on different grids."""


class InvalidExponent(MildlabError):
    """A Lebesgue exponent violates its admissible range."""


class InvalidExponents(MildlabError):
    """An exponent triple (q, r, d) violates its admissible ranges."""


class NegativeTime(MildlabError):
    """A semigroup time argument is negative."""


class InvalidTimeGrid(MildlabError):
    """A time horizon / step pair does not form a uniform grid."""


class EmptyInput(MildlabError):
    """A sequence argument that must be nonempty is empty."""


class StudyPrecondition(MildlabError):
    """A study's inputs violate a precondition the study needs to run."""


class ParseError(MildlabError):
    """Config text is not well-formed; carries position and message."""


class ValidationError(MildlabError):
    """Config parsed but violates constraints; carries every violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):
        # rebuilt from the list, so an error re-raised from a pool task keeps it
        return type(self), (self.violations,)
