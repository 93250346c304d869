"""Exception types shared across the package, and the one range rule for arguments."""

import functools
import operator
import sys

import numpy as np

# A bound is "<op> <limit>", as in "> 0" or ">= 1": the config's rule tables
# and every library argument check state their ranges this way.  A value meets
# one only if it is also finite as a float, which refuses inf, nan and an
# integer too large for a float.
_COMPARE = {">=": operator.ge, ">": operator.gt}
_MAX = sys.float_info.max


@functools.cache
def _parse(bound: str):
    op, limit = bound.split()
    return _COMPARE[op], float(limit)


def within(value, bound: str) -> bool:
    """Whether value, or each entry of a list or array of them, is finite and meets bound."""
    compare, limit = _parse(bound)
    if isinstance(value, (int, float)):
        return bool(compare(value, limit) and value <= _MAX)
    return all(compare(v, limit) and v <= _MAX
               for v in np.asarray(value, dtype=float).ravel().tolist())


def require(value, bound: str, name: str, error: type[Exception] = ValueError) -> None:
    """Raise error("<name> must be <bound>") unless value is within bound."""
    if not within(value, bound):
        raise error(f"{name} must be {bound}")


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
