"""Exception hierarchy for certified-computation failures.

Every exception carries enough context to distinguish "the math says no"
(HypothesisViolation) from "the computation ran out of room"
(ResolutionExceeded, BudgetExceeded, PrecisionExceeded) from "cannot decide
at this precision" (Undecided).
"""


class CantorshiftError(Exception):
    """Base class for all package errors."""


class PrecisionExceeded(CantorshiftError):
    """Root enclosures could not be separated or certified at working precision."""


class Undecided(CantorshiftError):
    """A certified yes/no question could not be resolved at the current resolution."""


class BudgetExceeded(CantorshiftError):
    """A box or enumeration budget was hit before the operation finished."""


class ResolutionExceeded(CantorshiftError):
    """Subdivision hit its resolution or box cap before certification succeeded."""


class HypothesisViolation(CantorshiftError):
    """The map/disk pair is certified not to satisfy the polynomial-like
    restriction hypotheses (N >= 2, compact containment, non-escaping and
    non-periodic critical orbits), with one exception: a level-1 cover that
    refinement leaves outside U is reported as not compactly contained
    without a certificate of contact, and raised here as well."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotInCover(CantorshiftError):
    """A queried point is certified to lie outside the requested cover."""


class InconsistentTree(CantorshiftError):
    """Component-tree bookkeeping violates a structural invariant."""


def check_level(k, depth, lowest=0):
    """Raise ValueError unless lowest <= k <= depth, a tree's depth."""
    if not lowest <= k <= depth:
        raise ValueError(f"level {k} outside {lowest}..{depth}, the tree's depth")
