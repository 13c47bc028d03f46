"""Exception hierarchy shared by all analysis modules."""


class SubstitutionError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SubstitutionError):
    """Malformed substitution source text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class InvariantError(SubstitutionError):
    """A constructed value violates one of its structural invariants."""


class StreamChainError(InvariantError):
    """Desubstitution entries fail the level-consistency equation."""

    def __init__(self, message, level):
        self.level = level
        super().__init__(f"level {level}: {message}")


class PreconditionError(SubstitutionError):
    """An operation was called outside its stated domain."""


class BudgetExceededError(SubstitutionError):
    """A configured word/search/iteration budget was exhausted."""


class SearchBudgetError(BudgetExceededError):
    """Simplifiability search ran out of candidate budget (distinct from
    a definite 'elementary' answer)."""


def charge(amount, limit, message, error=BudgetExceededError):
    """The one budget gate of the package: refuse ``amount`` past
    ``limit`` (an amount equal to the limit is allowed) with
    ``error(message.format(amount, limit))``.  Every size check calls it
    with its own limit and message, so no other code raises a budget
    error."""
    if amount > limit:
        raise error(message.format(amount, limit))


class SeparationBoundError(BudgetExceededError):
    """Points could not be separated at a window radius; carries the number
    found as a lower bound.  Kept for callers that catch it: fiber
    enumeration separates points by their streams and never raises it."""

    def __init__(self, message, lower_bound):
        self.lower_bound = lower_bound
        super().__init__(message)
