"""Exception types shared across the package.

Exit-code mapping in the CLI: ValidationError -> 2, BudgetError -> 3.
"""


class ArrgraphError(Exception):
    """Base class for all package errors."""


class ValidationError(ArrgraphError, ValueError):
    """Bad parameters or malformed input data."""


class BudgetError(ArrgraphError, RuntimeError):
    """A configured resource guard (the node budget of the automorphism or
    independent-set search, the vertex-count guard, or the compositions of
    a Cayley graph build that it allows) was exceeded. Never a wrong
    answer."""


class FamilyError(ArrgraphError, ValueError):
    """A group element maps a set family member outside the family,
    i.e. the family is not invariant under the given group."""
