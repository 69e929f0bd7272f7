"""Exception types shared across the package.

Exit-code mapping in the CLI: ValidationError -> 2, BudgetError -> 3.
"""


class ArrgraphError(Exception):
    """Base class for all package errors."""


class ValidationError(ArrgraphError, ValueError):
    """Bad parameters or malformed input data."""


class BudgetError(ArrgraphError, RuntimeError):
    """A configured budget was exceeded: the node budget of the automorphism
    or independent-set search. The vertex-count guard raises
    ValidationError (perms.check_tuple_count, graphio's loaders). Never a
    wrong answer."""


class FamilyError(ArrgraphError, ValueError):
    """A group element maps a set family member outside the family,
    i.e. the family is not invariant under the given group."""
