"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, budget and
exactness failures exit 3, negative mathematical verdicts exit 1.
"""


class AifsError(Exception):
    """Base class for all package-specific errors."""


class NotExpansive(AifsError):
    """A matrix required to be expansive has an eigenvalue of modulus <= 1."""


class ExactnessUnavailable(AifsError):
    """An exact root-of-unity computation exceeded the denominator cap."""


class BudgetExceeded(AifsError):
    """An enumeration or truncation budget was exhausted before convergence."""


class RankDeficient(AifsError):
    """A lattice construction produced fewer than d independent vectors."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank
