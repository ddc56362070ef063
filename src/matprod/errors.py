"""Exception types shared across the package."""


class MatprodError(Exception):
    """Base class for all errors raised by this package."""


class NormalizationError(MatprodError):
    """Entry law violates the mean-0 / variance-1 normalization."""


class AsymmetryError(MatprodError):
    """Discrete entry law support is not symmetric about zero."""


class AtomicLawError(MatprodError):
    """An atomless entry law is required but an atom-bearing one was given."""


class DimensionMismatch(MatprodError):
    """Vector dimension does not match the architecture."""


class BudgetExceeded(MatprodError):
    """Estimated cost of an exact computation exceeds the configured budget.

    The ``estimate`` attribute carries the computed cost estimate and
    ``budget`` the limit it was checked against.
    """

    def __init__(
        self, estimate: int, budget: int, what: str = "computation", message: str | None = None
    ):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            message or f"{what} needs ~{estimate} elementary evaluations, budget is {budget}"
        )


class FloatRangeError(MatprodError):
    """A float result is not finite: it left the range of double precision."""


class InsufficientSamples(MatprodError):
    """Too few trials or samples for the requested estimator or statistic."""


class UsageError(MatprodError):
    """Bad command-line, config-file or environment input."""
