"""Exception types shared across the package."""


class MajorantError(Exception):
    """Base class for numeric and structural failures raised by this package."""


class FrequencyOverflowError(MajorantError):
    """A frequency would leave the signed 64-bit range; exact arithmetic refuses
    to wrap."""


class QuadratureConvergenceError(MajorantError):
    """Grid doubling did not stabilise within the configured budget.

    Carries the last two estimates and the final grid so the caller can
    inspect how far apart they were.
    """

    def __init__(self, message, last, previous, grid_size):
        super().__init__(message)
        self.last = last
        self.previous = previous
        self.grid_size = grid_size


class EnvelopeResolutionError(MajorantError):
    """The requested envelope accuracy needs more samples than the budget
    allows at this cell count.  ``min_cells`` is the cell count at which the
    Lipschitz bound certifies the requested accuracy with few samples."""

    def __init__(self, message, min_cells, required_samples):
        super().__init__(message)
        self.min_cells = min_cells
        self.required_samples = required_samples


class SearchBudgetError(MajorantError):
    """Exhaustive enumeration would exceed the evaluation budget."""

    def __init__(self, message, required, budget):
        super().__init__(message)
        self.required = required
        self.budget = budget


class ConstructionError(MajorantError):
    """A measured quantity contradicts a bound the construction guarantees
    (for instance the peak of the all-ones sum near theta = 0)."""
