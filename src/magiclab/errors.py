"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """A search exceeded its configured budget.

    The labeling searches count search nodes and the vertex enumeration
    counts pair tests, each as the work is done, and raise at the first
    unit over the budget.  ``required`` carries the budget that would
    have sufficed when the raising phase knows it; neither of these
    phases does, so for them it is None.
    """

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ConsistencyError(RuntimeError):
    """An operation failed in a way the library's invariants rule out."""
