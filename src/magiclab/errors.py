"""The package's own exception type.  Bad input of every kind, a labeling
``stanley_decompose`` cannot split included, raises ValueError instead;
every integer argument passes ``as_ints``, the one integer gate."""

import operator


def as_ints(values, what: str) -> tuple[int, ...]:
    # operator.index accepts ints (and int-like types, True as 1) only,
    # so a float is an error instead of being truncated by int().
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


class BudgetExceededError(RuntimeError):
    """A budgeted phase did more work than its budget allows.

    Each phase counts its own unit of work as the work is done and raises
    at the first unit over the budget:

    - ``"search"``: nodes, the label values the labeling search offers;
    - ``"counting"``: state transitions of the counting DP;
    - ``"vertex enumeration"``: pair tests of the double description;
    - ``"Stanley extraction"``: pieces tried by the decomposition.

    ``phase`` names the phase, ``consumed`` is the work it had counted
    when it stopped (more than ``budget``) and ``budget`` is the cap.
    """

    def __init__(
        self,
        message: str,
        *,
        phase: str | None = None,
        consumed: int | None = None,
        budget: int | None = None,
    ):
        super().__init__(message)
        self.phase = phase
        self.consumed = consumed
        self.budget = budget

    @classmethod
    def over(cls, phase: str, unit: str, budget: int, consumed: int):
        """The error a phase raises, with its one message format."""
        return cls(
            f"{phase} exceeded the budget of {budget} {unit} (reached {consumed})",
            phase=phase,
            consumed=consumed,
            budget=budget,
        )
