"""The leaf module every other imports: the package's exception type, the
value base ``Value`` and the gates every integer (``as_ints``, and
``as_int``, which also holds an argument's least value) and exact value
(``as_exact``) passes.  Bad input of every kind, a labeling
``stanley_decompose`` cannot split included, raises ValueError."""

import operator
from fractions import Fraction
from numbers import Rational, Real


def as_ints(values, what: str) -> tuple[int, ...]:
    # operator.index accepts ints (and int-like types, True as 1) only,
    # so a float is an error instead of being truncated by int().
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def as_int(value, what: str, least: int = 0) -> int:
    # The one place an integer argument's least value is checked.
    (value,) = as_ints((value,), what)
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}")
    return value


def as_exact(v) -> Fraction:
    # Floating point is Real but not Rational; Fraction(0.1) is not 1/10.
    if isinstance(v, Real) and not isinstance(v, Rational):
        raise ValueError(f"{v!r} is floating point, not an exact value")
    return Fraction(v)


class Value:
    """An immutable value over the attributes its class names in ``_fields``:
    equal, and hashed alike, to a value of the same class with equal fields
    only; repr ``Name(field=value, ...)``.  Setting or deleting an attribute
    raises AttributeError, so ``__init__`` uses ``object.__setattr__``."""

    def __init_subclass__(cls):
        # One C-level key per class, read from a closure rather than looked
        # up on the instance, keeps == and hash cheap on the hot paths.
        key = operator.attrgetter(*cls._fields)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} cannot be set or deleted")

    __delattr__ = __setattr__


class BudgetExceededError(RuntimeError):
    """A budgeted phase did more work than its budget allows.

    Each phase counts its own unit of work as the work is done and raises
    at the first unit over the budget:

    - ``"search"``: nodes, the label values the labeling search offers;
    - ``"counting"``: state transitions of the counting DP;
    - ``"vertex enumeration"``: pair tests of the double description;
    - ``"face enumeration"``: closures computed for the Ehrhart fit's
      per-coefficient periods;
    - ``"Stanley extraction"``: counts tried by the combination search.

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
