"""Quasipolynomial algebra: evaluation, differences, fitting, periods.

A quasipolynomial of period s is s polynomial constituents; the value at
t is the constituent for the residue t mod s (nonnegative residue, so
negative arguments evaluate through the same constituents).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import zip_longest
from math import comb, lcm

from . import geometry, labelings
from .errors import Value, as_exact, as_int, as_ints
from .graphs import Graph

Coeffs = tuple[Fraction, ...]


def binomial(j: int, m: int) -> int:
    """Binomial coefficient C(j, m) with C(j, m) = 0 for 0 <= j < m.

    Negative j is rejected (``comb`` raises ValueError): the summations
    this feeds never reach below zero, so no convention for negative
    upper entries is chosen.
    """
    return comb(*as_ints((j, m), "j and m"))


def f_n(n: int, k: int) -> int:
    """Sum of C(j, n) over 0 <= j <= k with j congruent to k mod n."""
    n, k = as_int(n, "n", 1), as_int(k, "k")
    return sum(binomial(j, n) for j in range(k % n, k + 1, n))


def closed_form_mn(n: int, k: int) -> int:
    """Closed-form count of magic k-labelings of ``make_gn(n)``."""
    n, k = as_int(n, "n", 2), as_int(k, "k")
    return binomial(k + n, n) + f_n(n - 1, k)


def iterated_difference_of_fn(n: int, i: int, t: int) -> int:
    """Value of the i-th difference of f_n(n, .) by direct summation.

    Equals the sum of C(j, n-i) over 0 <= j <= t with j congruent to
    t mod n.
    """
    n, i, t = as_int(n, "n", 1), as_int(i, "i"), as_int(t, "t")
    if i > n:
        raise ValueError("need 0 <= i <= n")
    return sum(binomial(j, n - i) for j in range(t % n, t + 1, n))


def _trim(coeffs) -> Coeffs:
    cs = list(map(as_exact, coeffs))
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _shift_poly(coeffs: Coeffs) -> Coeffs:
    # Coefficients of p(t + 1) given those of p(t).
    n = len(coeffs)
    out = [Fraction(0)] * n
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += c * comb(j, i)
    return _trim(out)


class Quasipolynomial(Value):
    """Period plus one coefficient tuple (low degree first) per residue.

    Construction keeps only the minimum period: the least divisor of the
    given period under which the trimmed constituents repeat.  So
    ``period`` is always the minimum quasiperiod, and ``==`` means the
    same function.
    """

    _fields = ("period", "constituents")

    def __init__(self, period: int, constituents: tuple[Coeffs, ...]):
        period = as_int(period, "period", 1)
        if len(constituents) != period:
            raise ValueError("need exactly one constituent per residue")
        parts = tuple(_trim(c) for c in constituents)
        # The least d such that parts is parts[:d] repeated; the repeats of
        # a d that does not divide the period fall short.
        d = next(d for d in range(1, period + 1) if parts[:d] * (period // d) == parts)
        object.__setattr__(self, "period", d)
        object.__setattr__(self, "constituents", parts[:d])

    @property
    def degree(self) -> int:
        """Largest constituent degree; -1 for the zero quasipolynomial."""
        return max(len(c) for c in self.constituents) - 1

    def evaluate(self, t: int) -> Fraction:
        (t,) = as_ints((t,), "t")
        acc = Fraction(0)
        for c in reversed(self.constituents[t % self.period]):
            acc = acc * t + c
        return acc

    def difference(self) -> Quasipolynomial:
        """The quasipolynomial t -> F(t+1) - F(t)."""
        s = self.period
        parts = []
        for r in range(s):
            shifted = _shift_poly(self.constituents[(r + 1) % s])
            pairs = zip_longest(shifted, self.constituents[r], fillvalue=0)
            parts.append(tuple(a - b for a, b in pairs))
        return Quasipolynomial(s, tuple(parts))

    def minimum_quasiperiod(self) -> int:
        """``period``, the least period; an alias kept for the bench jobs."""
        return self.period

    def to_json(self) -> str:
        return json.dumps(
            {
                "period": self.period,
                "constituents": [[str(c) for c in cs] for cs in self.constituents],
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text: str) -> Quasipolynomial:
        """Parse what ``to_json`` writes, ignoring other keys (as in the
        CLI's ``ehrhart`` JSON); anything else raises ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("quasipolynomial JSON is nested too deeply") from None
        if not isinstance(data, dict) or type(data.get("period")) is not int:
            raise ValueError("quasipolynomial JSON needs an integer period")
        parts = data.get("constituents")
        if not isinstance(parts, list) or not all(
            isinstance(cs, list) and all(isinstance(c, str) for c in cs) for cs in parts
        ):
            raise ValueError("quasipolynomial JSON constituents must be string lists")
        try:
            parts = tuple(tuple(map(Fraction, cs)) for cs in parts)
        except ZeroDivisionError:
            raise ValueError("quasipolynomial JSON has a zero denominator") from None
        return Quasipolynomial(data["period"], parts)


def _periods(period, degree) -> tuple[tuple[int, ...], int]:
    # One period per coefficient of t^0 .. t^degree; an int is all alike.
    many = isinstance(period, tuple)
    ints = [*(period if many else [period]), degree]
    *periods, degree = as_ints(ints, "period and degree")
    if min(periods, default=0) < 1:
        raise ValueError("period must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    periods = tuple(periods) * (1 if many else degree + 1)
    if len(periods) != degree + 1:
        raise ValueError(f"need degree + 1 = {degree + 1} periods, got {len(periods)}")
    return periods, degree


def samples_needed(period, degree: int) -> int:
    """Samples ``fit_quasipolynomial`` needs: sum(p) + max(p).

    ``period`` is one period p_i per coefficient of t^i, or one int for
    all of them, which gives period * (degree + 2).  The first sum(p)
    samples determine the coefficients and the other max(p) validate
    them.
    """
    periods, _ = _periods(period, degree)
    return sum(periods) + max(periods)


def fit_quasipolynomial(samples, period, degree: int) -> Quasipolynomial:
    """Exact interpolation of consecutive samples starting at 0.

    ``samples[k]`` is the value at k.  ``period`` is one period p_i per
    coefficient of t^i, or one int for all of them; the result has
    period lcm(p).  The sum(p) unknowns are one linear system, solved
    from the first sum(p) samples by one ``geometry._reduce``; every
    later sample then validates the fit, so a wrong period or degree
    guess that one refutes raises ValueError instead of returning a bad
    quasipolynomial.  Needs ``samples_needed`` samples.  When each p_i
    divides p_(i-1), as in every Ehrhart bound, the fitted functions
    solve a linear recurrence of order sum(p), so the first sum(p)
    samples determine them; for other periods, a system they leave
    short of full rank raises ValueError.
    """
    periods, degree = _periods(period, degree)
    values = list(map(as_exact, samples))
    need = samples_needed(periods, degree)
    if len(values) < need:
        raise ValueError(f"need at least {need} samples, got {len(values)}")
    # The unknown a[i][r], the coefficient of t^i at t = r mod p_i, sits
    # in column start[i] + r; there is one row per sample below sum(p).
    size = sum(periods)
    start = [sum(periods[:i]) for i in range(degree + 1)]
    rows = []
    for t in range(size):
        n, d = values[t].as_integer_ratio()
        row = [0] * size + [n]
        for i, p in enumerate(periods):
            row[start[i] + t % p] = d * t**i
        rows.append(row)
    # Full rank leaves one pivot row per unknown, diagonal in them.
    reduced = geometry._reduce(rows)
    if len(reduced) < size or not reduced[-1][size - 1]:
        raise ValueError(
            f"the first {size} samples do not determine coefficients "
            f"of periods {periods}"
        )
    a = [
        [Fraction(reduced[k][-1], reduced[k][k]) for k in range(j, j + p)]
        for j, p in zip(start, periods)
    ]
    s = lcm(*periods)
    parts = (tuple(a[i][r % p] for i, p in enumerate(periods)) for r in range(s))
    q = Quasipolynomial(s, tuple(parts))
    # The first sum(p) samples hold exactly, as the system's solution.
    for k in range(size, len(values)):
        if q.evaluate(k) != values[k]:
            raise ValueError(
                f"samples do not follow a quasipolynomial of period {period} "
                f"and degree {degree} (first mismatch at {k})"
            )
    return q


def ehrhart_of_polytope(
    g: Graph, kind: str = "P", *, budget: int | None = None
) -> Quasipolynomial:
    """Lattice-point counting quasipolynomial of the magic polytope.

    ``geometry.coefficient_periods`` gives the degree and McMullen's
    period p_i of each coefficient (n - 1 for the constant term of
    gn(n)/P, 1 for the rest); counts for k = 0 .. K, the fit's
    ``samples_needed`` window sum(p) + max(p) (3n - 2 for gn(n)/P, not the
    den * (dim + 2) of one period den for all), come from the counting
    dynamic program, and the validated fit is returned, keeping only its
    minimum period.  For P they come from one sweep of the loop behind
    ``labelings.count_series`` (each pass at an index up to k runs once,
    not once per k), all on the DP: no count is read from a fit.  For Q
    they come from one DP call at cap K over the targets 0..K: a cap of
    at least t never binds at target t, so its pass at t is that of
    ``count_index_k(g, t)``.  Each pass runs on the label bounds its
    target allows.  ``budget`` caps the vertex-enumeration pair tests,
    the closures of the face enumeration and, separately, the state
    transitions of all the counts together, so it bounds the sweep's
    total work; ``None`` means no cap on any.  An empty polytope raises
    ValueError.
    """
    periods = geometry.coefficient_periods(g, kind, budget=budget)
    dim = len(periods) - 1
    top = samples_needed(periods, dim) - 1
    if kind == "P":
        values = labelings._sweep(g, top, budget)[0]
    else:
        # No target above the least vertex capacity runs; those count 0.
        values = labelings._count(g, [top] * len(g.edges), 0, top, budget)[0]
        values += [0] * (top + 1 - len(values))
    return fit_quasipolynomial(values, periods, dim)
