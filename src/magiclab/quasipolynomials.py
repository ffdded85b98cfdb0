"""Quasipolynomial algebra: evaluation, differences, fitting, periods.

A quasipolynomial of period s is s polynomial constituents; the value at
t is the constituent for the residue t mod s (nonnegative residue, so
negative arguments evaluate through the same constituents).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from numbers import Rational, Real

from . import geometry, labelings
from .graphs import Graph

Coeffs = tuple[Fraction, ...]


def binomial(j: int, m: int) -> int:
    """Binomial coefficient C(j, m) with C(j, m) = 0 for 0 <= j < m.

    Negative j is rejected: the summations this feeds never reach below
    zero, so no convention for negative upper entries is chosen.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return comb(j, m)


def f_n(n: int, k: int) -> int:
    """Sum of C(j, n) over 0 <= j <= k with j congruent to k mod n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum(binomial(j, n) for j in range(k % n, k + 1, n))


def closed_form_mn(n: int, k: int) -> int:
    """Closed-form count of magic k-labelings of ``make_gn(n)``."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return binomial(k + n, n) + f_n(n - 1, k)


def iterated_difference_of_fn(n: int, i: int, t: int) -> int:
    """Value of the i-th difference of f_n(n, .) by direct summation.

    Equals the sum of C(j, n-i) over 0 <= j <= t with j congruent to
    t mod n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return sum(binomial(j, n - i) for j in range(t % n, t + 1, n))


def _exact(v) -> Fraction:
    # Floating point is Real but not Rational; Fraction(0.1) is not 1/10.
    if isinstance(v, Real) and not isinstance(v, Rational):
        raise ValueError(f"{v!r} is floating point, not an exact value")
    return Fraction(v)


def _trim(coeffs) -> Coeffs:
    cs = list(map(_exact, coeffs))
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


def _eval_poly(coeffs: Coeffs, t: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@dataclass(frozen=True)
class Quasipolynomial:
    """Period plus one coefficient tuple (low degree first) per residue."""

    period: int
    constituents: tuple[Coeffs, ...]

    def __post_init__(self):
        (period,) = labelings._as_ints((self.period,), "period")
        object.__setattr__(self, "period", period)
        if period < 1:
            raise ValueError("period must be positive")
        if len(self.constituents) != self.period:
            raise ValueError("need exactly one constituent per residue")
        object.__setattr__(
            self, "constituents", tuple(_trim(c) for c in self.constituents)
        )

    @property
    def degree(self) -> int:
        """Largest constituent degree; -1 for the zero quasipolynomial."""
        return max(len(c) for c in self.constituents) - 1

    def evaluate(self, t: int) -> Fraction:
        return _eval_poly(self.constituents[t % self.period], t)

    def difference(self) -> Quasipolynomial:
        """The quasipolynomial t -> F(t+1) - F(t), with minimized period."""
        s = self.period
        parts = []
        for r in range(s):
            shifted = _shift_poly(self.constituents[(r + 1) % s])
            cur = self.constituents[r]
            n = max(len(shifted), len(cur))
            parts.append(
                tuple(
                    (shifted[i] if i < len(shifted) else Fraction(0))
                    - (cur[i] if i < len(cur) else Fraction(0))
                    for i in range(n)
                )
            )
        return Quasipolynomial(s, tuple(parts)).normalized()

    def minimum_quasiperiod(self) -> int:
        """Least divisor of the period under which constituents repeat."""
        for cand in range(1, self.period + 1):
            if self.period % cand:
                continue
            if all(
                self.constituents[r] == self.constituents[(r + cand) % self.period]
                for r in range(self.period)
            ):
                return cand
        return self.period

    def normalized(self) -> Quasipolynomial:
        """Equivalent quasipolynomial whose period is the minimum one."""
        mqp = self.minimum_quasiperiod()
        if mqp == self.period:
            return self
        return Quasipolynomial(mqp, self.constituents[:mqp])

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


def fit_quasipolynomial(samples, period: int, degree: int) -> Quasipolynomial:
    """Exact interpolation of consecutive samples starting at 0.

    ``samples[k]`` is the value at k.  Each residue class is fitted from
    its first degree+1 samples by Newton's forward differences; every
    remaining sample then validates the fit, so a wrong period or degree
    guess raises ValueError instead of returning a bad quasipolynomial.
    Needs at least period * (degree + 2) samples.
    """
    if period < 1:
        raise ValueError("period must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    values = list(map(_exact, samples))
    if len(values) < period * (degree + 2):
        raise ValueError(
            f"need at least {period * (degree + 2)} samples, got {len(values)}"
        )
    parts = []
    for r in range(period):
        # Newton's forward differences on r, r + period, ...: the value at
        # r + j * period is the sum of diff_i * C(j, i), and C(j, i) with
        # j = (t - r) / period is the polynomial basis[i] in t.
        diffs = values[r : r + period * (degree + 1) : period]
        coeffs = [Fraction(0)] * (degree + 1)
        basis = [Fraction(1)]
        for i in range(degree + 1):
            for j, b in enumerate(basis):
                coeffs[j] += diffs[0] * b
            diffs = [y - x for x, y in zip(diffs, diffs[1:])]
            c, scale = r + i * period, (i + 1) * period
            basis = [(lo - c * hi) / scale for lo, hi in zip([0, *basis], [*basis, 0])]
        parts.append(tuple(coeffs))
    q = Quasipolynomial(period, tuple(parts))
    for k, v in enumerate(values):
        if q.evaluate(k) != v:
            raise ValueError(
                f"samples do not follow a quasipolynomial of period {period} "
                f"and degree {degree} (first mismatch at {k})"
            )
    return q


def ehrhart_of_polytope(
    g: Graph, kind: str = "P", *, budget: int | None = None
) -> Quasipolynomial:
    """Lattice-point counting quasipolynomial of the magic polytope.

    The vertex denominators fix the fitting period and the vertex set's
    affine rank the degree; counts for k = 0 .. K = period*(degree+2)-1
    come from the counting dynamic program, and the validated fit is
    returned with its period minimized.  For P they come from one
    ``labelings.count_series`` sweep (each pass at an index up to k runs
    once, not once per k).  For Q they come from one DP call at cap K
    over the targets 0..K: a cap of at least t never binds at target t,
    so its pass at t is that of ``count_index_k(g, t)``.  ``budget`` caps
    the vertex-enumeration pair tests and, separately, the state
    transitions of all the counts together, so it bounds the sweep's
    total work; ``None`` means no cap on either.
    """
    den = geometry.polytope_denominator(g, kind, budget=budget)
    dim = geometry.polytope_dimension(g, kind, budget=budget)
    top = den * (dim + 2) - 1
    if kind == "P":
        values = labelings.count_series(g, top, budget=budget)[0]
    else:
        # No target above the least vertex capacity runs; those count 0.
        values = labelings._count(g, [top] * len(g.edges), 0, top, budget)[0]
        values += [0] * (top + 1 - len(values))
    return fit_quasipolynomial(values, den, dim).normalized()
