"""Exact rational linear algebra and polytope vertex enumeration.

Everything here is over ``fractions.Fraction``; no floating point is
used anywhere.  Points are plain tuples of fractions in the graph's
edge coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm

from .errors import BudgetExceededError
from .graphs import Graph

DEFAULT_VERTEX_BUDGET = 10**7

Point = tuple[Fraction, ...]

_KINDS = ("P", "Q")


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class PolytopeDescription:
    """Equality rows over edge coordinates plus the standard bounds.

    Each row satisfies ``rows[i] . x == rhs[i]``.  All coordinates obey
    ``x >= 0``; when ``box`` is set they also obey ``x <= 1``.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    num_coords: int
    box: bool


def _vertex_row(g: Graph, v: str) -> list[Fraction]:
    row = [Fraction(0)] * len(g.edges)
    for ei in g.incidence[v]:
        row[ei] += 1
    return row


def magic_constraints(g: Graph, kind: str) -> PolytopeDescription:
    """Linear description of the magic polytope of g.

    Kind "P": the vertex sums of the first vertex and each later vertex
    agree (|V| - 1 rows, right-hand side 0), with the box [0, 1] on every
    coordinate.  Kind "Q": every vertex sum equals 1 (|V| rows), with
    nonnegativity only.
    """
    _check_kind(kind)
    m = len(g.edges)
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    if kind == "P":
        if g.vertices:
            base = _vertex_row(g, g.vertices[0])
            for v in g.vertices[1:]:
                row = _vertex_row(g, v)
                rows.append(tuple(a - b for a, b in zip(row, base)))
                rhs.append(Fraction(0))
    else:
        for v in g.vertices:
            rows.append(tuple(_vertex_row(g, v)))
            rhs.append(Fraction(1))
    return PolytopeDescription(tuple(rows), tuple(rhs), m, box=(kind == "P"))


def solve_rational(matrix, rhs) -> Point | None:
    """Unique solution of a square exact linear system, or None if singular."""
    # Not built on _rref: stopping at the first column without a pivot is
    # what keeps the many singular subsets of the vertex scan cheap.
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")
    aug = [
        [Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[-1] for row in aug)


def _rref(rows, ncols: int):
    """Reduced row echelon form of ``rows`` over their first ``ncols`` columns.

    Returns ``(rows, pivots)``: the reduced rows as lists of fractions and
    the pivot column of each of the first ``len(pivots)`` rows.  The later
    rows are zero in the first ``ncols`` columns.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(work):
            break
        piv = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        inv = work[row][col]
        work[row] = [x / inv for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
    return work, pivots


def matrix_rank(rows) -> int:
    """Rank of a rational matrix given as an iterable of rows."""
    rows = list(rows)
    if not rows:
        return 0
    return len(_rref(rows, len(rows[0]))[1])


def _affine_solution_space(desc: PolytopeDescription):
    """Particular solution and null basis of the equality system.

    Returns ``(x0, basis)`` with the solution set {x0 + basis . u}, or
    None when the system is inconsistent.
    """
    m = desc.num_coords
    aug, pivots = _rref(
        [list(row) + [b] for row, b in zip(desc.rows, desc.rhs)], m
    )
    if any(aug[r][m] != 0 for r in range(len(pivots), len(aug))):
        return None
    free = [c for c in range(m) if c not in pivots]
    x0 = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        x0[col] = aug[r][m]
    basis: list[Point] = []
    for f_col in free:
        vec = [Fraction(0)] * m
        vec[f_col] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][f_col]
        basis.append(tuple(vec))
    return tuple(x0), basis


def _canonical_halfspace(coeffs: tuple[Fraction, ...], bound: Fraction):
    # Scale (coeffs | bound) by a positive rational so the entries become a
    # primitive integer vector; identical halfspaces then compare equal.
    denoms = [c.denominator for c in coeffs] + [bound.denominator]
    scale = Fraction(lcm(*denoms))
    ints = [int(c * scale) for c in coeffs] + [int(bound * scale)]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1]


def _scan_vertices(g: Graph, kind: str, budget: int) -> list[Point]:
    # The subset scan behind polytope_vertices; see its docstring.
    desc = magic_constraints(g, kind)
    m = desc.num_coords
    par = _affine_solution_space(desc)
    if par is None:
        return []
    x0, basis = par
    d = len(basis)

    def to_point(u: Point) -> Point:
        return tuple(
            x0[e] + sum(basis[j][e] * u[j] for j in range(d)) for e in range(m)
        )

    def feasible(pt: Point) -> bool:
        return all(c >= 0 and (not desc.box or c <= 1) for c in pt)

    if d == 0:
        pt = tuple(x0)
        return [pt] if feasible(pt) else []

    halfspaces: dict[tuple, tuple[Point, Fraction]] = {}
    for e in range(m):
        row = tuple(basis[j][e] for j in range(d))
        for coeffs, bound in ((tuple(-c for c in row), x0[e]),) + (
            ((row, 1 - x0[e]),) if desc.box else ()
        ):
            if all(c == 0 for c in coeffs):
                continue
            halfspaces[_canonical_halfspace(coeffs, bound)] = (coeffs, bound)
    rows = list(halfspaces.values())

    required = comb(len(rows), d)
    if required > budget:
        raise BudgetExceededError(
            f"vertex enumeration needs {required} subsets, budget is {budget}",
            required=required,
        )

    found: set[Point] = set()
    for subset in combinations(rows, d):
        u = solve_rational([list(cs) for cs, _ in subset], [b for _, b in subset])
        if u is None:
            continue
        if all(sum(c * x for c, x in zip(cs, u)) <= b for cs, b in rows):
            found.add(to_point(u))
    return sorted(found)


@lru_cache(maxsize=64)
def _polytope_facts(g: Graph, kind: str, budget: int):
    """``(vertices, denominator, dimension)`` of one polytope, memoised.

    Always called positionally, so one (graph, kind, budget) is one cache
    entry.  A budget error raises before the scan and is not cached.
    """
    verts = tuple(_scan_vertices(g, _check_kind(kind), budget))
    den = lcm(*(point_denominator(v) for v in verts))
    if not verts:
        return verts, den, -1
    first = verts[0]
    dim = matrix_rank([[a - b for a, b in zip(v, first)] for v in verts[1:]])
    return verts, den, dim


def polytope_vertices(
    g: Graph, kind: str, *, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[Point]:
    """All vertices of the magic polytope, exactly, in sorted order.

    The equality system is eliminated first; every bound becomes a
    halfspace in the residual coordinates and duplicates are merged.
    Each subset of dimension-many halfspaces is then set active and
    solved exactly, keeping solutions that satisfy every constraint.
    Raises BudgetExceededError (reporting the required budget) when the
    number of subsets exceeds ``budget``; returns [] for an empty
    polytope.  The result is a fresh list on every call.
    """
    return list(_polytope_facts(g, kind, budget)[0])


def point_denominator(pt) -> int:
    """Least positive d with d * pt integral (1 for the empty point)."""
    return lcm(*(Fraction(c).denominator for c in pt)) if pt else 1


def polytope_denominator(
    g: Graph, kind: str, *, budget: int = DEFAULT_VERTEX_BUDGET
) -> int:
    """Least dilation factor whose polytope has all-integral vertices."""
    verts, den, _ = _polytope_facts(g, kind, budget)
    if not verts:
        raise ValueError("polytope is empty")
    return den


def polytope_dimension(
    g: Graph, kind: str, *, budget: int = DEFAULT_VERTEX_BUDGET
) -> int:
    """Dimension of the affine hull of the vertex set; -1 when empty."""
    return _polytope_facts(g, kind, budget)[2]


def format_point(pt) -> list[str]:
    """Coordinates rendered as exact fraction strings ("2", "1/3", ...)."""
    return [str(Fraction(c)) for c in pt]
