"""Exact rational linear algebra and polytope vertex enumeration.

Everything here is exact: rows are reduced over ``fractions.Fraction``
and the vertex enumeration runs on Python ints; no floating point is
used anywhere.  Points are plain tuples of fractions in the graph's
edge coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

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
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("system must be square with a matching right-hand side")
    aug, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(row[n] for row in aug)


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


def _primitive(v) -> tuple[int, ...]:
    # An integer vector divided by the gcd of its entries.
    g = gcd(*v)
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def _canonical_halfspace(row) -> tuple[int, ...]:
    # Scale a row by a positive rational so its entries become a primitive
    # integer vector; rows of the same halfspace then compare equal.
    scale = lcm(*(c.denominator for c in row))
    return _primitive([int(c * scale) for c in row])


def _combine(a: int, x, b: int, y) -> tuple[int, ...]:
    return _primitive([a * p + b * q for p, q in zip(x, y)])


def _extreme_rays(rows, n: int, budget: int) -> list[tuple[int, ...]]:
    # Double description of the cone {x in Z^n : row . x >= 0 for every
    # row}, adding one row at a time.  The cone so far is span(lin) +
    # cone(rays), the rays being its extreme rays modulo span(lin); each
    # ray carries the bitmask of the rows added so far that vanish on it.
    lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[tuple[tuple[int, ...], int]] = []
    used = 0
    for i, a in enumerate(rows):
        bit = 1 << i
        k = next((k for k, l in enumerate(lin) if sum(map(mul, a, l))), None)
        if k is not None:
            # The row cuts the lineality space: one direction in it,
            # oriented to the row's positive side, becomes a ray, and the
            # rest of the space and the old rays are projected along it
            # into the row's hyperplane.
            cut = lin.pop(k)
            s = sum(map(mul, a, cut))
            if s < 0:
                cut, s = tuple(-c for c in cut), -s
            lin = [_combine(s, l, -sum(map(mul, a, l)), cut) for l in lin]
            rays = [
                (_combine(s, r, -sum(map(mul, a, r)), cut), z | bit) for r, z in rays
            ]
            rays.append((cut, bit - 1))
            continue
        pos, neg, kept = [], [], []
        for r, z in rays:
            v = sum(map(mul, a, r))
            if v > 0:
                pos.append((r, z, v))
                kept.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | bit))
        used += len(pos) * len(neg)
        if used > budget:
            raise BudgetExceededError.over(
                "vertex enumeration", "pair tests", budget, used
            )
        # A positive and a negative ray are adjacent when no third ray
        # vanishes on every row that both vanish on; adjacent rays share at
        # least n - len(lin) - 2 zeros, which rules most pairs out first.
        need = n - len(lin) - 2
        zeros = [z for _, z in rays]
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                if common.bit_count() < need:
                    continue
                if sum(1 for z in zeros if common & z == common) > 2:
                    continue
                kept.append((_combine(vp, q, -vq, p), common | bit))
        rays = kept
    return [r for r, _ in rays]


def _enumerate_vertices(g: Graph, kind: str, budget: int) -> list[Point]:
    # The vertex enumeration behind polytope_vertices; see its docstring.
    desc = magic_constraints(g, kind)
    m = desc.num_coords
    par = _affine_solution_space(desc)
    if par is None:
        return []
    x0, basis = par
    d = len(basis)
    # In homogeneous coordinates (t, u) the bound x_e >= 0 reads
    # x0_e t + basis_e . u >= 0 and the bound x_e <= 1 reads
    # (1 - x0_e) t - basis_e . u >= 0; the polytope is the slice t = 1.
    rows = {(1,) + (0,) * d: None}
    for e in range(m):
        row = (x0[e],) + tuple(basis[j][e] for j in range(d))
        rows[_canonical_halfspace(row)] = None
        if desc.box:
            rows[_canonical_halfspace([1 - row[0]] + [-c for c in row[1:]])] = None
    found = []
    for t, *u in _extreme_rays(list(rows), d + 1, budget):
        if t > 0:
            found.append(
                tuple(
                    x0[e] + sum(basis[j][e] * Fraction(u[j], t) for j in range(d))
                    for e in range(m)
                )
            )
    return sorted(found)


@lru_cache(maxsize=64)
def _polytope_facts(g: Graph, kind: str, budget: int):
    """``(vertices, denominator, dimension)`` of one polytope, memoised.

    Always called positionally, so one (graph, kind, budget) is one cache
    entry.  A budget error propagates and is not cached.
    """
    verts = tuple(_enumerate_vertices(g, _check_kind(kind), budget))
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

    The equality system is eliminated first, leaving d residual
    coordinates u.  Every bound becomes a halfspace in u, homogenised to
    a primitive integer row of a cone in the d + 1 coordinates (t, u);
    duplicates are merged and the row t >= 0 is added.  A double
    description (Motzkin et al. 1953; Fukuda and Prodon 1996) then finds
    the cone's extreme rays on Python ints: rows are added one at a time,
    each ray on the row's positive side is paired with each ray on its
    negative side, and an adjacent pair (judged on the rays' zero sets)
    gives a new ray, combined fraction-free and divided by its gcd.  Each
    extreme ray with t > 0 is the vertex u / t.

    ``budget`` caps the pair tests, the positive-by-negative ray pairs
    considered, summed over the rows; BudgetExceededError is raised once
    they exceed it.  Returns [] for an empty polytope.  The result is a
    fresh list on every call.
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
