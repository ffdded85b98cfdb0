"""Exact polytope vertex enumeration, denominators and dimensions.

The magic polytope of a graph is described in homogeneous coordinates
(t, x), one x per edge in the graph's edge order: the vertex-sum
equations cut out a linear space, and the bounds t >= 0, x_e >= 0 (and
x_e <= t for P) cut out a cone in it whose slice t = 1 is the
polytope.  The cone's extreme rays come from an integer double
description on Python ints, started from the equations' null space; no
row is ever eliminated over fractions and no floating point is used
anywhere.  Points are plain tuples of fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import BudgetExceededError, as_exact, as_int
from .graphs import Graph

Point = tuple[Fraction, ...]

_KINDS = ("P", "Q")


def _check_kind(kind: str) -> str:
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    return kind


def _primitive(v) -> tuple[int, ...]:
    # An integer vector divided by the gcd of its entries.
    g = gcd(*v)
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def _combine(a: int, x, b: int, y) -> tuple[int, ...]:
    return _primitive([a * p + b * q for p, q in zip(x, y)])


def _reduce(rows) -> list[tuple[int, ...]]:
    # Fraction-free Gauss-Jordan: each row, cleared by the pivot rows so
    # far, becomes one unless zero and clears its leading column from them.
    # The pivot rows, in pivot order and each zero in the others' pivot
    # columns, are returned; their count is the rank.
    pivots: dict[int, tuple[int, ...]] = {}
    for r in rows:
        for j, p in pivots.items():
            r = _combine(p[j], r, -r[j], p) if r[j] else r
        if any(r):
            j = next(j for j, c in enumerate(r) if c)
            for i, p in pivots.items():
                pivots[i] = _combine(r[j], p, -p[j], r) if p[j] else p
            pivots[j] = _primitive(r)
    return [pivots[j] for j in sorted(pivots)]


def _null_space(eqs, n: int) -> dict[int, tuple[int, ...]]:
    # The integer null space of the equations, one primitive vector per
    # free column f: zero left of f, positive at f and zero at every other
    # free column.  Eliminating from the last column makes each pivot
    # column the last nonzero of its row, which gives the zeros left of f.
    pivots = {}
    for p in _reduce([e[::-1] for e in eqs]):
        pivots[n - 1 - next(j for j, c in enumerate(p) if c)] = p[::-1]
    lin = {}
    for f in (f for f in range(n) if f not in pivots):
        d = lcm(*(p[j] for j, p in pivots.items() if p[f]))
        v = [0] * n
        v[f] = d
        for j, p in pivots.items():
            v[j] = -p[f] * d // p[j]
        lin[f] = _primitive(v)
    return lin


def _extreme_rays(eqs, m: int, kind: str, budget: int | None):
    # Double description of the cone {(t, x) in Z^(m+1) : eq . (t, x) == 0
    # for every eq, every bound >= 0}, adding one bound at a time to the
    # equations' null space.  Bound i <= m is x_i >= 0, x_0 being t; for P,
    # bound m + e is x_e <= t.  The cone so far is span(lin) + cone(rays),
    # the rays being its extreme rays modulo span(lin); each ray carries
    # the bitmask of the bounds added so far that vanish on it, bit i for
    # bound i.  With lin from _null_space, bound i cuts the lineality space
    # exactly when column i is free, and every earlier ray and every later
    # lin vector already vanishes on it: the cut turns lin[i] into a ray.
    budget = None if budget is None else as_int(budget, "budget")
    lin = _null_space(eqs, m + 1)
    rays: list[tuple[tuple[int, ...], int]] = []
    used = cuts = 0  # cuts: the bounds that cut the lineality space
    for i in range(2 * m + 1 if kind == "P" else m + 1):
        bit = 1 << i
        if i in lin:
            rays = [(r, z | bit) for r, z in rays]
            rays.append((lin[i], bit - 1))
            cuts += 1
            continue
        pos, neg, kept = [], [], []
        for r, z in rays:
            v = r[i] if i <= m else r[0] - r[i - m]
            if v > 0:
                pos.append((r, z, v))
                kept.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | bit))
        used += len(pos) * len(neg)
        if budget is not None and used > budget:
            raise BudgetExceededError.over(
                "vertex enumeration", "pair tests", budget, used
            )
        # A positive and a negative ray are adjacent when no third ray
        # vanishes on every bound that both vanish on; adjacent rays share
        # at least cuts - 2 zeros, which rules most pairs out first.
        need = cuts - 2
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
    return rays


def _enumerate_vertices(g: Graph, kind: str, budget: int | None):
    # The extreme rays (t, x) behind polytope_vertices, each with its
    # zero-set mask over the bounds; see _extreme_rays.
    n = len(g.edges) + 1
    sums = []
    for v in g.vertices:
        row = [0] * n
        for ei in g.incidence[v]:
            row[ei + 1] = 1
        sums.append(row)
    if kind == "P":
        eqs = [[a - b for a, b in zip(row, sums[0])] for row in sums[1:]]
    else:
        # A graph with no vertex has no edge either, and its index is 0
        # (the convention of labelings.is_magic): Q is empty, as t = 0.
        eqs = [[-1] + row[1:] for row in sums] or [[1]]
    # No extreme ray has t = 0: P has 0 <= x_e <= t, and in Q every edge
    # lies in a vertex sum equal to t, so t = 0 forces x = 0 in both.
    return _extreme_rays(eqs, n - 1, kind, budget)


@lru_cache(maxsize=64, typed=True)
def _polytope_facts(g: Graph, kind: str, budget: int | None):
    """``(rays, denominator, dimension, masks)`` of one polytope, memoised.

    ``rays`` are the sorted primitive extreme rays (t, x), t > 0: each is
    a vertex x / t times its denominator t.  ``masks[i]`` holds the bounds
    tight at ``rays[i]``, bit b for bound b: bound 0, t >= 0, is never
    tight; bound e + 1 is x_e >= 0 and, for P, bound m + 1 + e is x_e <= t
    (m edges).  Called positionally, so one (graph, kind, budget) is one
    cache entry; a budget error is not cached.  Typed, so a float budget
    equal to a cached int one misses and meets the budget's gate.
    """
    pairs = sorted(_enumerate_vertices(g, _check_kind(kind), budget))
    rays, masks = tuple(zip(*pairs)) or ((), ())
    # The rays span the cone over the vertices, one more than their hull.
    return rays, lcm(*(r[0] for r in rays)), len(_reduce(rays)) - 1, masks


def polytope_vertices(g: Graph, kind: str, *, budget: int | None = None) -> list[Point]:
    """All vertices of the magic polytope, exactly, in sorted order.

    The polytope is the slice t = 1 of a cone in the coordinates (t, x).
    A double description (Motzkin et al. 1953; Fukuda and Prodon 1996)
    finds the cone's extreme rays on Python ints, one bound at a time,
    starting from the vertex-sum equations' null space: one integer
    vector per free column of one fraction-free elimination.  Bound 0 is
    t >= 0, bound e + 1 is x_e >= 0 and, for P, bound m + 1 + e is
    x_e <= t (m edges); mask bit i of a ray is bound i.  The bound on a
    free column turns that column's vector into a ray.  Every other
    bound, one coordinate of a ray or t minus one, pairs each ray on its
    positive side with each ray on its negative side; an adjacent pair
    (judged on the rays' zero sets) gives a new ray, combined
    fraction-free and divided by its gcd.  Each extreme ray with t > 0 is
    the vertex x / t.  The bounds are taken by id, and the order matters
    for speed only: starting in the equations' null space keeps every
    intermediate cone inside it, and every lower bound before any upper
    bound keeps those cones small (36 pair tests for gn(4)/P, 7,356 for
    gn(8)/P).

    ``budget`` caps the pair tests, the positive-by-negative ray pairs
    considered, summed over the bounds; BudgetExceededError is raised once
    they exceed it, and ``None`` means no cap.  The rays are memoised per
    (graph, kind, budget) and shared with ``polytope_denominator``,
    ``polytope_dimension`` and ``semigroups.cf_elements``.  Returns [] for
    an empty polytope, and a fresh list on every call.
    """
    rays = _polytope_facts(g, kind, budget)[0]
    return sorted(tuple(Fraction(c, t) for c in x) for t, *x in rays)


def point_denominator(pt) -> int:
    """Least positive d with d * pt integral (1 for the empty point)."""
    return lcm(*(as_exact(c).denominator for c in pt)) if pt else 1


def polytope_denominator(g: Graph, kind: str, *, budget: int | None = None) -> int:
    """Least dilation factor whose polytope has all-integral vertices."""
    rays, den, *_ = _polytope_facts(g, kind, budget)
    if not rays:
        raise ValueError("polytope is empty")
    return den


def polytope_dimension(g: Graph, kind: str, *, budget: int | None = None) -> int:
    """Dimension of the affine hull of the vertex set; -1 when empty."""
    return _polytope_facts(g, kind, budget)[2]


def coefficient_periods(
    g: Graph, kind: str, *, budget: int | None = None
) -> tuple[int, ...]:
    """A period p_i of each Ehrhart coefficient of t^i, i = 0 .. dim.

    McMullen (1978; as stated by Beck, Sam and Woods 2008): the period of
    the coefficient of t^i divides the least D such that the affine hull
    of D·F holds a lattice point for every i-face F.  For one face the D
    that work are the multiples of one that divides every vertex
    denominator, so p_i = lcm over the i-faces of the gcd of their vertex
    denominators is a multiple of it.  A face whose gcd is not 1 is
    reached by the walk of each prime p of den dividing it, which grows
    the faces whose vertex denominators p all divides from single
    vertices, one vertex at a time, as closures of bitmasks (a face's
    tight bounds, the rays' masks, are those its vertices share; its
    vertices are all those tight on them); one ``_reduce`` rank gives each
    face's dimension.  ``budget`` caps the pair tests of the vertex
    enumeration and, separately, the closures; ``None`` means no cap.
    An empty polytope raises ValueError.
    """
    rays, den, dim, masks = _polytope_facts(g, kind, budget)
    if not rays:
        raise ValueError("polytope is empty")
    periods = [1] * (dim + 1)
    used = 0
    # The rays tight on each bound as a bitmask over rays; those tight on a
    # set of bounds are the AND over its bounds, or every ray for no bound.
    every, bits = (1 << len(rays)) - 1, range(max(masks).bit_length())
    holders = [sum(1 << j for j, z in enumerate(masks) if z >> b & 1) for b in bits]
    for p in range(2, den + 1):
        if den % p or any(p % f == 0 for f in range(2, p)):
            continue  # not a prime of den
        inside = [i for i, r in enumerate(rays) if r[0] % p == 0]
        allowed = sum(1 << i for i in inside)
        # Each face: its vertices as a bitmask over rays, and its tight bounds.
        todo = [(1 << i, masks[i]) for i in inside]
        seen = {f for f, _ in todo}
        while todo:
            face, tight = todo.pop()
            verts = [r for i, r in enumerate(rays) if face >> i & 1]
            d = len(_reduce(verts)) - 1
            periods[d] = lcm(periods[d], gcd(*(r[0] for r in verts)))
            for i in inside:
                if face >> i & 1:
                    continue
                used += 1
                if budget is not None and used > budget:
                    raise BudgetExceededError.over(
                        "face enumeration", "closures", budget, used
                    )
                rows = rest = tight & masks[i]
                closure = every
                while rest:
                    low = rest & -rest
                    closure &= holders[low.bit_length() - 1]
                    rest ^= low
                if closure & ~allowed == 0 and closure not in seen:
                    seen.add(closure)
                    todo.append((closure, rows))
    return tuple(periods)


def format_point(pt) -> list[str]:
    """Coordinates rendered as exact fraction strings ("2", "1/3", ...)."""
    return [str(as_exact(c)) for c in pt]
