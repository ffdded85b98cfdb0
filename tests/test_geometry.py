"""Polytope vertex enumeration, denominators and dimensions.

The oracles here reduce rows over fractions, independently of the
integer double description under test.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from magiclab import (
    BudgetExceededError,
    Graph,
    Labeling,
    bouquet,
    build_graph,
    cf_elements,
    coefficient_periods,
    cycle_graph,
    ehrhart_of_polytope,
    is_bipartite,
    is_magic,
    li_matching,
    lstar,
    make_gn,
    make_gnp,
    path_graph,
    point_denominator,
    polytope_denominator,
    polytope_dimension,
    polytope_vertices,
)
from magiclab.geometry import _reduce, format_point
from magiclab.verification import bridged_blocks, corpus

F = Fraction

SCAN_LIMIT = 2000


def frac_point(*values):
    return tuple(F(v) for v in values)


def rref(rows, ncols):
    """Reduced row echelon form over fractions of the first ``ncols`` columns.

    Returns ``(rows, pivots)``: the reduced rows and the pivot column of
    each of the first ``len(pivots)`` rows; the later rows are zero in
    the first ``ncols`` columns.
    """
    work = [[F(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((r for r in range(top, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        lead = work[top][col]
        work[top] = [x / lead for x in work[top]]
        for r in range(len(work)):
            f = work[r][col]
            if r != top and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[top])]
        pivots.append(col)
    return work, pivots


def magic_equalities(g, kind):
    """Vertex-sum equations, each row its edge coefficients then its rhs.

    P: every later vertex sum equals the first one's.  Q: every vertex
    sum equals 1; with no vertex the index is 0, so Q asks 0 = 1.
    """
    m = len(g.edges)
    sums = [[int(e in g.incidence[v]) for e in range(m)] for v in g.vertices]
    if kind == "P":
        return [[a - b for a, b in zip(row, sums[0])] + [0] for row in sums[1:]]
    return [row + [1] for row in sums] or [[0] * m + [1]]


def brute_vertices(g, kind, limit=SCAN_LIMIT):
    """Vertices by the subset scan, or None past ``limit`` subsets.

    The equality system is solved as x0 + basis . u, and every bound
    becomes a halfspace in the residual coordinates u, with parallel
    copies merged; each subset of dimension-many halfspaces is set
    active and solved exactly, and a solution is kept when its point
    meets every bound in edge coordinates.
    """
    m, box = len(g.edges), kind == "P"
    aug, pivots = rref(magic_equalities(g, kind), m)
    if any(row[m] for row in aug[len(pivots) :]):
        return []
    x0 = [F(0)] * m
    for row, col in zip(aug, pivots):
        x0[col] = row[m]
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        vec = [F(int(e == free)) for e in range(m)]
        for row, col in zip(aug, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    d = len(basis)
    halfspaces = {}
    for e in range(m):
        row = [basis[j][e] for j in range(d)]
        for sign, bound in [(-1, x0[e])] + ([(1, 1 - x0[e])] if box else []):
            lead = next((abs(c) for c in row if c), None)
            if lead is not None:
                halfspaces[tuple(sign * c / lead for c in row), bound / lead] = None
    if limit is not None and comb(len(halfspaces), d) > limit:
        return None
    found = set()
    for subset in combinations(halfspaces, d):
        solved, active = rref([list(cs) + [b] for cs, b in subset], d)
        if len(active) < d:
            continue
        pt = tuple(
            x0[e] + sum(basis[j][e] * solved[j][d] for j in range(d)) for e in range(m)
        )
        if all(x >= 0 and (not box or x <= 1) for x in pt):
            found.add(pt)
    return sorted(found)


class TestRref:
    # The oracles are only as good as their row reduction.
    def test_identity(self):
        assert rref([[1, 0, 3], [0, 1, 5]], 2) == ([[1, 0, 3], [0, 1, 5]], [0, 1])

    def test_singular_has_one_pivot(self):
        rows, pivots = rref([[1, 2, 1], [2, 4, 2]], 2)
        assert pivots == [0] and rows[1] == [0, 0, 0]

    def test_hand_eliminated_system(self):
        assert rref([[2, 1, 3], [1, 1, 2]], 2) == ([[1, 0, 1], [0, 1, 1]], [0, 1])

    def test_fraction_result(self):
        assert rref([[2, 1]], 1) == ([[F(1), F(1, 2)]], [0])


class TestMagicEqualities:
    def test_two_loops_p_has_no_rows(self):
        assert magic_equalities(bouquet(2), "P") == []

    def test_two_loops_q_single_row(self):
        assert magic_equalities(bouquet(2), "Q") == [[1, 1, 1]]

    def test_g2_p_row_count(self):
        g = make_gn(2)
        eqs = magic_equalities(g, "P")
        assert len(eqs) == len(g.vertices) - 1 == 5
        assert all(len(row) == len(g.edges) + 1 == 7 for row in eqs)


def test_reduce_basics():
    def rank(rows):
        return len(_reduce(rows))

    assert rank([]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert rank(iter([[0, 1], [1, 0], [1, 1]])) == 2
    assert rank([[6, 10, 15], [10, 15, 6], [15, 6, 10]]) == 3
    # Pivot rows come back primitive, in pivot order, each zero in the
    # others' pivot columns.
    assert _reduce([[2, 4], [1, 3]]) == [(1, 0), (0, 1)]
    assert _reduce([[0, 2, 4, 6], [1, 1, 1, 1]]) == [(1, 0, -1, -2), (0, 1, 2, 3)]


class TestVertices:
    def test_two_loops_p_is_unit_square(self):
        got = set(polytope_vertices(bouquet(2), "P"))
        assert got == {
            frac_point(0, 0),
            frac_point(0, 1),
            frac_point(1, 0),
            frac_point(1, 1),
        }

    def test_two_loops_q_is_segment_ends(self):
        got = set(polytope_vertices(bouquet(2), "Q"))
        assert got == {frac_point(1, 0), frac_point(0, 1)}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gn_p_vertices(self, n):
        # The zero labeling, the n matchings and lstar / (n - 1), with no
        # budget; the double description makes 7,356 pair tests on gn(8).
        g = make_gn(n)
        got = set(polytope_vertices(g, "P"))
        expected = {tuple(F(0) for _ in g.edges)}
        for i in range(1, n + 1):
            expected.add(tuple(F(x) for x in li_matching(n, i).labels))
        expected.add(tuple(F(x, n - 1) for x in lstar(n).labels))
        assert got == expected
        assert polytope_denominator(g, "P") == n - 1

    def test_g3_q_vertices_are_matchings(self):
        got = set(polytope_vertices(make_gn(3), "Q"))
        expected = {
            tuple(F(x) for x in li_matching(3, i).labels) for i in range(1, 4)
        }
        assert got == expected

    def test_empty_q_polytope(self):
        assert polytope_vertices(path_graph(3), "Q") == []

    def test_redundant_bounds_do_not_add_vertices(self):
        # P is the triangle x1 + x3 <= 1 in the two loops' labels; the
        # loops' own bounds x <= 1 touch it only at corners, so rays pass
        # the zero-count bound there without being adjacent.
        g = Graph(("u", "v", "w"), (("w", "u"), ("v", "v"), ("u", "v"), ("v", "v")))
        assert polytope_vertices(g, "P") == [
            frac_point(0, 0, 0, 0),
            frac_point(1, 0, 0, 1),
            frac_point(1, 1, 0, 0),
        ]

    def test_bound_with_no_free_direction_can_empty_the_polytope(self):
        # v's two leaves force both their edges to 1, so Q needs the loop
        # at v at -1; the 4-cycle keeps one free direction.
        g = build_graph(
            ["v", "w1", "w2", "a", "b", "c", "d"],
            [("v", "v"), ("v", "w1"), ("v", "w2")]
            + [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
        )
        assert polytope_vertices(g, "Q") == []

    def test_no_edge_graph_is_single_point(self):
        g = build_graph(["a", "b"], [])
        assert polytope_vertices(g, "P") == [()]

    def test_vertices_satisfy_constraints(self):
        for g in [make_gn(3), cycle_graph(5), bouquet(2), bridged_blocks()]:
            eqs = magic_equalities(g, "P")
            for v in polytope_vertices(g, "P"):
                for row in eqs:
                    assert sum(c * x for c, x in zip(row, v)) == row[-1]
                assert all(0 <= x <= 1 for x in v)

    def test_each_vertex_has_full_active_rank(self):
        # dropping a true vertex would change the hull: check the active
        # constraints at every reported vertex span the full edge space
        for g in [make_gn(3), cycle_graph(6), bouquet(2)]:
            m = len(g.edges)
            eqs = [row[:m] for row in magic_equalities(g, "P")]
            for v in polytope_vertices(g, "P"):
                active = [
                    [int(e == f) for f in range(m)]
                    for e, x in enumerate(v)
                    if x in (0, 1)
                ]
                assert len(rref(eqs + active, m)[1]) == m

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            polytope_vertices(make_gn(2), "R")

    def test_scaled_vertices_are_magic(self):
        for g in [make_gn(3), make_gn(4), cycle_graph(5), bouquet(2)]:
            for v in polytope_vertices(g, "P"):
                d = point_denominator(v)
                lab = Labeling(g, tuple(int(c * d) for c in v))
                assert is_magic(lab) is not None

    def test_exact_minimal_budget(self):
        # gn(4)/P takes 36 pair tests in all.
        g = make_gn(4)
        with pytest.raises(BudgetExceededError) as err:
            polytope_vertices(g, "P", budget=35)
        assert (err.value.phase, err.value.consumed) == ("vertex enumeration", 36)
        assert "vertex enumeration" in str(err.value)
        assert "pair tests" in str(err.value)
        assert len(polytope_vertices(g, "P", budget=36)) == 6

    @pytest.mark.parametrize(
        "name, kind",
        [
            (name, kind)
            for name, _ in corpus()
            for kind in "PQ"
            if (name, kind) != ("g5", "P")  # 15,504 subsets; see test_gn_p_vertices
        ],
    )
    def test_matches_the_subset_scan_on_the_corpus(self, name, kind):
        g = dict(corpus())[name]
        assert polytope_vertices(g, kind) == brute_vertices(g, kind, limit=None)


class TestPointDenominator:
    def test_integral_point(self):
        assert point_denominator(frac_point(1, 0, 3)) == 1

    def test_uniform_thirds(self):
        assert point_denominator(tuple(F(1, 3) for _ in range(12))) == 3

    def test_mixed(self):
        assert point_denominator((F(1, 2), F(1, 3))) == 6

    def test_empty_point(self):
        assert point_denominator(()) == 1

    def test_float_rejected(self):
        # Fraction(0.1) has denominator 2**55, not 10.
        with pytest.raises(ValueError, match="exact"):
            point_denominator((0.1,))


class TestFormatPoint:
    def test_exact_strings(self):
        assert format_point((F(2), F(1, 3), 0, "1/2")) == ["2", "1/3", "0", "1/2"]

    def test_float_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            format_point((0.5,))


class TestPolytopeDenominator:
    def test_gn_p(self):
        for n in range(2, 5):
            assert polytope_denominator(make_gn(n), "P") == n - 1

    def test_bipartite_preclusion_one_gives_one(self):
        assert polytope_denominator(bridged_blocks(), "P") == 1
        assert polytope_denominator(path_graph(2), "P") == 1

    def test_g3_q(self):
        assert polytope_denominator(make_gn(3), "Q") == 1

    def test_empty_polytope_raises(self):
        with pytest.raises(ValueError):
            polytope_denominator(path_graph(3), "Q")

    def test_q_denominator_at_most_two(self):
        graphs = [
            make_gn(2),
            make_gn(3),
            bouquet(2),
            cycle_graph(3),
            cycle_graph(5),
            cycle_graph(6),
            path_graph(2),
        ]
        for g in graphs:
            verts = polytope_vertices(g, "Q")
            if not verts:
                continue
            den = polytope_denominator(g, "Q")
            assert den <= 2
            if is_bipartite(g) is not None:
                assert den == 1


class TestPolytopeDimension:
    def test_two_loops(self):
        assert polytope_dimension(bouquet(2), "P") == 2
        assert polytope_dimension(bouquet(2), "Q") == 1

    def test_gn_p_dimension_is_channel_count(self):
        for n in range(2, 5):
            assert polytope_dimension(make_gn(n), "P") == n

    def test_path3_p_is_a_point(self):
        assert polytope_dimension(path_graph(3), "P") == 0

    def test_empty_is_minus_one(self):
        assert polytope_dimension(path_graph(3), "Q") == -1

    def test_q_strictly_below_p(self):
        graphs = [
            make_gn(2),
            make_gn(3),
            bouquet(2),
            cycle_graph(4),
            cycle_graph(5),
            make_gnp(2, 2),
            path_graph(2),
        ]
        for g in graphs:
            if not polytope_vertices(g, "Q"):
                continue
            assert polytope_dimension(g, "Q") < polytope_dimension(g, "P")


def eight_edges():
    """Five vertices, eight edges: P has denominator 6, fitted period 3."""
    edges = "01 02 03 04 12 13 24 34".split()
    return build_graph(list("01234"), [list(e) for e in edges])


class TestCoefficientPeriods:
    def test_gn_p_only_the_constant_term(self):
        # gn(n)'s one fractional vertex, lstar / (n - 1), is its one face
        # with no integral vertex.
        for n in range(2, 9):
            assert coefficient_periods(make_gn(n), "P") == (n - 1,) + (1,) * n

    def test_eight_edges(self):
        # McMullen's bound is 6 on the constant term; the least period of
        # the counts is 3.
        g = eight_edges()
        assert coefficient_periods(g, "P") == (6, 1, 1, 1, 1)
        assert polytope_denominator(g, "P") == 6
        assert ehrhart_of_polytope(g, "P").period == 3

    def test_a_polytope_with_no_integral_vertex(self):
        # Every vertex of the eight-edge graph's Q has denominator 2, so Q
        # is itself a face with no integral vertex.
        assert coefficient_periods(eight_edges(), "Q") == (2, 2, 2, 2)

    def test_integral_vertices_give_ones(self):
        assert coefficient_periods(bridged_blocks(), "P") == (1,) * (
            polytope_dimension(bridged_blocks(), "P") + 1
        )
        assert coefficient_periods(path_graph(3), "P") == (1,)

    def test_each_period_divides_the_one_before_and_den(self):
        for _, g in corpus():
            for kind in "PQ":
                if not polytope_vertices(g, kind):
                    continue
                p = coefficient_periods(g, kind)
                assert len(p) == polytope_dimension(g, kind) + 1
                assert p[0] == polytope_denominator(g, kind)
                assert all(a % b == 0 for a, b in zip(p, p[1:]))

    def test_empty_polytope_raises(self):
        with pytest.raises(ValueError, match="empty"):
            coefficient_periods(path_graph(3), "Q")

    def test_face_enumeration_budget(self):
        # The eight-edge graph's Q takes 17 pair tests and 176 closures.
        g = eight_edges()
        assert coefficient_periods(g, "Q", budget=176) == (2, 2, 2, 2)
        for run in (coefficient_periods, ehrhart_of_polytope):
            with pytest.raises(BudgetExceededError) as err:
                run(g, "Q", budget=175)
            assert (err.value.phase, err.value.consumed, err.value.budget) == (
                "face enumeration",
                176,
                175,
            )
            assert str(err.value) == (
                "face enumeration exceeded the budget of 175 closures (reached 176)"
            )

    def test_face_enumeration_budget_on_k5(self):
        # K5's Q: 22 vertices, all of denominator 2, 143 pair tests and
        # 4,462 closures; McMullen's bound is 2 on every coefficient.
        g = build_graph(list("01234"), [list(e) for e in combinations("01234", 2)])
        assert coefficient_periods(g, "Q", budget=4_462) == (2,) * 6
        with pytest.raises(BudgetExceededError) as err:
            coefficient_periods(g, "Q", budget=4_461)
        assert (err.value.phase, err.value.consumed) == ("face enumeration", 4_462)


class TestFactsCache:
    def test_small_budget_raises_after_a_cached_scan(self):
        g = make_gn(4)
        assert len(polytope_vertices(g, "P")) == 6
        with pytest.raises(BudgetExceededError) as err:
            polytope_vertices(g, "P", budget=35)
        assert (err.value.phase, err.value.consumed) == ("vertex enumeration", 36)

    # The memo is typed: a float budget equal to a cached int one misses
    # it, so every reader of the memo meets the budget's gate.
    @pytest.mark.parametrize(
        "call",
        [
            polytope_vertices,
            polytope_denominator,
            polytope_dimension,
            cf_elements,
            coefficient_periods,
        ],
        ids=lambda f: f.__name__,
    )
    def test_a_float_budget_raises_after_a_cached_int_one(self, call):
        g = make_gn(3)
        call(g, "P", budget=1000)
        with pytest.raises(ValueError, match="budget must be integers"):
            call(g, "P", budget=1000.0)

    def test_returned_list_is_a_copy(self):
        g = make_gn(3)
        first = polytope_vertices(g, "P")
        expected = list(first)
        first.clear()
        first.append(frac_point(7))
        assert polytope_vertices(g, "P") == expected

