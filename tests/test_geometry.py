"""Exact linear algebra and polytope vertex enumeration."""

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
    cycle_graph,
    is_bipartite,
    is_magic,
    li_matching,
    lstar,
    magic_constraints,
    make_gn,
    make_gnp,
    matrix_rank,
    path_graph,
    point_denominator,
    polytope_denominator,
    polytope_dimension,
    polytope_vertices,
    solve_rational,
)
from magiclab.geometry import _affine_solution_space
from magiclab.verification import bridged_blocks, corpus

F = Fraction

SCAN_LIMIT = 2000


def frac_point(*values):
    return tuple(F(v) for v in values)


def brute_vertices(g, kind, limit=SCAN_LIMIT):
    """Vertices by the subset scan, or None past ``limit`` subsets.

    Every bound is a halfspace in the residual coordinates of the
    equality system, with parallel copies merged; each subset of
    dimension-many halfspaces is set active and solved exactly, and a
    solution is kept when its point meets every bound in edge
    coordinates.
    """
    desc = magic_constraints(g, kind)
    par = _affine_solution_space(desc)
    if par is None:
        return []
    x0, basis = par
    d, m = len(basis), desc.num_coords
    halfspaces = {}
    for e in range(m):
        row = [basis[j][e] for j in range(d)]
        for sign, bound in [(-1, x0[e])] + ([(1, 1 - x0[e])] if desc.box else []):
            lead = next((abs(c) for c in row if c), None)
            if lead is not None:
                halfspaces[tuple(sign * c / lead for c in row), bound / lead] = None
    if limit is not None and comb(len(halfspaces), d) > limit:
        return None
    found = set()
    for subset in combinations(halfspaces, d):
        u = solve_rational([cs for cs, _ in subset], [b for _, b in subset])
        if u is None:
            continue
        pt = tuple(
            x0[e] + sum(basis[j][e] * u[j] for j in range(d)) for e in range(m)
        )
        if all(x >= 0 and (not desc.box or x <= 1) for x in pt):
            found.add(pt)
    return sorted(found)


class TestSolveRational:
    def test_identity(self):
        assert solve_rational([[1, 0], [0, 1]], [3, 5]) == (F(3), F(5))

    def test_singular_returns_none(self):
        assert solve_rational([[1, 2], [2, 4]], [1, 2]) is None

    def test_hand_eliminated_system(self):
        assert solve_rational([[2, 1], [1, 1]], [3, 2]) == (F(1), F(1))

    def test_fraction_result(self):
        assert solve_rational([[2]], [1]) == (F(1, 2),)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_rational([[1, 2]], [1])


class TestMagicConstraints:
    def test_two_loops_p_has_no_rows(self):
        desc = magic_constraints(bouquet(2), "P")
        assert desc.rows == () and desc.box

    def test_two_loops_q_single_row(self):
        desc = magic_constraints(bouquet(2), "Q")
        assert desc.rows == ((F(1), F(1)),)
        assert desc.rhs == (F(1),)
        assert not desc.box

    def test_g2_p_row_count(self):
        desc = magic_constraints(make_gn(2), "P")
        assert len(desc.rows) == 5 and desc.num_coords == 6

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            magic_constraints(make_gn(2), "R")


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
        # The zero labeling, the n matchings and lstar / (n - 1), at the
        # default budget; gn(8) has 10,518,300 halfspace subsets.
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
            desc = magic_constraints(g, "P")
            for v in polytope_vertices(g, "P"):
                for row, rhs in zip(desc.rows, desc.rhs):
                    assert sum(c * x for c, x in zip(row, v)) == rhs
                assert all(0 <= x <= 1 for x in v)

    def test_each_vertex_has_full_active_rank(self):
        # dropping a true vertex would change the hull: check the active
        # constraints at every reported vertex span the full edge space
        for g in [make_gn(3), cycle_graph(6), bouquet(2)]:
            desc = magic_constraints(g, "P")
            m = len(g.edges)
            for v in polytope_vertices(g, "P"):
                rows = [list(row) for row in desc.rows]
                for e, x in enumerate(v):
                    if x == 0 or x == 1:
                        unit = [F(0)] * m
                        unit[e] = F(1)
                        rows.append(unit)
                assert matrix_rank(rows) == m

    def test_scaled_vertices_are_magic(self):
        for g in [make_gn(3), make_gn(4), cycle_graph(5), bouquet(2)]:
            for v in polytope_vertices(g, "P"):
                d = point_denominator(v)
                lab = Labeling(g, tuple(int(c * d) for c in v))
                assert is_magic(lab) is not None

    def test_exact_minimal_budget(self):
        # gn(4)/P takes 103 pair tests in all.
        g = make_gn(4)
        with pytest.raises(BudgetExceededError) as err:
            polytope_vertices(g, "P", budget=102)
        assert (err.value.phase, err.value.consumed) == ("vertex enumeration", 103)
        assert "vertex enumeration" in str(err.value)
        assert "pair tests" in str(err.value)
        assert len(polytope_vertices(g, "P", budget=103)) == 6

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


class TestFactsCache:
    def test_small_budget_raises_after_a_cached_scan(self):
        g = make_gn(4)
        assert len(polytope_vertices(g, "P")) == 6
        with pytest.raises(BudgetExceededError) as err:
            polytope_vertices(g, "P", budget=102)
        assert (err.value.phase, err.value.consumed) == ("vertex enumeration", 103)

    def test_returned_list_is_a_copy(self):
        g = make_gn(3)
        first = polytope_vertices(g, "P")
        expected = list(first)
        first.clear()
        first.append(frac_point(7))
        assert polytope_vertices(g, "P") == expected


def test_matrix_rank_basics():
    assert matrix_rank([]) == 0
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
    assert matrix_rank(iter([[0, 1], [1, 0], [1, 1]])) == 2
