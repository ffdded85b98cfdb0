"""Exact linear algebra and polytope vertex enumeration."""

from fractions import Fraction

import pytest

from magiclab import (
    BudgetExceededError,
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
from magiclab.verification import bridged_blocks

F = Fraction


def frac_point(*values):
    return tuple(F(v) for v in values)


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

    def test_gn_p_vertices(self):
        for n in range(2, 5):
            g = make_gn(n)
            got = set(polytope_vertices(g, "P"))
            expected = {tuple(F(0) for _ in g.edges)}
            for i in range(1, n + 1):
                expected.add(tuple(F(x) for x in li_matching(n, i).labels))
            expected.add(tuple(F(x, n - 1) for x in lstar(n).labels))
            assert got == expected

    def test_g3_q_vertices_are_matchings(self):
        got = set(polytope_vertices(make_gn(3), "Q"))
        expected = {
            tuple(F(x) for x in li_matching(3, i).labels) for i in range(1, 4)
        }
        assert got == expected

    def test_empty_q_polytope(self):
        assert polytope_vertices(path_graph(3), "Q") == []

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

    def test_budget_error_reports_requirement(self):
        with pytest.raises(BudgetExceededError) as err:
            polytope_vertices(make_gn(4), "P", budget=10)
        assert err.value.required is not None and err.value.required > 10


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
            polytope_vertices(g, "P", budget=10)
        assert err.value.required == 1820

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
