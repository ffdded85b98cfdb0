"""Labelings, magic tests, and exhaustive enumeration."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from magiclab import (
    BudgetExceededError,
    Graph,
    Labeling,
    bouquet,
    build_graph,
    closed_form_mn,
    coefficient_periods,
    cycle_graph,
    count_index_k,
    count_magic_k,
    count_series,
    enumerate_index_k,
    enumerate_magic_bounded,
    enumerate_magic_k,
    is_magic,
    labeling_from_json,
    labeling_to_json,
    li_matching,
    lstar,
    make_gn,
    make_gnp,
    max_label,
    path_graph,
    vertex_sum,
)
from magiclab import labelings
from magiclab.labelings import _assignment_order, _labelings, _made


def brute_magic_k(g, k):
    """Independent oracle: filter the full label cube."""
    out = []
    for combo in itertools.product(range(k + 1), repeat=len(g.edges)):
        if is_magic(Labeling(g, combo)) is not None:
            out.append(combo)
    return sorted(out)


def brute_index_k(g, k):
    out = []
    for combo in itertools.product(range(k + 1), repeat=len(g.edges)):
        if is_magic(Labeling(g, combo)) == k:
            out.append(combo)
    return sorted(out)


class TestLabelingType:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            Labeling(make_gn(2), (0,) * 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Labeling(path_graph(2), (-1,))

    def test_float_labels_rejected(self):
        # int() would truncate these to (1, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            Labeling(make_gn(2), (1.7, 0, 0, 0, 0, 0.2))

    def test_made_equals_the_checked_labeling(self):
        # The unchecked constructor of search output builds the same value.
        for g, k in ((make_gn(3), 3), (bouquet(2), 2), (path_graph(4), 2)):
            solutions = list(_labelings(g, [k] * len(g.edges), None, None))
            assert solutions
            for _, labels in solutions:
                made, checked = _made(g, labels), Labeling(g, labels)
                assert made == checked and hash(made) == hash(checked)


class TestVertexSum:
    def test_zero_labeling(self):
        g = make_gn(2)
        lab = Labeling(g, (0,) * 6)
        assert all(vertex_sum(lab, v) == 0 for v in g.vertices)

    def test_two_loops_counted_once(self):
        lab = Labeling(bouquet(2), (1, 0))
        assert vertex_sum(lab, "v") == 1

    def test_lstar_on_g3(self):
        assert vertex_sum(lstar(3), "a1") == 3

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            vertex_sum(Labeling(path_graph(2), (0,)), "nope")


class TestIsMagic:
    def test_zero_labeling_has_index_zero(self):
        g = make_gn(2)
        assert is_magic(Labeling(g, (0,) * 6)) == 0

    def test_lstar_index_is_channel_count(self):
        for n in range(2, 6):
            assert is_magic(lstar(n)) == n

    def test_single_rung_is_not_magic(self):
        g = make_gn(2)
        assert is_magic(Labeling(g, (1, 0, 0, 0, 0, 0))) is None

    def test_empty_graph_convention(self):
        assert is_magic(Labeling(Graph((), ()), ())) == 0


class TestMaxLabel:
    def test_zero(self):
        assert max_label(Labeling(make_gn(2), (0,) * 6)) == 0

    def test_lstar(self):
        assert max_label(lstar(4)) == 3

    def test_matchings(self):
        assert all(max_label(li_matching(4, i)) == 1 for i in range(1, 5))

    def test_empty_edges(self):
        assert max_label(Labeling(Graph(("v",), ()), ())) == 0


class TestBuiltinLabelings:
    def test_lstar_n2_is_all_ones(self):
        assert lstar(2).labels == (1,) * 6

    def test_lstar_g4_values(self):
        g = make_gn(4)
        lab = lstar(4)
        assert lab.labels[g.edges.index(("a2", "b2"))] == 3
        assert lab.labels[g.edges.index(("x", "a2"))] == 1

    def test_lstar_requires_two_channels(self):
        with pytest.raises(ValueError):
            lstar(1)

    def test_li_is_index_one(self):
        for n in range(2, 7):
            for i in range(1, n + 1):
                assert is_magic(li_matching(n, i)) == 1

    def test_li_out_of_range(self):
        with pytest.raises(ValueError):
            li_matching(3, 4)
        with pytest.raises(ValueError):
            li_matching(3, 0)

    def test_li_3_1_support(self):
        g = make_gn(3)
        lab = li_matching(3, 1)
        support = {g.edges[i] for i, x in enumerate(lab.labels) if x == 1}
        assert support == {("x", "a1"), ("y", "b1"), ("a2", "b2"), ("a3", "b3")}

    def test_sum_of_matchings_is_lstar(self):
        for n in range(2, 6):
            total = [0] * (3 * n)
            for i in range(1, n + 1):
                for j, x in enumerate(li_matching(n, i).labels):
                    total[j] += x
            assert tuple(total) == lstar(n).labels


class TestEnumerateMagicK:
    def test_k0_is_exactly_zero_labeling(self):
        for g in [make_gn(3), path_graph(4), bouquet(2)]:
            labs = enumerate_magic_k(g, 0)
            assert len(labs) == 1 and not any(labs[0].labels)

    def test_g2_k1_against_brute_force(self):
        g = make_gn(2)
        got = sorted(lab.labels for lab in enumerate_magic_k(g, 1))
        assert got == brute_magic_k(g, 1)
        assert len(got) == 4

    def test_two_loops_k1_is_full_cube(self):
        got = sorted(lab.labels for lab in enumerate_magic_k(bouquet(2), 1))
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_brute_force_on_assorted_graphs(self):
        cases = [
            (make_gn(2), 2),
            (path_graph(4), 3),
            (bouquet(3), 2),
            (build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]), 2),
        ]
        for g, k in cases:
            got = sorted(lab.labels for lab in enumerate_magic_k(g, k))
            assert got == brute_magic_k(g, k)

    def test_results_are_magic_and_bounded(self):
        g = make_gn(3)
        for lab in enumerate_magic_k(g, 2):
            assert is_magic(lab) is not None
            assert max_label(lab) <= 2

    def test_isolated_vertex_forces_zero(self):
        g = build_graph(["a", "b", "iso"], [("a", "b")])
        assert [lab.labels for lab in enumerate_magic_k(g, 5)] == [(0,)]


class TestCountMagicK:
    def test_g4_k3(self):
        assert count_magic_k(make_gn(4), 3) == 36

    def test_g2_is_square_numbers(self):
        g = make_gn(2)
        for k in range(7):
            assert count_magic_k(g, k) == (k + 1) ** 2

    def test_path3_constant_one(self):
        g = path_graph(3)
        assert all(count_magic_k(g, k) == 1 for k in range(6))

    def test_matches_closed_form(self):
        for n in range(2, 5):
            g = make_gn(n)
            for k in range(7):
                assert count_magic_k(g, k) == closed_form_mn(n, k)

    def test_monotone_in_k(self):
        for g in [make_gn(3), bouquet(2), path_graph(4)]:
            counts = [count_magic_k(g, k) for k in range(5)]
            assert counts == sorted(counts)

    def test_matches_enumeration_length(self):
        g = make_gnp(2, 2)
        for k in range(4):
            assert count_magic_k(g, k) == len(enumerate_magic_k(g, k))

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            count_magic_k(make_gn(2), -1)


class TestFrontierSlots:
    K33 = Graph(tuple("abcxyz"), tuple((u, v) for u in "abc" for v in "xyz"))

    def slots(self, g):
        plan = _assignment_order(g)[1]
        return 1 + max(max(p1, p2) for p1, p2, _loop, _closes in plan)

    def test_k33_index_counts_are_semimagic_squares(self):
        # An index-t labeling of K_{3,3} is a 3x3 semimagic square with line
        # sum t; MacMahon's count of those is a sum of three binomials.
        for t in range(21):
            expected = comb(t + 4, 4) + comb(t + 3, 4) + comb(t + 2, 4)
            assert count_index_k(self.K33, t) == expected

    def test_one_slot_per_open_vertex(self):
        assert self.slots(make_gn(5)) == 4
        assert self.slots(self.K33) == 5

    @staticmethod
    def seeded_loop_graphs(count=60):
        rng = random.Random(25)
        for _ in range(count):
            vs = [f"v{i}" for i in range(rng.randint(1, 7))]
            pairs = list(itertools.combinations(vs, 2))
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            edges += [(v, v) for v in vs for _ in range(rng.randint(0, 2))]
            yield Graph(tuple(vs), tuple(edges))

    def test_slot_plan_invariants(self):
        graphs = [make_gn(n) for n in range(2, 9)] + [self.K33, bouquet(3)]
        for g in graphs + list(self.seeded_loop_graphs()):
            order, plan = _assignment_order(g)
            span = {}
            for t, (_, ui, wi) in enumerate(order):
                for vi in (ui, wi):
                    span[vi] = (span.get(vi, (t,))[0], t)
            held = {}
            for t, ((_, ui, wi), (p1, p2, loop, closes)) in enumerate(zip(order, plan)):
                assert loop == (ui == wi) and (p1 == p2) == loop
                # Each vertex holds one slot from its first edge to its last.
                for vi, p in ((ui, p1), (wi, p2)):
                    assert held.setdefault(vi, p) == p
                # No two open vertices share a slot.
                open_now = [vi for vi, (a, b) in span.items() if a <= t <= b]
                slots = [held[vi] for vi in open_now]
                assert len(slots) == len(set(slots))
                # The closes are exactly the ends whose last edge this is.
                want = {(vi, held[vi]) for vi in (ui, wi) if span[vi][1] == t}
                assert sorted(closes) == sorted(want)
                for vi, _ in closes:
                    del held[vi]
            assert not held


class TestCountSeries:
    def test_gn_matches_the_closed_form(self):
        for n in range(2, 6):
            magic, index = count_series(make_gn(n), 12)
            assert magic == [closed_form_mn(n, k) for k in range(13)]
            assert index == [count_index_k(make_gn(n), k) for k in range(13)]

    @pytest.mark.parametrize("kmax", [-1, 2.0])
    def test_bad_kmax_rejected(self, kmax):
        with pytest.raises(ValueError, match="kmax"):
            count_series(make_gn(2), kmax)

    def test_exact_budget_counts_every_pass(self):
        # 212 transitions for k = 0..3 on gn(4): each index pass once, plus
        # the passes the cap binds; per-k count_magic_k calls take 372.
        assert count_series(make_gn(4), 3, budget=212)[0] == [1, 5, 15, 36]
        with pytest.raises(BudgetExceededError) as err:
            count_series(make_gn(4), 3, budget=211)
        assert (err.value.phase, err.value.consumed) == ("counting", 212)

    @pytest.mark.parametrize(
        "count, calls",
        [
            (lambda: labelings._count(make_gn(4), [6] * 12, 0, None, None), 10),
            (lambda: labelings._sweep(make_gn(4), 20, None), 104),
            (lambda: count_magic_k(make_gn(4), 6), 8),
            (lambda: count_series(make_gn(4), 20), 88),
        ],
        ids=["dp-magic", "dp-series", "count_magic_k", "count_series"],
    )
    def test_a_ruled_out_target_ends_the_passes(self, monkeypatch, count, calls):
        # On gn(4) at cap k no target above 4k/3 is feasible, and the first
        # one _bounds rules out ends the passes: the pure DP at cap 6 asks
        # for targets 0..9, not 0..12 (the least vertex capacity), and its
        # sweep to kmax 20 makes 104 calls, not 231.  A skipped pass makes
        # no transition, so only the calls show the stop.  From k = 5, the
        # window of gn(4)'s L_Q, the counts take the index passes from its
        # fit on the passes 0..4: count_magic_k(gn(4), 6) makes 5 calls
        # there and 3 above the cap (targets 7..9), and count_series(gn(4),
        # 20) makes 5 plus the sweep's 83 binding calls.
        seen = []

        def counted(*args):
            seen.append(args[1])
            return bounds(*args)

        bounds = labelings._bounds
        monkeypatch.setattr(labelings, "_bounds", counted)
        count()
        assert len(seen) == calls


def eight_edges():
    """Five vertices, eight edges: Q's periods take 176 closures."""
    edges = "01 02 03 04 12 13 24 34".split()
    return build_graph(list("01234"), [list(e) for e in edges])


class TestIndexRoute:
    """count_magic_k and count_series read their index passes from L_Q,
    Stanley's index quasipolynomial, once Q's periods are found under a
    cap and the passes hold its window."""

    def test_the_gate_is_m_minus_the_incidence_rank_plus_two(self):
        # gn(n): 3n edges, 2n + 2 vertices, bipartite and connected, so
        # rank 2n + 1; K7: 21 edges and rank 7, as it has an odd cycle.
        for n in range(2, 8):
            assert labelings._index_gate(make_gn(n)) == n + 1
        k7 = build_graph(list("0123456"), list(itertools.combinations("0123456", 2)))
        assert labelings._index_gate(k7) == 16

    def test_below_the_gate_no_lookup_runs(self, monkeypatch):
        def looked_up(*args):
            raise AssertionError("looked up Q's periods below the gate")

        monkeypatch.setattr(labelings, "_index_periods", looked_up)
        assert count_magic_k(make_gn(4), 4) == closed_form_mn(4, 4)
        assert count_series(make_gn(4), 4)[0] == [closed_form_mn(4, k) for k in range(5)]
        with pytest.raises(AssertionError, match="below the gate"):
            count_magic_k(make_gn(4), 5)

    @pytest.mark.parametrize(
        "run, n, k, transitions",
        [
            (count_magic_k, 4, 3, 212),
            (count_magic_k, 5, 25, 8_247),
            (count_magic_k, 8, 60, 148_032),
            (count_magic_k, 14, 15, 38_622),
            (count_series, 4, 20, 21_424),
            (count_series, 5, 16, 9_063),
        ],
        ids=["g4-3", "g5-25", "g8-60", "g14-15", "series-g4-20", "series-g5-16"],
    )
    def test_the_lookups_cost_at_most_half_the_transitions_before_them(
        self, monkeypatch, run, n, k, transitions
    ):
        # The transitions are pinned, so a pass gained or lost fails.  From
        # the gate on, each lookup's cap is a power of 2 at most a quarter
        # of the transitions used by then, larger than the last, and runs
        # after one of the index passes up to k / 2, one DP call each.
        # gn(4) at 3 is below the gate, with no lookup.  gn(14)'s Q takes
        # 29.8M pair tests, and 15 is its gate: every lookup fails, and the
        # count ends on the pure DP's 38,622 transitions.
        g = make_gn(n)
        count, periods = labelings._count, labelings._index_periods
        used, caps, calls = [0], [], [0]

        def counted(*args):
            counts, used[0] = count(*args)
            calls[0] += 1
            return counts, used[0]

        def looked_up(g, cap):
            caps.append(cap)
            assert cap & (cap - 1) == 0 and 4 * cap <= used[0] and calls[0] <= k // 2 + 1
            return periods(g, cap)

        monkeypatch.setattr(labelings, "_count", counted)
        monkeypatch.setattr(labelings, "_index_periods", looked_up)
        want = [closed_form_mn(n, t) for t in range(k + 1)]
        got = run(g, k)
        assert (got == want[-1]) if run is count_magic_k else (got[0] == want)
        assert used[0] == transitions
        assert bool(caps) == (k >= labelings._index_gate(g))
        assert caps == sorted(set(caps)) and sum(caps) <= used[0] // 2

    def test_a_lookup_is_memoised_per_graph_and_cap(self):
        g = eight_edges()
        assert labelings._index_periods(g, 128) is None
        assert labelings._index_periods(g, 256) == coefficient_periods(g, "Q")
        assert labelings._index_periods(path_graph(3), 1) == ()
        for run in (count_magic_k, count_series):
            run(g, 12)
            misses = labelings._index_periods.cache_info().misses
            run(g, 12)
            assert labelings._index_periods.cache_info().misses == misses

    @pytest.mark.parametrize("g, k", [(make_gn(4), 6), (eight_edges(), 12)], ids=["g4", "e8"])
    def test_one_budget_covers_every_pass_and_no_lookup_raises(self, g, k, monkeypatch):
        # The passes the route runs take fewer transitions than the pure
        # count's or sweep's; a budget of exactly those passes passes, and
        # one less stops in counting, never in a lookup.  The eight-edge
        # graph's lookups fail up to cap 128.
        count, used = labelings._count, [0]

        def counted(*args):
            counts, used[0] = count(*args)
            return counts, used[0]

        monkeypatch.setattr(labelings, "_count", counted)
        pure = {
            count_magic_k: lambda: count(g, [k] * len(g.edges), 0, None, None)[1],
            count_series: lambda: (labelings._sweep(g, k, None), used[0])[1],
        }
        for run in (count_magic_k, count_series):
            want = run(g, k)
            total = used[0]
            assert total < pure[run]()
            assert run(g, k, budget=total) == want
            with pytest.raises(BudgetExceededError) as err:
                run(g, k, budget=total - 1)
            assert err.value.phase == "counting"

    def test_a_count_that_is_not_an_integer_raises(self, monkeypatch):
        from magiclab.quasipolynomials import Quasipolynomial

        # A constant 1/2 from the first pass on: both counts check each
        # count read from it, and the first, at t = 1, is 1/2.
        half = Quasipolynomial(1, ((Fraction(1, 2),),))
        monkeypatch.setattr(labelings._IndexRoute, "fit", lambda route, index, used: half)
        with pytest.raises(ArithmeticError, match="^1/2 is not an integer count$"):
            count_magic_k(make_gn(4), 5)
        with pytest.raises(ArithmeticError, match="^1/2 is not an integer count$"):
            count_series(make_gn(4), 5)


class TestEnumerateIndexK:
    def test_g2_index1_is_the_two_matchings(self):
        got = sorted(lab.labels for lab in enumerate_index_k(make_gn(2), 1))
        want = sorted([li_matching(2, 1).labels, li_matching(2, 2).labels])
        assert got == want

    def test_g2_index2_count(self):
        assert len(enumerate_index_k(make_gn(2), 2)) == 3

    def test_index0_is_zero_labeling(self):
        for g in [make_gn(2), bouquet(2), path_graph(2)]:
            labs = enumerate_index_k(g, 0)
            assert len(labs) == 1 and not any(labs[0].labels)

    def test_against_brute_force(self):
        for g in [make_gn(2), bouquet(2), path_graph(4)]:
            for k in range(4):
                got = sorted(lab.labels for lab in enumerate_index_k(g, k))
                assert got == brute_index_k(g, k)

    def test_labels_bounded_by_index(self):
        for lab in enumerate_index_k(make_gn(3), 3):
            assert max_label(lab) <= 3

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_index_k(make_gn(2), -1)

    def test_index_series_of_gn_is_compositions(self):
        # labelings of index k correspond to the spoke vectors summing to k
        from math import comb

        for n in range(2, 5):
            g = make_gn(n)
            for k in range(5):
                assert count_index_k(g, k) == comb(k + n - 1, n - 1)


class TestSpokeParametrization:
    def test_enumeration_matches_spoke_vectors(self):
        # every magic labeling of the channel family is pinned down by
        # the x-spoke labels, with max = sum - min
        for n in range(2, 5):
            g = make_gn(n)
            for k in range(5):
                expected = set()
                for u in itertools.product(range(k + 1), repeat=n):
                    s = sum(u)
                    if s - min(u) > k:
                        continue
                    labels = tuple(s - u[j] for j in range(n)) + u + u
                    expected.add(labels)
                got = {lab.labels for lab in enumerate_magic_k(g, k)}
                assert got == expected


class TestGnpInvariance:
    def test_counts_agree_with_gn(self):
        for n in range(2, 4):
            g = make_gn(n)
            for p in range(1, 3):
                gp = make_gnp(n, p)
                for k in range(5):
                    assert count_magic_k(g, k) == count_magic_k(gp, k)


class TestBoundedEnumeration:
    def test_caps_respected(self):
        g = make_gn(2)
        caps = [1, 0, 1, 1, 1, 1]
        labs = enumerate_magic_bounded(g, caps)
        assert all(
            all(x <= c for x, c in zip(lab.labels, caps)) for lab in labs
        )
        assert all(is_magic(lab) is not None for lab in labs)

    def test_zero_caps_leave_only_zero(self):
        g = make_gn(3)
        labs = enumerate_magic_bounded(g, [0] * 9)
        assert len(labs) == 1

    def test_cap_length_checked(self):
        with pytest.raises(ValueError):
            enumerate_magic_bounded(make_gn(2), [1, 1])

    def test_float_caps_rejected(self):
        # int() would search with caps of 1
        with pytest.raises(ValueError):
            enumerate_magic_bounded(make_gn(2), [1.9] * 6)

    def test_float_k_rejected(self):
        with pytest.raises(ValueError):
            count_magic_k(make_gn(2), 1.5)

    @pytest.mark.parametrize(
        "floors, message",
        [
            ([0, 0, 0, 0, 0, -1], "floors must be nonnegative"),
            ([0.0] * 6, "floors must be integers"),
            ([1] * 6 + [0], "floors length must equal the edge count"),
            ([1, 1], "floors length must equal the edge count"),
        ],
    )
    def test_bad_floors_rejected(self, floors, message):
        with pytest.raises(ValueError, match=message):
            enumerate_magic_bounded(make_gn(2), [2] * 6, floors=floors)

    def test_floors_are_lower_bounds(self):
        # lstar(3) is the only magic labeling of gn(3) at or above itself
        # within its own caps, and a floor above a cap leaves nothing.
        lab = lstar(3)
        assert enumerate_magic_bounded(make_gn(3), lab.labels, floors=lab.labels) == [lab]
        caps = [2] * 9
        assert enumerate_magic_bounded(make_gn(3), caps, floors=[3] + [0] * 8) == []

    def test_floors_on_the_graph_with_no_vertices(self):
        g = Graph((), ())
        assert enumerate_magic_bounded(g, [], floors=[]) == [Labeling(g, ())]


class TestBudget:
    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceededError):
            count_magic_k(make_gn(3), 3, budget=10)

    def test_budget_large_enough_passes(self):
        assert count_magic_k(make_gn(2), 1, budget=10**6) == 4

    # The smallest budgets that succeed.  Counting takes one unit per
    # (DP state, label value) tried, summed over every index; the search
    # counts hi - lo + 1 label values per position before trying them.
    def test_exact_budget_count_magic_k(self):
        assert count_magic_k(make_gn(4), 3, budget=212) == 36
        with pytest.raises(BudgetExceededError) as err:
            count_magic_k(make_gn(4), 3, budget=211)
        assert (err.value.phase, err.value.consumed, err.value.budget) == (
            "counting",
            212,
            211,
        )
        assert str(err.value) == (
            "counting exceeded the budget of 211 state transitions (reached 212)"
        )

    def test_exact_budget_count_index_k(self):
        assert count_index_k(make_gn(4), 3, budget=96) == 20
        with pytest.raises(BudgetExceededError) as err:
            count_index_k(make_gn(4), 3, budget=95)
        assert (err.value.phase, err.value.consumed) == ("counting", 96)

    def test_search_error_names_its_phase(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_magic_k(make_gn(3), 3, budget=10)
        assert err.value.phase == "search" and err.value.budget == 10
        assert err.value.consumed > 10
        assert str(err.value).startswith("search exceeded the budget of 10 nodes")

    def test_exact_budget_bounded(self):
        assert len(enumerate_magic_bounded(bouquet(2), [2, 3], budget=24)) == 12
        with pytest.raises(BudgetExceededError):
            enumerate_magic_bounded(bouquet(2), [2, 3], budget=23)


def test_assignment_order_is_memoised_per_graph():
    g = make_gn(5)
    walk = _assignment_order(g)
    order = walk[0]
    assert isinstance(order, tuple) and sorted(ei for ei, _, _ in order) == list(range(15))
    vidx = {v: i for i, v in enumerate(g.vertices)}
    assert all((ui, wi) == tuple(map(vidx.get, g.edges[ei])) for ei, ui, wi in order)
    assert _assignment_order(make_gn(5)) is walk


class TestDeepGraphs:
    def test_long_cycle_does_not_hit_the_recursion_limit(self):
        # 1200 edges, one search position each: the zero labeling, the
        # all-ones labeling and the two alternating ones.
        assert count_magic_k(cycle_graph(1200), 1) == 4


class TestLabelingJson:
    def test_round_trip(self):
        lab = lstar(3)
        text = labeling_to_json(lab)
        assert labeling_from_json(make_gn(3), text) == lab

    def test_wrong_graph_rejected(self):
        text = labeling_to_json(lstar(3))
        with pytest.raises(ValueError):
            labeling_from_json(make_gn(4), text)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="labeling JSON must be"):
            labeling_from_json(make_gn(3), "[]")

    def test_boolean_label_rejected(self):
        lab = Labeling(make_gn(2), (1, 0, 0, 0, 0, 0))
        text = labeling_to_json(lab).replace("[1,", "[true,")
        assert "true" in text
        with pytest.raises(ValueError):
            labeling_from_json(make_gn(2), text)
