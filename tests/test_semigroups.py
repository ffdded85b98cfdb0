"""Semigroup elements, the fundamentality oracle, and decompositions."""

from collections import Counter

import pytest

from magiclab import (
    BudgetExceededError,
    Labeling,
    SemigroupElement,
    bouquet,
    build_graph,
    certify_small_quasiperiod,
    cf_elements,
    cycle_graph,
    decompose_over_generators,
    enumerate_index_k,
    enumerate_magic_k,
    is_bipartite,
    is_magic,
    li_matching,
    lstar,
    make_gn,
    max_label,
    path_graph,
    perfect_matchings,
    polytope_denominator,
    stanley_decompose,
    vertex_sum,
    verify_completely_fundamental,
)
from magiclab.semigroups import (
    _combination,
    _pool,
    _sparse,
    heights_lcm,
    validate_element,
)
from magiclab.verification import bridged_blocks


def zero_element(g, height=1):
    return SemigroupElement(Labeling(g, (0,) * len(g.edges)), height)


def scaled(lab, factor):
    return Labeling(lab.graph, tuple(factor * x for x in lab.labels))


def hub_labeling():
    """A hub c joined to one vertex t of each of three triangles t u w,
    labeled 2 on uw and 1 elsewhere: magic of index 3.  Deleting c
    leaves three odd components, so the graph has no perfect matching,
    no labeling of index 1, and no sum of index-2 labelings is odd."""
    vertices, edges, labels = ["c"], [], []
    for i in range(3):
        t, u, w = f"t{i}", f"u{i}", f"w{i}"
        vertices += [t, u, w]
        edges += [("c", t), (t, u), (t, w), (u, w)]
        labels += [1, 1, 1, 2]
    return Labeling(build_graph(vertices, edges), tuple(labels))


class TestValidation:
    def test_p_height_below_max_rejected(self):
        with pytest.raises(ValueError):
            validate_element(make_gn(3), "P", SemigroupElement(lstar(3), 1))

    def test_other_graph_rejected(self):
        with pytest.raises(ValueError, match="element belongs to a different graph"):
            validate_element(make_gn(3), "P", SemigroupElement(lstar(4), 3))

    def test_q_height_must_equal_index(self):
        with pytest.raises(ValueError):
            validate_element(make_gn(3), "Q", SemigroupElement(lstar(3), 2))
        validate_element(make_gn(3), "Q", SemigroupElement(lstar(3), 3))

    @pytest.mark.parametrize("height", [2.5, 2.0, "2", None])
    def test_height_must_be_an_integer(self, height):
        with pytest.raises(ValueError):
            SemigroupElement(lstar(3), height)

    def test_non_magic_rejected(self):
        g = make_gn(2)
        bad = Labeling(g, (1, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            validate_element(g, "P", SemigroupElement(bad, 1))


class TestCfElements:
    def test_two_loops_p(self):
        got = {(e.labeling.labels, e.height) for e in cf_elements(bouquet(2), "P")}
        assert got == {((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1)}

    def test_two_loops_q(self):
        got = {(e.labeling.labels, e.height) for e in cf_elements(bouquet(2), "Q")}
        assert got == {((0, 1), 1), ((1, 0), 1)}

    def test_gn_p_elements(self):
        for n in range(2, 6):
            got = {(e.labeling.labels, e.height) for e in cf_elements(make_gn(n), "P")}
            expected = {((0,) * (3 * n), 1), (lstar(n).labels, n - 1)}
            for i in range(1, n + 1):
                expected.add((li_matching(n, i).labels, 1))
            assert got == expected

    def test_g3_q_elements_are_matchings(self):
        got = {(e.labeling.labels, e.height) for e in cf_elements(make_gn(3), "Q")}
        expected = {(li_matching(3, i).labels, 1) for i in range(1, 4)}
        assert got == expected

    def test_heights_lcm_equals_denominator(self):
        for g in [make_gn(2), make_gn(3), make_gn(4), bouquet(2), cycle_graph(5)]:
            elems = cf_elements(g, "P")
            assert heights_lcm(elems) == polytope_denominator(g, "P")

    def test_q_heights_small_and_bipartite_one(self):
        graphs = [
            make_gn(2),
            make_gn(3),
            bouquet(2),
            cycle_graph(3),
            cycle_graph(5),
            cycle_graph(6),
            path_graph(2),
            bridged_blocks(),
        ]
        for g in graphs:
            elems = cf_elements(g, "Q")
            for e in elems:
                assert e.height <= 2
                if is_bipartite(g) is not None:
                    assert e.height == 1


class TestFundamentalityOracle:
    def test_lstar_with_tight_height_unrefuted(self):
        g = make_gn(3)
        verdict = verify_completely_fundamental(
            g, "P", SemigroupElement(lstar(3), 2), 3
        )
        assert not verdict.refuted

    def test_zero_labeling_height_one_unrefuted(self):
        verdict = verify_completely_fundamental(
            make_gn(3), "P", zero_element(make_gn(3)), 5
        )
        assert not verdict.refuted

    def test_lstar_with_slack_height_refuted(self):
        g = make_gn(3)
        verdict = verify_completely_fundamental(
            g, "P", SemigroupElement(lstar(3), 3), 1
        )
        assert verdict.refuted and verdict.m == 1
        # the witness parts must really sum to the element
        total = tuple(
            b + c for b, c in zip(verdict.b.labeling.labels, verdict.c.labeling.labels)
        )
        assert total == lstar(3).labels
        assert verdict.b.height + verdict.c.height == 3

    def test_lstar_slack_refuted_for_all_small_n(self):
        for n in range(2, 5):
            verdict = verify_completely_fundamental(
                make_gn(n), "P", SemigroupElement(lstar(n), n), 1
            )
            assert verdict.refuted

    def test_cf_outputs_unrefuted(self):
        for g in [make_gn(2), make_gn(3), make_gn(4), bouquet(2)]:
            for elem in cf_elements(g, "P"):
                assert not verify_completely_fundamental(g, "P", elem, 3).refuted

    def test_q_kind_oracle(self):
        g = cycle_graph(3)
        (elem,) = cf_elements(g, "Q")
        assert elem.height == 2
        assert not verify_completely_fundamental(g, "Q", elem, 3).refuted
        doubled = SemigroupElement(
            Labeling(g, tuple(2 * x for x in elem.labeling.labels)), 4
        )
        assert verify_completely_fundamental(g, "Q", doubled, 1).refuted

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError):
            verify_completely_fundamental(make_gn(2), "P", zero_element(make_gn(2), 0), 1)

    def test_exact_minimal_budget(self):
        # The budget caps each (m, h) box's search on its own; the largest
        # box search for lstar(3) at height 2 up to m = 3 offers 24 label
        # values.
        g = make_gn(3)
        elem = SemigroupElement(lstar(3), 2)
        assert not verify_completely_fundamental(g, "P", elem, 3, budget=24).refuted
        with pytest.raises(BudgetExceededError) as err:
            verify_completely_fundamental(g, "P", elem, 3, budget=23)
        assert (err.value.phase, err.value.consumed, err.value.budget) == ("search", 24, 23)

    def test_gn8_lstar_is_searched_by_height(self):
        # The magic b <= m * lstar(8), m <= 4, number 462,978.  Only the
        # heights up to m * 7 / 2 are searched (box H - h holds box h's
        # complements): 8 labelings in 38 of the 74 boxes, in milliseconds.
        g = make_gn(8)
        verdict = verify_completely_fundamental(g, "P", SemigroupElement(lstar(8), 7), 4)
        assert not verdict.refuted


class TestDecomposeOverGenerators:
    def test_documented_combination(self):
        g = make_gn(3)
        u = (2, 1, 1)
        s = sum(u)
        labels = tuple(s - u[j] for j in range(3)) + u + u
        elem = SemigroupElement(Labeling(g, labels), max(labels))
        result = decompose_over_generators(elem, cf_elements(g, "P"))
        assert result is not None
        flat = {(k.labeling.labels, k.height): v for k, v in result.items()}
        assert flat == {
            (li_matching(3, 1).labels, 1): 1,
            (lstar(3).labels, 2): 1,
        }

    def test_absent_when_heights_cannot_match(self):
        g = make_gn(4)
        gens = [SemigroupElement(li_matching(4, i), 1) for i in range(1, 5)]
        gens.append(zero_element(g))
        assert decompose_over_generators(SemigroupElement(lstar(4), 3), gens) is None

    def test_zero_multiples(self):
        g = make_gn(3)
        result = decompose_over_generators(zero_element(g, 2), [zero_element(g, 1)])
        assert list(result.items())[0][1] == 2

    def test_many_generators_do_not_recurse(self):
        # 1,499 levels: only the last generator, at height 1, fits.
        lab = Labeling(cycle_graph(4), (1, 1, 1, 1))
        gens = [SemigroupElement(lab, h) for h in range(1, 1500)]
        result = decompose_over_generators(SemigroupElement(lab, 1), gens)
        assert result == Counter({SemigroupElement(lab, 1): 1})

    def test_mixed_graphs_rejected(self):
        with pytest.raises(ValueError):
            decompose_over_generators(
                zero_element(make_gn(2), 1), [zero_element(make_gn(3), 1)]
            )

    def test_generators_span_everything_small(self):
        # every bounded magic labeling lifts to (L, max) + slack copies of
        # the zero generator and decomposes over the fundamental list
        for n in range(2, 4):
            g = make_gn(n)
            gens = cf_elements(g, "P")
            for k in range(5):
                for lab in enumerate_magic_k(g, k):
                    elem = SemigroupElement(lab, max_label(lab))
                    assert decompose_over_generators(elem, gens) is not None


class TestStanleyDecompose:
    def test_all_ones_on_six_cycle(self):
        pieces = stanley_decompose(lstar(2))
        assert sorted(p.labels for p in pieces) == sorted(
            [li_matching(2, 1).labels, li_matching(2, 2).labels]
        )

    def test_lstar3_splits_into_matchings(self):
        pieces = stanley_decompose(lstar(3))
        assert sorted(p.labels for p in pieces) == sorted(
            li_matching(3, i).labels for i in range(1, 4)
        )

    def test_zero_gives_empty_list(self):
        g = make_gn(3)
        assert stanley_decompose(Labeling(g, (0,) * 9)) == []

    def test_non_magic_rejected(self):
        g = make_gn(2)
        with pytest.raises(ValueError):
            stanley_decompose(Labeling(g, (1, 0, 0, 0, 0, 0)))

    def test_undecomposable_labeling_rejected(self):
        lab = hub_labeling()
        assert is_magic(lab) == 3
        assert is_bipartite(lab.graph) is None
        assert perfect_matchings(lab.graph) == []
        with pytest.raises(ValueError, match="no decomposition"):
            stanley_decompose(lab)
        # Doubled, it is a sum of index-2 pieces.
        pieces = stanley_decompose(scaled(lab, 2))
        assert [is_magic(p) for p in pieces] == [2, 2, 2]

    def test_a_repeated_piece_is_one_object(self):
        pieces = stanley_decompose(scaled(lstar(3), 4))
        assert len(pieces) == 12
        assert len({id(p) for p in pieces}) == len({p.labels for p in pieces}) < 12

    def test_odd_cycle_uses_index_two_pieces(self):
        g = cycle_graph(3)
        pieces = stanley_decompose(Labeling(g, (2, 2, 2)))
        assert [p.labels for p in pieces] == [(1, 1, 1), (1, 1, 1)]
        assert all(is_magic(p) == 2 for p in pieces)

    def test_pieces_sum_and_have_small_index(self):
        graphs = [make_gn(2), make_gn(3), bouquet(2), cycle_graph(5), cycle_graph(6)]
        for g in graphs:
            bipartite = is_bipartite(g) is not None
            for k in range(4):
                for lab in enumerate_index_k(g, k):
                    pieces = stanley_decompose(lab)
                    total = [0] * len(g.edges)
                    for p in pieces:
                        idx = is_magic(p)
                        assert idx in (1, 2)
                        if bipartite:
                            assert idx == 1
                        total = [a + b for a, b in zip(total, p.labels)]
                    assert tuple(total) == lab.labels

    def test_index_one_pieces_are_perfect_matchings(self):
        g = make_gn(3)
        matchings = {
            tuple(sorted(i for i, x in enumerate(li_matching(3, j).labels) if x))
            for j in range(1, 4)
        }
        assert matchings == set(perfect_matchings(g))
        for lab in enumerate_index_k(g, 3):
            for p in stanley_decompose(lab):
                support = tuple(sorted(i for i, x in enumerate(p.labels) if x))
                assert support in matchings


    def test_large_index_does_not_hit_the_recursion_limit(self):
        # lstar(3) scaled to index 2,100: a search taking one piece per
        # level would be 2,100 levels deep
        lab = scaled(lstar(3), 700)
        pieces = stanley_decompose(lab)
        assert len(pieces) == 2100
        total = [sum(col) for col in zip(*(p.labels for p in pieces))]
        assert tuple(total) == lab.labels
        matchings = set(perfect_matchings(lab.graph))
        for p in pieces:
            assert is_magic(p) == 1 and set(p.labels) <= {0, 1}
            assert tuple(i for i, x in enumerate(p.labels) if x) in matchings

    def test_budget_caps_the_counts_tried(self):
        # 7 = 3·2 + 1 fails at the last vector, so the search tries
        # 3 and 0, then 2 and 1: four counts.
        vecs, target = [_sparse((2,)), _sparse((3,))], (7,)
        for budget in range(4):
            with pytest.raises(BudgetExceededError) as err:
                _combination(vecs, target, budget)
            assert (err.value.phase, err.value.consumed) == (
                "Stanley extraction",
                budget + 1,
            )
        assert _combination(vecs, target, 4) == [2, 1]
        assert _combination(vecs, (1,), None) is None

    def test_a_repeated_labeling_reuses_its_pool(self):
        lab = scaled(lstar(3), 2)
        _pool.cache_clear()
        first = stanley_decompose(lab)
        second = stanley_decompose(lab)
        info = _pool.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first == second
        assert len(first) == 6

    def test_gn5_searches_one_pool_per_key(self):
        # The 2,001 labelings of gn(5) of index 1-9 have 31 distinct
        # supports, min(lab, 1) on this bipartite graph; each pool is
        # searched once and reused after.
        g = make_gn(5)
        labs = [lab for k in range(1, 10) for lab in enumerate_index_k(g, k)]
        _pool.cache_clear()
        for lab in labs:
            stanley_decompose(lab)
        info = _pool.cache_info()
        assert (len(labs), info.misses, info.hits) == (2001, 31, 1970)

    def test_pieces_from_the_memo_live_on_an_equal_graph(self):
        # Two equal gn(4) objects share pools, so a piece may carry the
        # other object as its graph; it is equal all the same.
        graphs = make_gn(4), make_gn(4)
        assert graphs[0] == graphs[1] and graphs[0] is not graphs[1]
        _pool.cache_clear()
        for g in graphs:
            for lab in enumerate_index_k(g, 3):
                pieces = stanley_decompose(lab)
                assert pieces
                for piece in pieces:
                    assert piece == Labeling(lab.graph, piece.labels)
                    assert piece.graph == lab.graph
                assert stanley_decompose(lab) == pieces
        with pytest.raises(ValueError, match="no decomposition"):
            stanley_decompose(hub_labeling())

    def test_a_pool_search_over_budget_raises_every_time(self):
        # The pool at budget None is memoised, but not for budget 5, and
        # a budget error is not cached: each call searches and raises.
        lab = scaled(lstar(3), 700)
        _pool.cache_clear()
        assert len(stanley_decompose(lab)) == 2100
        for _ in range(2):
            with pytest.raises(BudgetExceededError) as err:
                stanley_decompose(lab, budget=5)
            assert (err.value.phase, err.value.consumed) == ("search", 6)
        info = _pool.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 1)


class TestCertify:
    def test_single_edge_polynomial(self):
        cert = certify_small_quasiperiod(path_graph(2))
        assert cert.verdict == "polynomial"
        assert cert.forced_edge == ("v1", "v2")
        assert not cert.vacuous

    def test_bridged_blocks_polynomial(self):
        cert = certify_small_quasiperiod(bridged_blocks())
        assert cert.verdict == "polynomial"

    def test_gn4_has_no_certificate(self):
        assert certify_small_quasiperiod(make_gn(4)).verdict == "no_certificate"

    def test_vacuous_on_odd_path(self):
        cert = certify_small_quasiperiod(path_graph(3))
        assert cert.verdict == "polynomial" and cert.vacuous

    def test_non_bipartite_with_forced_edge(self):
        # a triangle's only index-2 labeling is all ones, so every edge is
        # forced; the graph is odd, hence the weaker verdict
        cert = certify_small_quasiperiod(cycle_graph(3))
        assert cert.verdict == "quasiperiod_le_2"
        assert not cert.bipartite
