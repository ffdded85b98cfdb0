"""Graph model, constructions, and matching structure."""

import itertools
import random

import networkx as nx
import pytest

from magiclab import (
    BudgetExceededError,
    Graph,
    bouquet,
    build_graph,
    cycle_graph,
    enumerate_index_k,
    forced_max_edge,
    graph_from_json,
    graph_hash,
    graph_to_json,
    has_perfect_matching,
    is_bipartite,
    leaves,
    make_gn,
    make_gnp,
    matching_preclusion_class,
    path_graph,
    perfect_matchings,
    li_matching,
    vertex_sum,
)


def brute_perfect_matchings(g, loops_cover=True):
    """Independent oracle: try every edge subset."""
    out = []
    for size in range(len(g.edges) + 1):
        for combo in itertools.combinations(range(len(g.edges)), size):
            hits = {v: 0 for v in g.vertices}
            for ei in combo:
                u, w = g.edges[ei]
                if u == w and not loops_cover:
                    break
                hits[u] += 1
                if w != u:
                    hits[w] += 1
            else:
                if all(c == 1 for c in hits.values()):
                    out.append(tuple(sorted(combo)))
    return sorted(out)


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def triangle():
    return build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def two_triangles_bridged():
    return build_graph(
        ["p1", "p2", "p3", "q1", "q2", "q3"],
        [
            ("p1", "p2"),
            ("p2", "p3"),
            ("p1", "p3"),
            ("q1", "q2"),
            ("q2", "q3"),
            ("q1", "q3"),
            ("p1", "q1"),
        ],
    )


def random_tree(rng, n):
    """Decode a random Pruefer sequence into a tree on n vertices."""
    if n == 1:
        return Graph(("v0",), ())
    if n == 2:
        return path_graph(2)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaf_heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaf_heap)
    for x in seq:
        leaf = heapq.heappop(leaf_heap)
        edges.append((f"v{leaf}", f"v{x}"))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u, w = sorted(leaf_heap)
    edges.append((f"v{u}", f"v{w}"))
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(edges))


class TestBuildGraph:
    def test_duplicate_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["v"], [("v", "v"), ("v", "v")])

    def test_single_loop(self):
        g = build_graph(["v"], [("v", "v")])
        assert len(g.vertices) == 1 and len(g.edges) == 1

    def test_g1_shape_by_hand(self):
        g = build_graph(["a1", "b1", "x", "y"], [("a1", "b1"), ("x", "a1"), ("y", "b1")])
        assert g.degrees == {"a1": 2, "b1": 2, "x": 1, "y": 1}

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["v", "v"], [])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["a"], [("a", "b")])

    def test_duplicate_edge_rejected_both_orders(self):
        with pytest.raises(ValueError):
            build_graph(["a", "b"], [("a", "b"), ("b", "a")])

    def test_edge_order_is_input_order(self):
        g = build_graph(["a", "b", "c"], [("b", "c"), ("a", "b")])
        assert g.edges == (("b", "c"), ("a", "b"))

    def test_bouquet_allows_parallel_loops(self):
        g = bouquet(2)
        assert g.edges == (("v", "v"), ("v", "v"))


class TestFamilies:
    def test_gn_sizes(self):
        g = make_gn(2)
        assert len(g.vertices) == 6 and len(g.edges) == 6
        g = make_gn(4)
        assert len(g.vertices) == 10 and len(g.edges) == 12

    def test_gn_requires_two_channels(self):
        with pytest.raises(ValueError):
            make_gn(1)

    def test_gn_edge_order(self):
        g = make_gn(3)
        assert g.edges[:3] == (("a1", "b1"), ("a2", "b2"), ("a3", "b3"))
        assert g.edges[3:6] == (("x", "a1"), ("x", "a2"), ("x", "a3"))
        assert g.edges[6:] == (("y", "b1"), ("y", "b2"), ("y", "b3"))

    def test_gnp_p1_matches_gn_shape(self):
        g = make_gnp(2, 1)
        assert len(g.vertices) == 6 and len(g.edges) == 6
        assert sorted(g.degrees.values()) == [2, 2, 2, 2, 2, 2]
        assert is_bipartite(g) is not None

    def test_gnp_sizes(self):
        # 2 hubs plus 2p internal vertices per path; (2p+1) edges per path
        g = make_gnp(2, 2)
        assert len(g.vertices) == 10 and len(g.edges) == 10
        g = make_gnp(3, 2)
        assert len(g.vertices) == 14 and len(g.edges) == 15

    def test_gnp_parameter_validation(self):
        with pytest.raises(ValueError):
            make_gnp(1, 1)
        with pytest.raises(ValueError):
            make_gnp(2, 0)

    def test_gnp_is_n_disjoint_paths(self):
        g = make_gnp(3, 2)
        assert g.degrees["x"] == 3 and g.degrees["y"] == 3
        internal = [v for v in g.vertices if v not in ("x", "y")]
        assert all(g.degrees[v] == 2 for v in internal)


class TestBipartite:
    def test_gn_coloring_splits_hubs(self):
        coloring = is_bipartite(make_gn(3))
        assert coloring is not None
        assert coloring["x"] != coloring["a1"]
        assert coloring["a1"] != coloring["b1"]

    def test_triangle_not_bipartite(self):
        assert is_bipartite(triangle()) is None

    def test_loop_not_bipartite(self):
        assert is_bipartite(build_graph(["v"], [("v", "v")])) is None

    def test_certificate_is_proper(self):
        for g in [make_gn(4), cycle_graph(8), path_graph(5), make_gnp(3, 2)]:
            coloring = is_bipartite(g)
            assert coloring is not None
            for u, w in g.edges:
                assert coloring[u] != coloring[w]

    def test_against_networkx_on_random_graphs(self):
        rng = random.Random(20240817)
        for _ in range(60):
            n = rng.randrange(2, 12)
            vs = [f"v{i}" for i in range(n)]
            edges = []
            for u, w in itertools.combinations(vs, 2):
                if rng.random() < 0.25:
                    edges.append((u, w))
            if rng.random() < 0.2:
                edges.append((vs[0], vs[0]))
            g = build_graph(vs, edges)
            assert (is_bipartite(g) is not None) == nx.is_bipartite(to_networkx(g))


class TestLeaves:
    def test_path(self):
        g = path_graph(3)
        assert leaves(g) == [("v1", ("v1", "v2")), ("v3", ("v2", "v3"))]

    def test_gn_has_none(self):
        assert leaves(make_gn(2)) == []

    def test_single_edge(self):
        g = path_graph(2)
        assert leaves(g) == [("v1", ("v1", "v2")), ("v2", ("v1", "v2"))]

    def test_loop_vertex_is_not_a_leaf(self):
        assert leaves(bouquet(1)) == []


class TestPerfectMatchings:
    def test_gn_matchings_are_the_channel_matchings(self):
        for n in range(2, 7):
            g = make_gn(n)
            got = sorted(perfect_matchings(g))
            expected = sorted(
                tuple(i for i, x in enumerate(li_matching(n, j).labels) if x)
                for j in range(1, n + 1)
            )
            assert got == expected

    def test_odd_path_has_none(self):
        assert perfect_matchings(path_graph(3)) == []

    def test_six_cycle_has_two(self):
        assert len(perfect_matchings(cycle_graph(6))) == 2

    def test_against_subset_oracle(self):
        graphs = [
            cycle_graph(6),
            path_graph(4),
            make_gn(2),
            triangle(),
            bouquet(2),
            build_graph(["a", "b", "c"], [("a", "b"), ("c", "c")]),
        ]
        for g in graphs:
            assert sorted(perfect_matchings(g)) == brute_perfect_matchings(g)
            assert sorted(perfect_matchings(g, loops_cover=False)) == (
                brute_perfect_matchings(g, loops_cover=False)
            )

    def test_every_matching_covers_each_vertex_once(self):
        for g in [make_gn(3), cycle_graph(8), bouquet(2), make_gnp(2, 2)]:
            for matching in perfect_matchings(g):
                hits = {v: 0 for v in g.vertices}
                for ei in matching:
                    u, w = g.edges[ei]
                    hits[u] += 1
                    if w != u:
                        hits[w] += 1
                assert all(c == 1 for c in hits.values())

    def test_loop_covers_its_vertex(self):
        # one loop plus a disjoint edge: the loop must participate
        g = build_graph(["a", "b", "c"], [("a", "b"), ("c", "c")])
        assert perfect_matchings(g) == [(0, 1)]
        assert perfect_matchings(g, loops_cover=False) == []

    def test_empty_graph_has_the_empty_matching(self):
        g = Graph((), ())
        for loops_cover in (True, False):
            assert perfect_matchings(g, loops_cover=loops_cover) == [()]
            assert has_perfect_matching(g, loops_cover=loops_cover)

    def test_isolated_vertex_has_none(self):
        for g in [
            Graph(("a",), ()),
            Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "a"))),
        ]:
            assert perfect_matchings(g) == []
            assert not has_perfect_matching(g)

    def test_long_path_does_not_hit_the_recursion_limit(self):
        g = path_graph(2000)
        assert perfect_matchings(g) == [tuple(range(0, 1999, 2))]
        assert has_perfect_matching(g)

    def test_output_is_sorted(self):
        rng = random.Random(11)
        for _ in range(30):
            vs = [f"v{i}" for i in range(rng.randint(2, 7))]
            pairs = list(itertools.combinations(vs, 2))
            edges = rng.sample(pairs, rng.randint(1, len(pairs)))
            edges += [(v, v) for v in rng.sample(vs, rng.randint(0, 2))]
            rng.shuffle(edges)
            g = Graph(tuple(vs), tuple(edges))
            for loops_cover in (True, False):
                found = perfect_matchings(g, loops_cover=loops_cover)
                assert found == sorted(found)
                assert all(list(m) == sorted(m) for m in found)
                assert has_perfect_matching(g, loops_cover=loops_cover) == bool(found)


class TestMatchingPreclusion:
    def test_single_edge(self):
        assert matching_preclusion_class(path_graph(2)) == "one"

    def test_six_cycle(self):
        assert matching_preclusion_class(cycle_graph(6)) == "greater_than_one"

    def test_two_triangles_bridged(self):
        assert matching_preclusion_class(two_triangles_bridged()) == "one"

    def test_odd_graph(self):
        assert matching_preclusion_class(path_graph(3)) == "no_pm"

    def test_no_matching(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d")])
        assert matching_preclusion_class(g) == "no_pm"

    def test_loops_never_match(self):
        # ab is the one loop-free perfect matching; the loops would give
        # {aa, bb} another under the loop-covering reading.
        g = Graph(("a", "b"), (("a", "b"), ("a", "a"), ("b", "b")))
        assert matching_preclusion_class(g) == "one"
        g = Graph(("a", "b", "c"), (("a", "b"), ("c", "c")))
        assert has_perfect_matching(g)
        assert not has_perfect_matching(g, loops_cover=False)
        assert matching_preclusion_class(g) == "no_pm"

    @pytest.mark.parametrize("n, total", [(4, 117), (8, 603)])
    def test_budget_caps_all_searches_together(self, n, total):
        # gn(8) makes 10 searches of 31, 33, 40, 51, 66, 85, 108, 129, 30
        # and 30 nodes: the budget bounds their sum, not the largest.
        assert matching_preclusion_class(make_gn(n), budget=total) == "greater_than_one"
        with pytest.raises(BudgetExceededError) as err:
            matching_preclusion_class(make_gn(n), budget=total - 1)
        assert (err.value.phase, err.value.consumed) == ("search", total)


    @pytest.mark.parametrize("g", [path_graph(3), Graph((), ())], ids=["odd", "empty"])
    @pytest.mark.parametrize("budget, message", [(1.5, "integers"), (-1, "nonnegative")])
    def test_budget_is_gated_where_no_search_runs(self, g, budget, message):
        # The odd path is "no_pm" and the graph with no vertices has the
        # empty perfect matching, both without a search that counts nodes.
        with pytest.raises(ValueError, match=f"^budget must be {message}$"):
            matching_preclusion_class(g, budget=budget)


class TestForcedMaxEdge:
    def test_single_edge(self):
        g = path_graph(2)
        assert forced_max_edge(g, enumerate_index_k(g, 2)) == ("v1", "v2")

    def test_vacuous_on_odd_path(self):
        g = path_graph(3)
        assert enumerate_index_k(g, 2) == []
        assert forced_max_edge(g, []) == "vacuous"

    def test_none_on_six_cycle(self):
        g = cycle_graph(6)
        index2 = enumerate_index_k(g, 2)
        assert len(index2) == 3
        assert forced_max_edge(g, index2) is None

    def test_rejects_wrong_index(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            forced_max_edge(g, enumerate_index_k(g, 1))

    @pytest.mark.parametrize(
        "g",
        [make_gn(4), cycle_graph(4), path_graph(3)],
        ids=["g4", "cycle4", "path3"],
    )
    def test_an_iterator_gives_the_answer_of_its_list(self, g):
        # The iterator is read once: validating it must not exhaust it.
        index2 = enumerate_index_k(g, 2)
        assert forced_max_edge(g, iter(index2)) == forced_max_edge(g, index2)
        assert forced_max_edge(g, iter([])) == "vacuous"

    def test_leaf_edges_always_attain_max(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_tree(rng, rng.randrange(2, 9))
            index2 = enumerate_index_k(g, 2)
            verdict = forced_max_edge(g, index2)
            assert verdict is not None  # an edge or "vacuous", never none
            for v, edge in leaves(g):
                ei = g.edges.index(edge)
                for lab in index2:
                    assert lab.labels[ei] == max(lab.labels)

    def test_preclusion_one_bipartite_gives_edge(self):
        g = build_graph(
            ["a1", "b1", "c1", "a2", "b2", "c2"],
            [("a1", "b1"), ("b1", "c1"), ("a2", "b2"), ("b2", "c2"), ("a1", "a2")],
        )
        assert matching_preclusion_class(g) == "one"
        assert is_bipartite(g) is not None
        verdict = forced_max_edge(g, enumerate_index_k(g, 2))
        assert isinstance(verdict, tuple)


class TestGraphJson:
    def test_round_trip(self):
        g = make_gn(3)
        assert graph_from_json(graph_to_json(g)) == g

    def test_loop_round_trip(self):
        g = bouquet(2)
        assert graph_from_json(graph_to_json(g)) == g

    def test_hash_distinguishes(self):
        assert graph_hash(make_gn(2)) != graph_hash(make_gn(3))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            graph_from_json('{"vertices": ["a"]}')
        with pytest.raises(ValueError):
            graph_from_json('{"vertices": ["a"], "edges": [["a"]]}')

    def test_rejects_non_string_vertices(self):
        with pytest.raises(ValueError, match="vertices must be a list of strings"):
            graph_from_json('{"vertices": [1], "edges": []}')


def test_vertex_sum_loop_counted_once():
    g = bouquet(2)
    from magiclab import Labeling

    assert vertex_sum(Labeling(g, (1, 0)), "v") == 1
