"""Randomised differential tests against brute force.

The labeling search is checked against filtered label cubes, its floors
against filtering, the vertex enumeration against the subset scan, the
CF elements against the scaled vertices, the preclusion class against
brute-force matchings, the index each search solution is reported with
against the magic test, the counting DP against the labeling search, the
height-box CF oracle against a full enumeration of every decomposition
and its half-height search against every height box, the generator
decomposition's explicit stack against a recursive search, and the
Stanley extraction's failures against the generator decomposition.
Graphs are small (at most 5 vertices and 7 edges where a label cube is
filtered in full) with loops, parallel loops and isolated vertices.
Examples are derandomised, so each run tries the same graphs.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from magiclab import (
    CFVerdict,
    Graph,
    Labeling,
    SemigroupElement,
    cf_elements,
    count_index_k,
    count_magic_k,
    count_series,
    decompose_over_generators,
    enumerate_index_k,
    enumerate_magic_bounded,
    enumerate_magic_k,
    is_bipartite,
    is_magic,
    lstar,
    make_gn,
    matching_preclusion_class,
    max_label,
    path_graph,
    perfect_matchings,
    point_denominator,
    polytope_dimension,
    polytope_vertices,
    stanley_decompose,
    verify_completely_fundamental,
)
from magiclab.labelings import _count, _labelings
from magiclab.semigroups import _is_multiple, validate_element
from test_geometry import brute_vertices, rref
from test_graphs import brute_perfect_matchings
from test_semigroups import hub_labeling

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 5))
    vs = tuple(f"v{i}" for i in range(n))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=7)) if n else []
    edges, seen = [], set()
    for a, b in pairs:
        key = frozenset((a, b))
        if a != b and key in seen:
            continue  # Graph allows parallel loops but not parallel edges
        seen.add(key)
        edges.append((vs[a], vs[b]))
    return Graph(vs, tuple(edges))


@st.composite
def loop_graphs(draw, max_vertices=7):
    """Up to 7 vertices, 9 distinct links and 2 loops per vertex."""
    n = draw(st.integers(0, max_vertices))
    vs = tuple(f"v{i}" for i in range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = []
    if pairs:
        links = draw(st.lists(st.sampled_from(pairs), max_size=9, unique=True))
    loops = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    edges = [(vs[a], vs[b]) for a, b in links]
    edges += [(v, v) for v, c in zip(vs, loops) for _ in range(c)]
    return Graph(vs, tuple(edges))


@st.composite
def graphs_with_caps(draw):
    g = draw(small_graphs())
    m = len(g.edges)
    return g, draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))


@st.composite
def graphs_with_bounds(draw):
    """Caps with floors: all at most their caps, or one just above."""
    g, caps = draw(graphs_with_caps())
    floors = [draw(st.integers(0, c)) for c in caps]
    if caps and draw(st.booleans()):
        e = draw(st.integers(0, len(caps) - 1))
        floors[e] = caps[e] + 1
    return g, caps, floors


def brute_indices(g, caps):
    """The index of every magic labeling in the cube, keyed by labels."""
    out = {}
    for combo in itertools.product(*(range(c + 1) for c in caps)):
        idx = is_magic(Labeling(g, combo))
        if idx is not None:
            out[combo] = idx
    return out


@SETTINGS
@given(graphs_with_caps())
def test_bounded_enumeration_matches_brute_force(gc):
    g, caps = gc
    found = [lab.labels for lab in enumerate_magic_bounded(g, caps)]
    assert len(found) == len(set(found))
    assert set(found) == set(brute_indices(g, caps))


@SETTINGS
@given(graphs_with_bounds())
@example((Graph((), ()), [], []))
def test_floors_filter_the_bounded_enumeration(gcf):
    g, caps, floors = gcf
    found = [lab.labels for lab in enumerate_magic_bounded(g, caps, floors=floors)]
    want = [
        lab.labels
        for lab in enumerate_magic_bounded(g, caps)
        if all(x >= f for x, f in zip(lab.labels, floors))
    ]
    assert len(found) == len(set(found))
    assert set(found) == set(want)
    if any(f > c for f, c in zip(floors, caps)):
        assert found == []


@SETTINGS
@given(small_graphs(), st.integers(0, 2))
def test_counts_match_brute_force(g, k):
    indices = brute_indices(g, [k] * len(g.edges))
    assert count_magic_k(g, k) == len(indices)
    assert count_index_k(g, k) == sum(1 for idx in indices.values() if idx == k)


@SETTINGS
@given(small_graphs())
def test_perfect_matchings_match_brute_force(g):
    for loops_cover in (True, False):
        assert perfect_matchings(g, loops_cover=loops_cover) == (
            brute_perfect_matchings(g, loops_cover=loops_cover)
        )


# "one" exactly when the loop-free perfect matchings share an edge; both
# graphs of the examples have a loop that a loop-covering reading would
# count.
@settings(SETTINGS, max_examples=300)
@given(small_graphs())
@example(Graph(("a", "b"), (("a", "b"), ("a", "a"), ("b", "b"))))
@example(Graph(("a", "b", "c"), (("a", "b"), ("c", "c"))))
def test_preclusion_class_matches_brute_force(g):
    found = brute_perfect_matchings(g, loops_cover=False)
    if not found:
        want = "no_pm"
    elif set.intersection(*map(set, found)):
        want = "one"
    else:
        want = "greater_than_one"
    assert matching_preclusion_class(g) == want


def affine_rank(points):
    """Dimension of the affine hull of ``points``; -1 when there are none."""
    if not points:
        return -1
    first = points[0]
    diffs = [[a - b for a, b in zip(p, first)] for p in points[1:]]
    return len(rref(diffs, len(first))[1])


# Graphs on which a ray pair passes the zero-count bound without being
# adjacent first show up after about 180 examples.  The graph with no
# vertices and one with an empty Q polytope always run.
@settings(SETTINGS, max_examples=300)
@given(small_graphs())
@example(Graph((), ()))
@example(path_graph(3))
def test_vertices_match_the_subset_scan(g):
    for kind in "PQ":
        want = brute_vertices(g, kind)  # None past 2,000 subsets
        if want is not None:
            assert polytope_vertices(g, kind) == want
            assert polytope_dimension(g, kind) == affine_rank(want)


# CF elements against the route they replaced: each vertex scaled by its
# denominator.
@SETTINGS
@given(loop_graphs(max_vertices=4))
def test_cf_elements_are_the_scaled_vertices(g):
    for kind in "PQ":
        want = []
        for v in polytope_vertices(g, kind):
            d = point_denominator(v)
            want.append((d, tuple(int(c * d) for c in v)))
        got = [(e.height, e.labeling.labels) for e in cf_elements(g, kind)]
        assert got == sorted(want)


# Each solution of the search comes with the index it was found at.
@SETTINGS
@given(graphs_with_bounds())
def test_search_reports_each_solution_index(gcf):
    g, caps, floors = gcf
    for index, buf in _labelings(g, caps, None, None, floors):
        assert is_magic(Labeling(g, tuple(buf))) == index


# The counting DP against the search it replaced for counting; the graph
# with no vertices and an edgeless graph always run.
@SETTINGS
@given(
    st.one_of(st.just(Graph((), ())), st.just(Graph(("a", "b"), ())), loop_graphs()),
    st.integers(0, 3),
)
def test_counts_match_the_labeling_search(g, k):
    caps = [k] * len(g.edges)
    assert count_magic_k(g, k) == sum(1 for _ in _labelings(g, caps, None, None))
    assert count_index_k(g, k) == sum(1 for _ in _labelings(g, caps, (k,), None))


# The sweep's magic counts are prefix sums of its index counts plus the
# passes the cap binds; each k must still give the per-k counts.
@SETTINGS
@given(
    st.one_of(st.just(Graph((), ())), st.just(Graph(("a", "b"), ())), loop_graphs()),
    st.integers(0, 5),
)
def test_count_series_matches_the_per_k_counts(g, kmax):
    magic, index = count_series(g, kmax)
    assert magic == [count_magic_k(g, k) for k in range(kmax + 1)]
    assert index == [count_index_k(g, k) for k in range(kmax + 1)]


# Non-uniform caps: the DP's pass at each target against the search at
# that index and the filtered cube, with no magic labeling above the
# DP's last target.  Both engines read one step plan, so the cube is
# what catches a wrong bound in it.
@SETTINGS
@given(graphs_with_caps())
def test_counts_match_the_search_under_any_caps(gc):
    g, caps = gc
    counts, _ = _count(g, caps, 0, None, None)
    brute = Counter(brute_indices(g, caps).values())
    assert counts == [brute[t] for t in range(len(counts))]
    assert sum(counts) == sum(brute.values())
    assert counts == [sum(1 for _ in _labelings(g, caps, (t,), None)) for t in range(len(counts))]


# The Q sweep of ehrhart_of_polytope: one call at cap K over the targets
# 0..K runs the passes of count_index_k(g, k) for k <= K, in that order.
@SETTINGS
@given(
    st.one_of(st.just(Graph((), ())), st.just(Graph(("a", "b"), ())), loop_graphs()),
    st.integers(0, 5),
)
def test_one_call_q_sweep_matches_the_index_counts(g, top):
    m = len(g.edges)
    values, used = _count(g, [top] * m, 0, top, None)
    values += [0] * (top + 1 - len(values))
    assert values == [count_index_k(g, k) for k in range(top + 1)]
    assert used == sum(_count(g, [k] * m, k, k, None)[1] for k in range(top + 1))


def decompose_recursive(elem, generators):
    """The generator decomposition as one recursion level per generator."""
    gens = sorted(
        generators, key=lambda e: (e.height, e.labeling.labels), reverse=True
    )
    vecs = [list(gen.labeling.labels) + [gen.height] for gen in gens]

    def search(rem, gi):
        if not any(rem):
            return Counter()
        if gi == len(vecs):
            return None
        vec = vecs[gi]
        top = min((r // v for r, v in zip(rem, vec) if v > 0), default=0)
        for count in range(top, -1, -1):
            sub = search([r - count * v for r, v in zip(rem, vec)], gi + 1)
            if sub is not None:
                if count:
                    sub[gens[gi]] = count
                return sub
        return None

    return search(list(elem.labeling.labels) + [elem.height], 0)


@st.composite
def decomposition_cases(draw):
    """Up to 4 generators with labels and heights 0-2, some listed twice,
    and an element that is either a combination of them or drawn freely."""
    g = draw(small_graphs())
    m = len(g.edges)
    vec = st.lists(st.integers(0, 2), min_size=m + 1, max_size=m + 1)
    vecs = draw(st.lists(vec, max_size=4))
    if vecs:
        vecs += draw(st.lists(st.sampled_from(vecs), max_size=2))
    if vecs and draw(st.booleans()):
        mults = draw(st.lists(st.integers(0, 2), min_size=len(vecs), max_size=len(vecs)))
        total = [sum(c * v[i] for c, v in zip(mults, vecs)) for i in range(m + 1)]
    else:
        total = draw(vec)
    gens = [SemigroupElement(Labeling(g, v[:m]), v[m]) for v in vecs]
    return SemigroupElement(Labeling(g, total[:m]), total[m]), gens


@SETTINGS
@given(decomposition_cases())
@example(
    (
        SemigroupElement(Labeling(Graph(("a",), (("a", "a"),)), (2,)), 2),
        [SemigroupElement(Labeling(Graph(("a",), (("a", "a"),)), (1,)), 1)] * 2,
    )
)
def test_decomposition_matches_the_recursive_search(case):
    elem, gens = case
    got, want = decompose_over_generators(elem, gens), decompose_recursive(elem, gens)
    assert got == want
    if got is not None:
        assert list(got.items()) == list(want.items())


def full_oracle(g, kind, elem, m_max):
    """The CF oracle before height boxes: every magic b <= m * elem, and
    for kind P every height from max(b) to m * height - max(c)."""
    validate_element(g, kind, elem)
    for m in range(1, m_max + 1):
        total = [m * x for x in elem.labeling.labels]
        total_h = m * elem.height
        for b_lab in enumerate_magic_bounded(g, total):
            c_labels = tuple(t - x for t, x in zip(total, b_lab.labels))
            if kind == "P":
                lo, hi = max_label(b_lab), total_h - max(c_labels, default=0)
                heights = range(lo, hi + 1)
            else:
                idx = is_magic(b_lab)
                heights = [idx] if idx <= total_h else []
            for h_b in heights:
                if not _is_multiple(b_lab.labels, h_b, elem):
                    return CFVerdict(
                        refuted=True,
                        m_max=m_max,
                        m=m,
                        b=SemigroupElement(b_lab, h_b),
                        c=SemigroupElement(Labeling(g, c_labels), total_h - h_b),
                    )
    return CFVerdict(refuted=False, m_max=m_max)


@st.composite
def oracle_cases(draw):
    """A semigroup element on a loop graph with at most 4 vertices: a
    magic labeling with labels at most 2, at its index for Q and at its
    maximum label plus a slack of 0-2 for P."""
    g = draw(loop_graphs(max_vertices=4))
    kind = draw(st.sampled_from("PQ"))
    lab = draw(st.sampled_from(enumerate_magic_k(g, 2)))
    if kind == "P":
        height = max_label(lab) + draw(st.integers(0, 2))
    else:
        height = is_magic(lab)
    assume(height or any(lab.labels))  # the zero element is rejected
    return g, kind, SemigroupElement(lab, height), draw(st.integers(1, 3))


def every_height_oracle(g, kind, elem, m_max):
    """The height-box CF oracle with every P box h = 0 .. m * height
    searched, not only h <= m * height / 2."""
    validate_element(g, kind, elem)
    for m in range(1, m_max + 1):
        total = [m * x for x in elem.labeling.labels]
        total_h = m * elem.height
        if kind == "P":
            boxes = [
                (h, [min(t, h) for t in total], [max(0, t - (total_h - h)) for t in total])
                for h in range(total_h + 1)
            ]
        else:
            boxes = [(None, total, None)]
        for h, caps, floors in boxes:
            for b_lab in enumerate_magic_bounded(g, caps, floors=floors):
                h_b = is_magic(b_lab) if h is None else h
                if not _is_multiple(b_lab.labels, h_b, elem):
                    c_labels = tuple(t - x for t, x in zip(total, b_lab.labels))
                    return CFVerdict(
                        refuted=True,
                        m_max=m_max,
                        m=m,
                        b=SemigroupElement(b_lab, h_b),
                        c=SemigroupElement(Labeling(g, c_labels), total_h - h_b),
                    )
    return CFVerdict(refuted=False, m_max=m_max)


# Box H - h holds the complements of box h, so the least-height witness
# lies at h <= H / 2: the whole verdict, witnesses included, must match.
@SETTINGS
@given(oracle_cases())
def test_half_height_boxes_match_every_height(case):
    assert verify_completely_fundamental(*case) == every_height_oracle(*case)


@pytest.mark.parametrize("kind", "PQ")
@pytest.mark.parametrize("n", range(2, 6))
def test_half_height_boxes_match_every_height_on_lstar(n, kind):
    case = (make_gn(n), kind, SemigroupElement(lstar(n), n), 3)
    assert verify_completely_fundamental(*case) == every_height_oracle(*case)


# The boxes search each (m, height of b) on its own, so a witness is now
# the first in height order and may differ from the full oracle's, which
# went in label order; the verdict and m may not.
@SETTINGS
@given(oracle_cases())
def test_height_boxes_match_the_full_oracle(case):
    g, kind, elem, m_max = case
    want = full_oracle(g, kind, elem, m_max)
    got = verify_completely_fundamental(g, kind, elem, m_max)
    assert (got.refuted, got.m) == (want.refuted, want.m)
    if got.refuted:
        validate_element(g, kind, got.b)
        validate_element(g, kind, got.c)
        assert [x + y for x, y in zip(got.b.labeling.labels, got.c.labeling.labels)] == [
            got.m * x for x in elem.labeling.labels
        ]
        assert got.b.height + got.c.height == got.m * elem.height
        assert not _is_multiple(got.b.labeling.labels, got.b.height, elem)


@st.composite
def stanley_cases(draw):
    """A magic labeling of index 1-3 on a loop graph or the hub graph.
    Index 3 is the least at which a labeling can have no decomposition;
    at index 4 the loop graphs have too many labelings to draw from."""
    g = draw(st.one_of(st.just(hub_labeling().graph), loop_graphs()))
    labs = enumerate_index_k(g, draw(st.integers(1, 3)))
    assume(labs)
    return draw(st.sampled_from(labs))


# Whether a decomposition exists, decided by the generator decomposition
# over every allowed piece: the elements (piece, index) of the index
# semigroup with the piece at most min(lab, 2), of index 1 or 2 (only 1
# on a bipartite graph).
@SETTINGS
@given(stanley_cases())
@example(hub_labeling())
def test_stanley_fails_exactly_when_no_decomposition_exists(lab):
    g = lab.graph
    allowed = (1,) if is_bipartite(g) is not None else (1, 2)
    caps = [min(x, 2) for x in lab.labels]
    gens = [
        SemigroupElement(p, is_magic(p))
        for p in enumerate_magic_bounded(g, caps)
        if is_magic(p) in allowed
    ]
    exists = decompose_over_generators(SemigroupElement(lab, is_magic(lab)), gens)
    try:
        pieces = stanley_decompose(lab)
    except ValueError as err:
        assert "no decomposition" in str(err)
        assert exists is None
    else:
        assert exists is not None
        assert [sum(col) for col in zip(*(p.labels for p in pieces))] == list(lab.labels)
