"""Randomised differential tests against brute force.

The labeling search is checked against filtered label cubes, its floors
against filtering, the vertex enumeration against the subset scan and
against a double description that takes the equations and bounds as
dense rows, the face closures of the coefficient periods against a scan
of every ray's mask, the CF elements against the scaled vertices, the
preclusion class against brute-force matchings, the fraction-free row
reduction against reduction over fractions, the index each search
solution is reported with against the magic test, the search's choice
stack against the walk back one position at a time that it replaced
(solutions, nodes spent and budget errors), the counting DP
against the labeling search and against a tuple-state copy of the DP
that bounds labels by their caps alone, the per-target label bounds
against the search's solutions, the height-box CF oracle against a full
enumeration of every decomposition and its half-height search against
every height box, the generator decomposition's explicit stack against a
recursive search, the combination search over sparse vectors against
the dense search it replaced, and the Stanley extraction's failures
against the generator decomposition.
Graphs are small (at most 5 vertices and 7 edges where a label cube is
filtered in full) with loops, parallel loops and isolated vertices.
Examples are derandomised, so each run tries the same graphs.
"""

import itertools
from collections import Counter
from math import gcd, lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from magiclab import (
    BudgetExceededError,
    CFVerdict,
    Graph,
    Labeling,
    SemigroupElement,
    cf_elements,
    coefficient_periods,
    count_index_k,
    count_magic_k,
    count_series,
    decompose_over_generators,
    ehrhart_of_polytope,
    enumerate_index_k,
    enumerate_magic_bounded,
    enumerate_magic_k,
    is_bipartite,
    is_magic,
    fit_quasipolynomial,
    lstar,
    make_gn,
    make_gnp,
    matching_preclusion_class,
    max_label,
    path_graph,
    perfect_matchings,
    point_denominator,
    polytope_denominator,
    polytope_dimension,
    polytope_vertices,
    stanley_decompose,
    verify_completely_fundamental,
)
from magiclab import geometry
from magiclab.geometry import _combine, _extreme_rays, _polytope_facts, _reduce
from magiclab.labelings import _bounds, _count, _labelings, _steps
from magiclab.semigroups import (
    _combination,
    _is_multiple,
    _pool,
    _sparse,
    validate_element,
)
from test_geometry import brute_vertices, eight_edges, rref
from test_graphs import brute_perfect_matchings
from test_semigroups import hub_labeling
from magiclab.verification import corpus

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


integer_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=6)
)


# The fraction-free Gauss-Jordan reduction spans the same rows as the
# reduction over fractions, and each pivot column is zero but in its row.
@SETTINGS
@given(integer_matrices)
@example([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
def test_reduction_matches_the_fraction_rref(rows):
    n = len(rows[0]) if rows else 1
    reduced = _reduce(rows)
    want, pivots = rref(rows, n)
    assert len(reduced) == len(pivots)
    assert rref(reduced, n)[0] == want[: len(pivots)]
    leads = [next(j for j, c in enumerate(p) if c) for p in reduced]
    assert leads == pivots
    for i, j in enumerate(leads):
        assert [p[j] != 0 for p in reduced] == [k == i for k in range(len(reduced))]


# Graphs on which a ray pair passes the zero-count bound without being
# adjacent first show up after about 180 examples.  The graph with no
# vertices and one with an empty Q polytope always run.
@settings(SETTINGS, max_examples=300)
@given(small_graphs())
@example(Graph((), ()))
@example(path_graph(3))
def test_vertices_match_the_subset_scan(g):
    for kind in "PQ":
        # t = 0 forces x = 0, so the double description finds no ray there.
        assert all(t > 0 for t, *_ in _polytope_facts(g, kind, None)[0])
        want = brute_vertices(g, kind)  # None past 2,000 subsets
        if want is not None:
            assert polytope_vertices(g, kind) == want
            assert polytope_dimension(g, kind) == affine_rank(want)


def reference_extreme_rays(eqs, rows, n):
    """The double description from the identity basis of the whole space,
    each equation a row that cuts it, and every lineality vector and ray
    projected into the hyperplane of each row that cuts the lineality
    space.  Returns the rays with their zero-set masks, and the pair tests.
    """
    lin = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays = []
    used = cuts = 0
    for i, a in enumerate([*eqs, *rows], -len(eqs)):
        bit = 1 << i if i >= 0 else 0
        k = next((k for k, l in enumerate(lin) if sum(map(mul, a, l))), None)
        if k is not None:
            cut = lin.pop(k)
            s = sum(map(mul, a, cut))
            if s < 0:
                cut, s = tuple(-c for c in cut), -s
            lin = [_combine(s, l, -sum(map(mul, a, l)), cut) for l in lin]
            rays = [
                (_combine(s, r, -sum(map(mul, a, r)), cut), z | bit) for r, z in rays
            ]
            if bit:
                rays.append((cut, bit - 1))
                cuts += 1
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
        zeros = [z for _, z in rays]
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                if common.bit_count() < cuts - 2:
                    continue
                if sum(1 for z in zeros if common & z == common) > 2:
                    continue
                kept.append((_combine(vp, q, -vq, p), common | bit))
        rays = kept
    return rays, used


def cone_rows(g, kind):
    """The (eqs, m, kind) geometry hands its double description."""
    with mock.patch.object(geometry, "_extreme_rays", lambda *args: args[:3]):
        return geometry._enumerate_vertices(g, kind, None)


def bound_rows(m, kind):
    """The bounds as dense rows over (t, x_1 .. x_m), row i for bound i:
    x_i >= 0 for i <= m (x_0 = t), then x_e <= t for P."""
    n = m + 1
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if kind == "P":
        rows += [tuple((j == 0) - (j == e) for j in range(n)) for e in range(1, n)]
    return rows


def assert_same_double_description(g, most=None):
    """Rays, masks and pair tests agree; a polytope that needs more than
    ``most`` pair tests is rejected as an example, unchecked."""
    for kind in "PQ":
        eqs, m, _ = cone_rows(g, kind)
        if most is not None:
            try:
                _extreme_rays(eqs, m, kind, most)
            except BudgetExceededError:
                reject()
        want, used = reference_extreme_rays(eqs, bound_rows(m, kind), m + 1)
        assert sorted(_extreme_rays(eqs, m, kind, used)) == sorted(want)
        if used:
            with pytest.raises(BudgetExceededError) as err:
                _extreme_rays(eqs, m, kind, used - 1)
            assert err.value.phase == "vertex enumeration"


# The double description from the equations' null space, reading its
# bounds by id, against the one that takes the equations and the bounds as
# dense rows: the same rays, zero sets and pair tests, so budgets pass and
# fail where they did.
DD_GRAPHS = [(name, g) for name, g in corpus()]
DD_GRAPHS += [(f"gn{n}", make_gn(n)) for n in range(2, 11)]
DD_GRAPHS += [(f"gnp{n}_{p}", make_gnp(n, p)) for n in range(2, 6) for p in range(1, 5)]


@pytest.mark.parametrize(
    "g", [g for _, g in DD_GRAPHS], ids=[name for name, _ in DD_GRAPHS]
)
def test_double_description_matches_the_equation_rows(g):
    assert_same_double_description(g)


@SETTINGS
@given(loop_graphs())
@example(Graph((), ()))
@example(Graph(("a",), ()))
def test_double_description_matches_the_equation_rows_on_loop_graphs(g):
    # Some draws take millions of pair tests (K5 with loops: 32.9M); the
    # bound lets through every polytope as large as gn(10)'s (116,778).
    assert_same_double_description(g, most=120_000)


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
    for index, labels in _labelings(g, caps, None, None, floors):
        assert type(labels) is tuple
        assert is_magic(Labeling(g, labels)) == index


def plan_ends(steps):
    """Each step of ``_steps`` as ``(edge, cap, ends)``, one (vertex,
    capacity left) pair per end, a loop's one end once."""
    return [(e, c, ((u, a),) if u == w else ((u, a), (w, b))) for e, c, u, a, w, b in steps]


def walk_labelings(g, caps, indices, budget, floors=None, spent=None):
    """The labeling search as it was before its choice stack: ``top[t]``
    is the largest value position t may take, the current value lives in
    the label list, and a dead end or a solution walks back one position
    at a time, forced positions included.  Same arguments and yields as
    ``_labelings``, with nodes counted on descent in the same way."""
    base = [0] * len(g.vertices)
    if floors is not None:
        if any(f > c for f, c in zip(floors, caps)):
            return
        caps = [c - f for c, f in zip(caps, floors)]
        base = [sum(floors[ei] for ei in g.incidence[v]) for v in g.vertices]
    capacity, steps = _steps(g, caps)
    steps = plan_ends(steps)
    least = min((b + c for b, c in zip(base, capacity)), default=0)
    lowest = max(base, default=0)
    m = len(steps)
    labels = [0] * m
    top = [0] * m
    nodes = spent[0] if spent else 0
    for target in range(least + 1) if indices is None else indices:
        if not lowest <= target <= least:
            continue
        sums = base[:]
        t = 0
        while t >= 0:
            while t < m:
                ei, cap_e, ends = steps[t]
                lo, hi = 0, cap_e
                for vi, after in ends:
                    need = target - sums[vi]
                    if need - after > lo:
                        lo = need - after
                    if need < hi:
                        hi = need
                if lo > hi:
                    break
                if budget is not None:
                    nodes += hi - lo + 1
                    if nodes > budget:
                        raise BudgetExceededError.over("search", "nodes", budget, nodes)
                labels[ei] = lo
                top[t] = hi
                for vi, _after in ends:
                    sums[vi] += lo
                t += 1
            else:
                if spent is not None:
                    spent[0] = nodes
                yield target, tuple(labels) if floors is None else tuple(
                    x + f for x, f in zip(labels, floors)
                )
            t -= 1
            while t >= 0:
                ei, _cap_e, ends = steps[t]
                val = labels[ei]
                if val < top[t]:
                    labels[ei] = val + 1
                    for vi, _after in ends:
                        sums[vi] += 1
                    t += 1
                    break
                labels[ei] = 0
                for vi, _after in ends:
                    sums[vi] -= val
                t -= 1
    if spent is not None:
        spent[0] = nodes


@st.composite
def search_cases(draw):
    """A loop graph with caps 0-4, floors at most the caps or None, and
    every index or one target."""
    g = draw(loop_graphs())
    caps = [draw(st.integers(0, 4)) for _ in g.edges]
    floors = [draw(st.integers(0, c)) for c in caps] if draw(st.booleans()) else None
    indices = draw(st.none() | st.integers(0, 8).map(lambda t: (t,)))
    return g, caps, indices, floors


def search_trace(search, g, caps, indices, budget, floors):
    """Each solution with the nodes spent when it was yielded, then the
    nodes spent in all or the ``consumed`` of the budget error."""
    spent, out = [0], []
    try:
        for index, labels in search(g, caps, indices, budget, floors, spent):
            out.append((index, labels, spent[0]))
    except BudgetExceededError as err:
        return out, ("over", err.consumed)
    return out, ("spent", spent[0])


# The choice stack against the one-position-at-a-time walk: the same
# solutions in the same order, the same nodes spent at each, and, under
# every budget too small for the whole search, the same consumed count.
@SETTINGS
@given(search_cases())
def test_choice_stack_matches_the_step_back_walk(case):
    g, caps, indices, floors = case
    unbounded = 10**9
    want = search_trace(walk_labelings, g, caps, indices, unbounded, floors)
    assert search_trace(_labelings, g, caps, indices, unbounded, floors) == want
    least = want[1][1]
    for budget in range(least):
        assert search_trace(_labelings, g, caps, indices, budget, floors) == search_trace(
            walk_labelings, g, caps, indices, budget, floors
        )


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


def tuple_state_count(g, caps, first, last):
    """The counting DP with a tuple state and no label bounds but the caps.

    The state is the tuple of partial sums of the open vertices in the
    order they opened; each step pads the new ends with zeros, adds the
    label to each end and picks out the ends the edge does not close.
    Every pass runs, whether or not its target can be reached.
    """
    capacity, steps = _steps(g, caps)
    steps = plan_ends(steps)
    last_step = {vi: t for t, (_, _, ends) in enumerate(steps) for vi, _ in ends}
    frontier, plan = [], []
    for t, (_, cap, ends) in enumerate(steps):
        fresh = [vi for vi, _ in ends if vi not in frontier]
        frontier += fresh
        bounds = [(frontier.index(vi), after) for vi, after in ends]
        keep = [p for p, vi in enumerate(frontier) if last_step[vi] != t]
        frontier = [frontier[p] for p in keep]
        plan.append((cap, (0,) * len(fresh), bounds, keep))
    least = min(capacity, default=0)
    counts, used = [], 0
    for target in range(first, (least if last is None else min(last, least)) + 1):
        states = {(): 1}
        for cap, pad, bounds, keep in plan:
            nxt = Counter()
            for state, mult in states.items():
                s = list(state + pad)
                lo, hi = 0, cap
                for p, after in bounds:
                    lo, hi = max(lo, target - s[p] - after), min(hi, target - s[p])
                if lo > hi:
                    continue
                used += hi - lo + 1
                for x in range(lo, hi + 1):
                    sums = s[:]
                    for p, _after in bounds:
                        sums[p] += x
                    nxt[tuple(sums[p] for p in keep)] += mult
            states = nxt
        counts.append(states.get((), 0))
    return counts, used


# The DP against a tuple-state DP that bounds each label by its cap and
# the capacity left alone: the same counts, and no more transitions, as
# the bounds of _bounds only narrow each label's range.  A budget one
# short stops the DP at its last transition.
@SETTINGS
@given(
    st.one_of(st.just(Graph((), ())), loop_graphs()).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(st.integers(0, 4), min_size=len(g.edges), max_size=len(g.edges)),
            st.integers(0, 4),
            st.none() | st.integers(0, 8),
        )
    )
)
def test_packed_state_matches_the_tuple_state(case):
    g, caps, first, last = case
    counts, used = _count(g, caps, first, last, None)
    want, most = tuple_state_count(g, caps, first, last)
    assert counts == want and used <= most
    if used:
        with pytest.raises(BudgetExceededError) as err:
            _count(g, caps, first, last, used - 1)
        assert err.value.consumed == used


# The label bounds drop no labeling: every labeling the search yields
# at the target lies within them, and they rule the target out only
# when the search yields none there.
@SETTINGS
@given(
    loop_graphs().flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(st.integers(0, 4), min_size=len(g.edges), max_size=len(g.edges)),
            st.integers(0, 8),
        )
    )
)
def test_bounds_keep_every_labeling_of_the_target(case):
    g, caps, target = case
    bounds = _bounds([g.incidence[v] for v in g.vertices], target, caps)
    found = [labels for _, labels in _labelings(g, caps, (target,), None)]
    if bounds is None:
        assert found == []
    else:
        lo, hi = bounds
        for labels in found:
            assert all(a <= x <= b for a, x, b in zip(lo, labels, hi))


# The early stop of _count.  _bounds is sound over the reals, so None at
# t means no real x with 0 <= x <= caps has every vertex sum t.  The
# targets such an x reaches are the projection of a polytope onto t, an
# interval, and it holds 0 (x = 0), so no target above t is reached
# either: the search finds no labeling there, and _bounds rules each out.
@SETTINGS
@given(
    loop_graphs().flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(st.integers(0, 4), min_size=len(g.edges), max_size=len(g.edges)),
            st.integers(0, 8),
        )
    )
)
def test_a_ruled_out_target_rules_out_every_larger_one(case):
    g, caps, target = case
    inc = [g.incidence[v] for v in g.vertices]
    if _bounds(inc, target, caps) is None:
        for t in range(target + 1, target + 7):
            assert _bounds(inc, t, caps) is None
            assert list(_labelings(g, caps, (t,), None)) == []


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


def dense_combination(vecs, target, budget):
    """The combination search on dense vectors, remainders as tuples on the
    stack, as it was before its vectors were made sparse."""
    dead = set()
    stack = []
    rem = tuple(target)
    tried = 0
    while any(rem):
        depth = len(stack)
        if depth < len(vecs) and (depth, rem) not in dead:
            vec = vecs[depth]
            stack.append((rem, min((r // v for r, v in zip(rem, vec) if v), default=0)))
        else:
            while stack and not stack[-1][1]:
                dead.add((len(stack) - 1, stack.pop()[0]))
            if not stack:
                return None
            stack[-1] = (stack[-1][0], stack[-1][1] - 1)
        tried += 1
        if budget is not None and tried > budget:
            raise BudgetExceededError.over(
                "Stanley extraction", "counts tried", budget, tried
            )
        prev, count = stack[-1]
        rem = tuple(r - count * v for r, v in zip(prev, vecs[len(stack) - 1]))
    return [count for _, count in stack]


@st.composite
def combination_cases(draw):
    """0-5 vectors of length 1-4 with entries 0-3, all-zero ones included,
    and a target of the same length with entries 0-6."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5))
    return vecs, draw(st.tuples(*[st.integers(0, 6)] * n))


def combination_outcome(search, vecs, target):
    """The least budget the search passes at and its counts there, having
    checked that each budget below raises with one more count tried."""
    budget = 0
    while True:
        try:
            return budget, search(vecs, target, budget)
        except BudgetExceededError as err:
            assert (err.phase, err.consumed) == ("Stanley extraction", budget + 1)
            budget += 1


# The sparse search over one remainder updated in place tries the same
# counts as the dense search, so it passes at the same least budget with
# the same counts, and with no budget it returns them too.
@SETTINGS
@given(combination_cases())
@example(([(2,), (3,)], (7,)))
@example(([(1, 1), (0, 0), (1, 0), (0, 1)], (2, 1)))
def test_sparse_combination_matches_the_dense_search(case):
    vecs, target = case
    sparse = [_sparse(v) for v in vecs]
    want = combination_outcome(dense_combination, vecs, target)
    assert combination_outcome(_combination, sparse, target) == want
    assert _combination(sparse, target, None) == want[1]


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


# Whether a decomposition exists, decided by the recursive generator
# decomposition over every allowed piece: the elements (piece, index) of
# the index semigroup with the piece at most min(lab, 2), of index 1 or 2
# (only 1 on a bipartite graph).
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
    exists = decompose_recursive(SemigroupElement(lab, is_magic(lab)), gens)
    try:
        pieces = stanley_decompose(lab)
    except ValueError as err:
        assert "no decomposition" in str(err)
        assert exists is None
    else:
        assert exists is not None
        assert [sum(col) for col in zip(*(p.labels for p in pieces))] == list(lab.labels)


def extract_one_at_a_time(lab):
    """The Stanley pieces as a search that takes one candidate at a time:
    at each remainder the first (index, piece) of the sorted candidates
    that fits and whose remainder is not known to be dead, restarting
    the scan from the top.  Returns the sorted labels of the pieces, or
    None when no decomposition exists."""
    g, idx = lab.graph, is_magic(lab)
    allowed = (1,) if is_bipartite(g) is not None else (1, 2)
    caps = [min(x, 2) for x in lab.labels]
    pool = sorted(
        (is_magic(p), p.labels)
        for p in enumerate_magic_bounded(g, caps)
        if is_magic(p) in allowed
    )
    dead = set()
    stack = [(lab.labels, idx, 0)]
    while stack:
        rem, rem_idx, start = stack.pop()
        for i in range(start, len(pool)):
            p_idx, piece = pool[i]
            if p_idx > rem_idx or any(x > r for x, r in zip(piece, rem)):
                continue
            if p_idx == rem_idx:
                return sorted([pool[s - 1][1] for _, _, s in stack] + [piece])
            nxt = tuple(r - x for r, x in zip(rem, piece))
            if nxt in dead:
                continue
            stack.append((rem, rem_idx, i + 1))
            stack.append((nxt, rem_idx - p_idx, 0))
            break
        else:
            dead.add(rem)
    return None


# The exact pieces, not only a valid split: the count-per-candidate search
# returns what the one-candidate-at-a-time search returns.
@SETTINGS
@given(stanley_cases())
@example(hub_labeling())
def test_stanley_pieces_match_the_one_at_a_time_search(lab):
    want = extract_one_at_a_time(lab)
    try:
        pieces = stanley_decompose(lab)
    except ValueError as err:
        assert "no decomposition" in str(err)
        assert want is None
    else:
        assert [p.labels for p in pieces] == want


# The memoised Stanley pool against the bounded enumeration, at two keys
# of one graph (so a memo keyed by the graph alone would fail), each
# asked for twice (a miss, then a hit).
@SETTINGS
@given(stanley_cases())
@example(hub_labeling())
def test_stanley_pool_matches_the_bounded_enumeration(lab):
    g = lab.graph
    allowed = (1,) if is_bipartite(g) is not None else (1, 2)
    for top in (2, 1):
        key = tuple(min(x, top) for x in lab.labels)
        want = sorted(
            (is_magic(p), p.labels)
            for p in enumerate_magic_bounded(g, key)
            if is_magic(p) in allowed
        )
        assert list(_pool(g, key, None)[0]) == want
        assert list(_pool(g, key, None)[0]) == want


def triangle_and_loop():
    """A triangle labeled 1 beside a vertex whose loop is labeled 2: magic
    of index 2 off a bipartite graph, with no perfect matching, so its one
    piece is itself, which has a label of 2."""
    g = Graph(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("a", "c"), ("d", "d")))
    return Labeling(g, (1, 1, 1, 2))


def least_search_budget(g, caps):
    """The least budget at which the index-1 search below ``caps`` passes."""
    budget = 0
    while True:
        try:
            list(_labelings(g, caps, (1,), budget))
        except BudgetExceededError:
            budget += 1
        else:
            return budget


# The pool keyed by min(lab, top) against the pool keyed by min(lab, 2):
# the pieces are the ones the combination search picks from the latter,
# and on a bipartite graph (top 1) the narrower search offers no more
# label values.
@SETTINGS
@given(stanley_cases())
@example(hub_labeling())
@example(triangle_and_loop())
def test_stanley_pieces_match_the_min_2_pool(lab):
    g = lab.graph
    wide = tuple(min(x, 2) for x in lab.labels)
    pool, vecs, _, _ = _pool(g, wide, None)
    counts = _combination(vecs, lab.labels, None)
    try:
        pieces = stanley_decompose(lab)
    except ValueError as err:
        assert "no decomposition" in str(err)
        assert counts is None
    else:
        want = sorted(p for (_, p), n in zip(pool, counts) for _ in range(n))
        assert [p.labels for p in pieces] == want
    if is_bipartite(g) is not None:
        narrow = tuple(min(x, 1) for x in lab.labels)
        assert least_search_budget(g, narrow) <= least_search_budget(g, wide)


def full_window_fit(g, kind):
    """The fit with one period, den, for every coefficient: den * (dim + 2)
    counts, each residue fitted from its own dim + 1 of them."""
    den, dim = polytope_denominator(g, kind), polytope_dimension(g, kind)
    n = den * (dim + 2)
    if kind == "P":
        values = count_series(g, n - 1)[0]
    else:
        values = [count_index_k(g, k) for k in range(n)]
    return fit_quasipolynomial(values, den, dim)


def assert_same_ehrhart(g, kind):
    if not polytope_vertices(g, kind):
        with pytest.raises(ValueError, match="empty"):
            ehrhart_of_polytope(g, kind)
        return
    assert ehrhart_of_polytope(g, kind).to_json() == full_window_fit(g, kind).to_json()


NAMED = [(name, g) for name, g in corpus()]
NAMED += [(f"gn{n}", make_gn(n)) for n in range(2, 8)]
NAMED += [(f"gnp{n}_{p}", make_gnp(n, p)) for n in range(2, 6) for p in range(1, 4)]


# McMullen's per-coefficient window against the full per-residue window.
@pytest.mark.parametrize("kind", "PQ")
@pytest.mark.parametrize("g", [g for _, g in NAMED], ids=[name for name, _ in NAMED])
def test_ehrhart_matches_the_full_window_fit(g, kind):
    assert_same_ehrhart(g, kind)


@st.composite
def odd_loop_graphs(draw):
    """A triangle, up to 2 links to a fourth vertex and a loop or none at
    each vertex: P's denominator is often 2, with p_1 > 1 too."""
    n = draw(st.integers(3, 4))
    vs = tuple(f"v{i}" for i in range(n))
    links = draw(st.lists(st.sampled_from(range(3)), max_size=2, unique=True))
    edges = [(vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2])]
    edges += [(vs[a], vs[3]) for a in links] if n == 4 else []
    loops = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges += [(v, v) for v, loop in zip(vs, loops) if loop]
    return Graph(vs, tuple(edges))


@settings(SETTINGS, max_examples=80)
@given(odd_loop_graphs())
def test_ehrhart_matches_the_full_window_fit_on_loop_graphs(g):
    for kind in "PQ":
        assert_same_ehrhart(g, kind)


def rebuilt_masks(g, kind):
    """Each ray's tight rows rebuilt from its coordinates, row by row in
    the double description's order (t >= 0, x_e >= 0, then x_e <= t for
    P): bit e + 1 when x_e = 0, bit m + 1 + e when x_e = t (P only)."""
    m = len(g.edges)
    return tuple(
        sum(1 << e + 1 for e, c in enumerate(x) if c == 0)
        | sum(1 << m + 1 + e for e, c in enumerate(x) if kind == "P" and c == t)
        for t, *x in _polytope_facts(g, kind, None)[0]
    )


def assert_masks_match(g):
    for kind in "PQ":
        assert _polytope_facts(g, kind, None)[3] == rebuilt_masks(g, kind)


# The zero sets the double description keeps, one per ray, against the
# masks rebuilt from the ray coordinates.
MASKED = NAMED + [("gn8", make_gn(8))]


@pytest.mark.parametrize("g", [g for _, g in MASKED], ids=[name for name, _ in MASKED])
def test_tight_row_masks_match_the_coordinates(g):
    assert_masks_match(g)


@SETTINGS
@given(loop_graphs())
@example(Graph((), ()))
@example(path_graph(3))
def test_tight_row_masks_match_the_coordinates_on_loop_graphs(g):
    assert_masks_match(g)


def scan_periods(g, kind, most=None):
    """coefficient_periods with each closure found by scanning every ray's
    mask, uncapped: the periods and the closures they took.  A polytope
    that needs more than ``most`` closures is rejected as an example."""
    rays, den, dim, masks = _polytope_facts(g, kind, None)
    periods = [1] * (dim + 1)
    used = 0
    for p in range(2, den + 1):
        if den % p or any(p % f == 0 for f in range(2, p)):
            continue
        part = gcd(den, p ** den.bit_length())
        inside = [i for i, r in enumerate(rays) if r[0] % p == 0]
        allowed = sum(1 << i for i in inside)
        todo = [(1 << i, masks[i]) for i in inside]
        seen = {f for f, _ in todo}
        while todo:
            face, tight = todo.pop()
            verts = [r for i, r in enumerate(rays) if face >> i & 1]
            d = len(_reduce(verts)) - 1
            periods[d] = lcm(periods[d], gcd(part, *(r[0] for r in verts)))
            for i in inside:
                if face >> i & 1:
                    continue
                used += 1
                if most is not None and used > most:
                    reject()
                rows = tight & masks[i]
                closure = sum(1 << j for j, z in enumerate(masks) if z & rows == rows)
                if closure & ~allowed == 0 and closure not in seen:
                    seen.add(closure)
                    todo.append((closure, rows))
    return tuple(periods), used


def assert_same_periods(g, most=None):
    """Periods and closures agree with the scan, so the closure budget
    passes and fails where it did; the vertex enumeration runs uncapped.
    A polytope past ``most`` pair tests or closures is rejected."""
    real = _polytope_facts
    for kind in "PQ":
        if most is not None:
            try:
                real(g, kind, most)
            except BudgetExceededError:
                reject()
        if not real(g, kind, None)[0]:
            continue
        want, used = scan_periods(g, kind, most)
        uncapped = mock.patch.object(
            geometry, "_polytope_facts", lambda g, kind, budget: real(g, kind, None)
        )
        with uncapped:
            assert coefficient_periods(g, kind, budget=used) == want
            if used:
                with pytest.raises(BudgetExceededError) as err:
                    coefficient_periods(g, kind, budget=used - 1)
                assert (err.value.phase, err.value.consumed) == (
                    "face enumeration",
                    used,
                )


# Each closure as the AND of its bounds' ray bitmasks against a scan of
# every ray's mask: the same periods and the same closure counts.
PERIODS = NAMED + [("eight_edges", eight_edges())]


@pytest.mark.parametrize("g", [g for _, g in PERIODS], ids=[n for n, _ in PERIODS])
def test_face_closures_match_the_mask_scan(g):
    assert_same_periods(g)


@st.composite
def linked_loop_graphs(draw):
    """4 to 6 vertices, at least one link per vertex and at most one loop
    at each: often many fractional vertices, so many faces to close."""
    n = draw(st.integers(4, 6))
    vs = tuple(f"v{i}" for i in range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links = draw(st.lists(st.sampled_from(pairs), min_size=n, max_size=9, unique=True))
    loops = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    edges = [(vs[a], vs[b]) for a, b in links]
    edges += [(v, v) for v, loop in zip(vs, loops) if loop]
    return Graph(vs, tuple(edges))


@SETTINGS
@given(linked_loop_graphs())
def test_face_closures_match_the_mask_scan_on_loop_graphs(g):
    assert_same_periods(g, most=20_000)
