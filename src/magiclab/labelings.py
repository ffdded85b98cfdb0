"""Integer edge labelings, magic tests, exact enumeration and counting."""

from __future__ import annotations

import json
from functools import lru_cache

from .errors import BudgetExceededError, Value, as_int, as_ints
from .graphs import Graph, graph_hash, make_gn


class Labeling(Value):
    """Nonnegative integer labels in the graph's edge coordinate order."""

    _fields = ("graph", "labels")

    def __init__(self, graph: Graph, labels: tuple[int, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", _edge_bounds(graph, labels, "labels"))


def _made(g: Graph, labels: tuple[int, ...], index: int | None = None) -> Labeling:
    """A ``Labeling`` of a tuple the library made of nonnegative ints, one
    per edge of g, without the checks that outside input goes through.
    An ``index`` the maker knows is left where ``is_magic`` reads it."""
    lab = object.__new__(Labeling)
    object.__setattr__(lab, "graph", g)
    object.__setattr__(lab, "labels", labels)
    if index is not None:
        lab.__dict__["_index"] = index
    return lab


def vertex_sum(lab: Labeling, v: str) -> int:
    """Sum of the labels on edges at v; a loop contributes its label once."""
    if v not in lab.graph.incidence:
        raise ValueError(f"unknown vertex {v!r}")
    return sum(lab.labels[ei] for ei in lab.graph.incidence[v])


def is_magic(lab: Labeling) -> int | None:
    """The common vertex sum (the index) when all sums agree, else None.

    A graph with no vertices has index 0 by convention.  Index 0 is a
    valid magic labeling, so compare the result against None rather than
    testing truthiness.  The result is kept in the instance ``__dict__``
    (as ``functools.cached_property`` keeps its value), where ``_made``
    may have put it already; equality, hash and repr never read it.
    """
    memo = lab.__dict__
    if "_index" not in memo:
        get = lab.labels.__getitem__
        sums = {sum(map(get, es)) for es in lab.graph.incidence.values()}
        memo["_index"] = sums.pop() if len(sums) == 1 else None if sums else 0
    return memo["_index"]


def max_label(lab: Labeling) -> int:
    """Largest label used; 0 for a graph with no edges."""
    return max(lab.labels, default=0)


def lstar(n: int) -> Labeling:
    """On ``make_gn(n)``: rungs labeled n-1 and every spoke labeled 1.

    Magic of index n with maximum label n-1.
    """
    g = make_gn(n)
    return Labeling(g, tuple([n - 1] * n + [1] * (2 * n)))


def li_matching(n: int, i: int) -> Labeling:
    """Indicator labeling of the i-th perfect matching of ``make_gn(n)``.

    The matching takes the spokes at channel i plus every rung except
    rung i; the labeling is magic of index 1.
    """
    g = make_gn(n)
    if as_int(i, "i", 1) > n:
        raise ValueError(f"i must be between 1 and {n}")
    labels = [0] * (3 * n)
    for j in range(1, n + 1):
        if j != i:
            labels[j - 1] = 1
    labels[n + i - 1] = 1
    labels[2 * n + i - 1] = 1
    return Labeling(g, tuple(labels))


@lru_cache(maxsize=64)
def _assignment_order(g: Graph):
    # Static DFS order: repeatedly take the unassigned edges of the vertex
    # with the fewest unassigned incident edges.  Vertex sums then close as
    # early as possible, so most labels are forced instead of branched on.
    # Returns the order, each edge with its ends' vertex indices (edge,
    # end 1, end 2), and the counting DP's slot plan.  The DP state is one
    # int with one base-(target + 1) digit per slot: the partial sum of the
    # open vertex (touched, not yet closed) that holds the slot.  A vertex
    # takes the lowest free slot at its first edge and frees it at its
    # last, when its unassigned count reaches 0, so there are as many
    # slots as the frontier is wide.  Each edge plans its two ends' slots
    # (a loop's one end twice), whether it is a loop, and the (vertex,
    # slot) pairs of the ends it closes.  Pure per graph and asked for by
    # every search and count, so memoised.
    vidx = {v: i for i, v in enumerate(g.vertices)}
    inc = [list(g.incidence[v]) for v in g.vertices]
    remaining = [len(es) for es in inc]
    unassigned = [True] * len(g.edges)
    order, plan, slot = [], [], {}  # slot: open vertex -> its digit slot
    while len(order) < len(g.edges):
        best = -1
        for vi in range(len(g.vertices)):
            if remaining[vi] and (best < 0 or remaining[vi] < remaining[best]):
                best = vi
        for ei in inc[best]:
            if unassigned[ei]:
                unassigned[ei] = False
                u, w = g.edges[ei]
                ui, wi = vidx[u], vidx[w]
                order.append((ei, ui, wi))
                for vi in (ui, wi):
                    if vi not in slot:
                        slot[vi] = min(set(range(len(slot) + 1)) - set(slot.values()))
                for vi in {ui, wi}:
                    remaining[vi] -= 1
                p1, p2 = slot[ui], slot[wi]
                closes = tuple((v, slot.pop(v)) for v in {ui, wi} if not remaining[v])
                plan.append((p1, p2, ui == wi, closes))
    return tuple(order), tuple(plan)


def _steps(g: Graph, caps):
    """The per-edge plan of the search and of the counting DP.

    Returns each vertex's capacity (the total cap of its incident edges)
    and, for each edge in ``_assignment_order``, the flat tuple ``(edge,
    cap, u, after_u, w, after_w)``: its ends u and w (w == u for a loop),
    each with the capacity left at it after this edge.  No vertex sum can
    grow past what its edges still to come allow, so the capacity left
    bounds a label from below.
    """
    # Walked backwards, the capacity left after an edge is what its ends
    # have gathered so far, and the totals are the capacities.
    capacity = [0] * len(g.vertices)
    steps = []
    for ei, ui, wi in reversed(_assignment_order(g)[0]):
        cap = caps[ei]
        steps.append((ei, cap, ui, capacity[ui], wi, capacity[wi]))
        if ui != wi:
            capacity[wi] += cap
        capacity[ui] += cap
    steps.reverse()
    return capacity, steps


def _labelings(g: Graph, caps, indices, budget: int | None, floors=None, spent=None):
    """Exact search over labelings whose vertex sums all equal one target.

    Targets are taken in turn from ``indices``, or are every index the
    bounds allow when it is None.  Each edge label lies between
    ``floors`` (zero when None) and ``caps``.  Yields ``(index, labels)``
    per solution, the labels a tuple in coordinate order.  ``budget``
    caps the label values offered over the whole search, counted per
    position before any value is tried.  ``spent``, a one-item list,
    shares that count between searches under one budget: the search
    starts from it and writes its count back at each solution and at its
    end.

    The edges are assigned depth first in the order of ``_steps``.  Only
    a position with more than one value to try is a choice: it pushes
    ``[position, value, top, vertex sums before it]``, and a dead end or
    a solution jumps straight back to the last choice's next value, past
    the forced positions after it.  Floors are a shift: the labels are
    offsets above them, each vertex sum starts at its floors' sum, and
    the floors are added back to each solution on output.
    """
    budget = None if budget is None else as_int(budget, "budget")
    base = [0] * len(g.vertices)
    if floors is not None:
        if any(f > c for f, c in zip(floors, caps)):
            return
        caps = [c - f for c, f in zip(caps, floors)]
        base = [sum(floors[ei] for ei in g.incidence[v]) for v in g.vertices]
    capacity, steps = _steps(g, caps)
    # No vertex sum can exceed its floors plus the total cap of its
    # incident edges, or fall below its floors, which bounds every
    # feasible index from both sides.
    least = min((b + c for b, c in zip(base, capacity)), default=0)
    lowest = max(base, default=0)
    m = len(steps)
    labels = [0] * m
    nodes = spent[0] if spent else 0
    for target in range(least + 1) if indices is None else indices:
        if not lowest <= target <= least:
            continue
        sums, t, choices = base[:], 0, []
        while True:
            while t < m:
                ei, cap_e, u, after_u, w, after_w = steps[t]
                need = target - sums[u]
                lo = need - after_u
                hi = need if need < cap_e else cap_e
                if w != u:
                    need = target - sums[w]
                    if need - after_w > lo:
                        lo = need - after_w
                    if need < hi:
                        hi = need
                if lo < 0:
                    lo = 0
                if lo > hi:
                    break
                if budget is not None:
                    nodes += hi - lo + 1
                    if nodes > budget:
                        raise BudgetExceededError.over("search", "nodes", budget, nodes)
                if lo < hi:
                    choices.append([t, lo, hi, sums[:]])
                labels[ei] = lo
                sums[u] += lo
                if w != u:
                    sums[w] += lo
                t += 1
            else:
                if spent is not None:
                    spent[0] = nodes
                yield target, tuple(labels) if floors is None else tuple(
                    x + f for x, f in zip(labels, floors)
                )
            if not choices:
                break
            # The last choice's next value, on the sums from before it.
            choice = choices[-1]
            t, val, top, sums = choice
            val += 1
            if val < top:
                choice[1], sums = val, sums[:]
            else:
                choices.pop()
            ei, _, u, _, w, _ = steps[t]
            labels[ei] = val
            sums[u] += val
            if w != u:
                sums[w] += val
            t += 1
    if spent is not None:
        spent[0] = nodes


def _collect(g: Graph, caps, indices, budget: int | None, floors=None) -> list[Labeling]:
    """The search's solutions in its order, built by ``_made`` with their
    index: the search yields tuples of nonnegative ints in coordinate order."""
    return [_made(g, t, i) for i, t in _labelings(g, caps, indices, budget, floors)]


def _bounds(inc, target, caps):
    """Per-edge label bounds ``(lo, hi)`` within 0..caps under "every
    vertex sum equals target", or None when some vertex cannot reach it.

    At each vertex (``inc`` lists its edges) an edge needs at least the
    target minus the most its other edges can give, and may take at most
    the target minus the least they must give.  One visit leaves a vertex
    consistent, so the vertices are swept again only while an edge moves
    after its other end's visit; each move shrinks the total width.
    """
    lo, hi = [0] * len(caps), list(caps)
    seen = [0] * len(caps)
    sweep, again = 0, True
    while again:
        sweep, again = sweep + 1, False
        for es in inc:
            least = sum(map(lo.__getitem__, es))
            most = sum(map(hi.__getitem__, es))
            if not least <= target <= most:
                return None
            up, down = most - target, target - least
            for ei in es:
                a, b = lo[ei], hi[ei]
                if b - a > up or b - a > down:
                    lo[ei], hi[ei] = max(a, b - up), min(b, a + down)
                    again = again or seen[ei] == sweep
                seen[ei] = sweep
    return lo, hi


def _count(
    g: Graph, caps, first: int, last: int | None, budget: int | None, used: int = 0
) -> tuple[list[int], int]:
    # Frontier (transfer-matrix) DP, one pass per target from first to
    # last (to the least vertex capacity when None, as no larger target is
    # feasible) or to the first target _bounds rules out: the number of
    # labelings of each target that the search _labelings would yield,
    # without visiting each.  Labels are offsets above the floors of
    # _bounds, and each vertex's digit counts up to its ``full``, the
    # target minus its floors' sum.  Offsets are bounded as in the search,
    # so an edge that closes a vertex is forced to full minus the digit,
    # and subtracting full * radix**slot frees the digit: the only state
    # left at the end is 0.  An offset adds ``step`` (the digit weights of
    # the edge's ends, a loop's once) to the state.  ``budget`` caps the
    # state transitions, one per (state, offset), counted on from the
    # ``used`` of earlier passes; returns the counts and the transitions
    # used by then.
    budget = None if budget is None else as_int(budget, "budget")
    inc = [g.incidence[v] for v in g.vertices]
    least = min((sum(map(caps.__getitem__, es)) for es in inc), default=0)
    plan = _assignment_order(g)[1]
    counts = []
    top = least if last is None else min(last, least)
    for target in range(first, top + 1):
        bounds = _bounds(inc, target, caps)
        if bounds is None:
            # _bounds is sound over the reals, so no real x with 0 <= x <=
            # caps has every vertex sum equal to target.  The targets some
            # such x reaches are the projection of a polytope, an interval,
            # and it holds 0 (x = 0), so no larger target is reached either:
            # they all count 0, with no pass.
            counts += [0] * (top + 1 - target)
            break
        floors, ceils = bounds
        full = [target - sum(map(floors.__getitem__, es)) for es in inc]
        _, steps = _steps(g, [c - f for f, c in zip(floors, ceils)])
        radix = target + 1
        states = {0: 1}
        for (_, width, v1, a1, v2, a2), (p1, p2, loop, closes) in zip(steps, plan):
            f1, f2, w1, w2 = full[v1], full[v2], radix**p1, radix**p2
            step = w1 if loop else w1 + w2
            drop = sum(full[vi] * radix**p for vi, p in closes)
            nxt: dict[int, int] = {}
            get = nxt.get
            for state, mult in states.items():
                n1 = f1 - state // w1 % radix
                n2 = f2 - state // w2 % radix
                lo = n1 - a1
                if n2 - a2 > lo:
                    lo = n2 - a2
                if lo < 0:
                    lo = 0
                hi = n1 if n1 < width else width
                if n2 < hi:
                    hi = n2
                if lo > hi:
                    continue
                used += hi - lo + 1
                if budget is not None and used > budget:
                    raise BudgetExceededError.over(
                        "counting", "state transitions", budget, used
                    )
                key = state + lo * step - drop
                if lo == hi:  # forced, as at every closing edge
                    nxt[key] = get(key, 0) + mult
                    continue
                for key in range(key, key + (hi - lo) * step + 1, step):
                    nxt[key] = get(key, 0) + mult
            states = nxt
        counts.append(states.get(0, 0))
    return counts, used


def count_series(
    g: Graph, kmax: int, *, budget: int | None = None
) -> tuple[list[int], list[int]]:
    """``count_magic_k`` and ``count_index_k`` for every k = 0..kmax.

    Returns the two lists indexed by k.  Under a uniform cap k, every
    label of a target t <= k is already at most t, so the cap never
    binds and the DP's pass at target t is exactly the pass of
    ``count_index_k(g, t)``.  The sweep therefore runs each index pass
    once, and for each k only the passes at the targets above k, which
    the cap does bind: the magic count is the sum of the index counts up
    to k plus those.  On the Ehrhart sweeps of gn(4..7) that is 18-33%
    of the transitions of one ``count_magic_k`` per k.  ``budget`` caps
    the state transitions of every pass of the sweep together.
    """
    kmax = as_int(kmax, "kmax")
    magic, index = [], []
    below = used = 0
    for k in range(kmax + 1):
        # Target k at cap k is count_index_k(g, k); the rest are binding.
        # No target runs when k exceeds every vertex capacity.
        counts, used = _count(g, [k] * len(g.edges), k, None, budget, used)
        counts = counts or [0]
        index.append(counts[0])
        below += counts[0]
        magic.append(below + sum(counts[1:]))
    return magic, index


def _uniform_caps(g: Graph, k: int) -> list[int]:
    return [as_int(k, "k")] * len(g.edges)


def enumerate_magic_k(g: Graph, k: int, *, budget: int | None = None) -> list[Labeling]:
    """All magic labelings of g with every label at most k.

    Enumeration runs one exact depth-first search per candidate index,
    so the results are unique by construction.  ``budget`` caps the
    total number of label values the search offers.
    """
    caps = _uniform_caps(g, k)
    return _collect(g, caps, None, budget)


def count_magic_k(g: Graph, k: int, *, budget: int | None = None) -> int:
    """Number of magic labelings with every label at most k.

    Counted by a frontier (transfer-matrix) dynamic program over the
    edges, one pass per candidate index, without visiting each labeling.
    An index that its narrowed label ranges rule out (on gn(4) at cap k,
    any above 4k/3) counts 0 without a pass, and the first one ends the
    passes, as no larger index is reachable either.  ``budget`` caps the
    state transitions: one per (state, label value), over every index.
    For every k up to some kmax, ``count_series`` gives the same counts
    and runs each pass at an index up to k only once.
    """
    caps = _uniform_caps(g, k)
    return sum(_count(g, caps, 0, None, budget)[0])


def enumerate_index_k(g: Graph, k: int, *, budget: int | None = None) -> list[Labeling]:
    """All magic labelings of g with index exactly k.

    Labels are automatically at most k, since each edge label is bounded
    by the sum at either endpoint.
    """
    return _collect(g, _uniform_caps(g, k), (k,), budget)


def count_index_k(g: Graph, k: int, *, budget: int | None = None) -> int:
    """Number of magic labelings with index exactly k.

    One pass of the dynamic program of ``count_magic_k``, with its budget.
    """
    return sum(_count(g, _uniform_caps(g, k), k, k, budget)[0])


def _edge_bounds(g: Graph, values, what: str) -> tuple[int, ...]:
    values = as_ints(values, what)
    if len(values) != len(g.edges):
        raise ValueError(f"{what} length must equal the edge count")
    if any(c < 0 for c in values):
        raise ValueError(f"{what} must be nonnegative")
    return values


def enumerate_magic_bounded(
    g: Graph, caps, *, floors=None, budget: int | None = None
) -> list[Labeling]:
    """All magic labelings with floors[e] <= label[e] <= caps[e] per edge.

    ``floors`` defaults to all zeros; a floor above its cap leaves
    nothing to enumerate.  The floors shift the search rather than
    filter it: labels are searched as offsets above the floors, so no
    labeling below them is visited.  ``budget`` caps the label values
    the search offers, as for ``enumerate_magic_k``.
    """
    caps = _edge_bounds(g, caps, "caps")
    if floors is not None:
        floors = _edge_bounds(g, floors, "floors")
    return _collect(g, caps, None, budget, floors)


def labeling_to_json(lab: Labeling) -> str:
    payload = {"graph_hash": graph_hash(lab.graph), "labels": list(lab.labels)}
    return json.dumps(payload, separators=(",", ":"))


def labeling_from_json(g: Graph, text: str) -> Labeling:
    """Parse a labeling for g, checking the embedded graph hash."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("labeling JSON is nested too deeply") from None
    if not isinstance(data, dict) or set(data) != {"graph_hash", "labels"}:
        raise ValueError('labeling JSON must be {"graph_hash": ..., "labels": [...]}')
    if data["graph_hash"] != graph_hash(g):
        raise ValueError("labeling was produced for a different graph")
    labels = data["labels"]
    if not isinstance(labels, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in labels
    ):
        raise ValueError("labeling JSON labels must be a list of integers")
    return Labeling(g, tuple(labels))
