"""Integer edge labelings, magic tests, exact enumeration and counting."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError
from .graphs import Graph, graph_hash, make_gn


@dataclass(frozen=True)
class Labeling:
    """Nonnegative integer labels in the graph's edge coordinate order."""

    graph: Graph
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", _as_ints(self.labels, "labels"))
        if len(self.labels) != len(self.graph.edges):
            raise ValueError("label vector length must equal the edge count")
        if any(x < 0 for x in self.labels):
            raise ValueError("labels must be nonnegative")


def _as_ints(values, what: str) -> tuple[int, ...]:
    # operator.index accepts ints (and int-like types) only, so a float
    # label or cap is an error instead of being truncated by int().
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def vertex_sum(lab: Labeling, v: str) -> int:
    """Sum of the labels on edges at v; a loop contributes its label once."""
    if v not in lab.graph.incidence:
        raise ValueError(f"unknown vertex {v!r}")
    return sum(lab.labels[ei] for ei in lab.graph.incidence[v])


def is_magic(lab: Labeling) -> int | None:
    """The common vertex sum (the index) when all sums agree, else None.

    A graph with no vertices has index 0 by convention.  Index 0 is a
    valid magic labeling, so compare the result against None rather than
    testing truthiness.
    """
    labels, inc = lab.labels, lab.graph.incidence
    sums = {sum(labels[ei] for ei in inc[v]) for v in lab.graph.vertices}
    if not sums:
        return 0
    if len(sums) == 1:
        return next(iter(sums))
    return None


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
    if not 1 <= i <= n:
        raise ValueError(f"i must be between 1 and {n}")
    labels = [0] * (3 * n)
    for j in range(1, n + 1):
        if j != i:
            labels[j - 1] = 1
    labels[n + i - 1] = 1
    labels[2 * n + i - 1] = 1
    return Labeling(g, tuple(labels))


@lru_cache(maxsize=64)
def _assignment_order(g: Graph) -> tuple[int, ...]:
    # Static DFS order: repeatedly take the unassigned edges of the vertex
    # with the fewest unassigned incident edges.  Vertex sums then close as
    # early as possible, so most labels are forced instead of branched on.
    # Pure per graph and asked for by every search and count, so memoised.
    vidx = {v: i for i, v in enumerate(g.vertices)}
    inc = [list(g.incidence[v]) for v in g.vertices]
    remaining = [len(es) for es in inc]
    unassigned = [True] * len(g.edges)
    order: list[int] = []
    while len(order) < len(g.edges):
        best = -1
        for vi in range(len(g.vertices)):
            if remaining[vi] and (best < 0 or remaining[vi] < remaining[best]):
                best = vi
        for ei in inc[best]:
            if unassigned[ei]:
                unassigned[ei] = False
                order.append(ei)
                u, w = g.edges[ei]
                remaining[vidx[u]] -= 1
                if w != u:
                    remaining[vidx[w]] -= 1
    return tuple(order)


def _steps(g: Graph, caps):
    """The per-edge plan of the search and of the counting DP.

    Returns each vertex's capacity (the total cap of its incident edges)
    and, for each edge in ``_assignment_order``, ``(edge, cap, ends)``
    with one ``(vertex, capacity left after this edge)`` pair per end.
    No vertex sum can grow past what its edges still to come allow, so
    the capacity left bounds a label from below.
    """
    vidx = {v: i for i, v in enumerate(g.vertices)}
    # Walked backwards, the capacity left after an edge is what its ends
    # have gathered so far, and the totals are the capacities.
    capacity = [0] * len(g.vertices)
    steps = []
    for ei in reversed(_assignment_order(g)):
        u, w = g.edges[ei]
        cap = caps[ei]
        ui, wi = vidx[u], vidx[w]
        if ui == wi:
            steps.append((ei, cap, ((ui, capacity[ui]),)))
        else:
            steps.append((ei, cap, ((ui, capacity[ui]), (wi, capacity[wi]))))
            capacity[wi] += cap
        capacity[ui] += cap
    steps.reverse()
    return capacity, steps


def _labelings(g: Graph, caps, indices, budget: int | None, floors=None):
    """Exact search over labelings whose vertex sums all equal one target.

    Targets are taken in turn from ``indices``, or are every index the
    bounds allow when it is None.  Each edge label lies between
    ``floors`` (zero when None) and ``caps``.  Yields ``(index, buffer)``
    per solution; the label buffer (coordinate order) is internal, so copy it.
    ``budget`` caps the label values offered over the whole search,
    counted per position before any value is tried.

    The edges are assigned in the order of ``_steps`` with an explicit
    stack: ``top[t]`` is the largest value position t may take, and the
    current value lives in the buffer itself.  Floors are a shift: the
    buffer holds offsets above them, each vertex sum starts at its
    floors' sum, and the floors are added back to each solution on output.
    """
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
    top = [0] * m
    nodes = 0
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
                yield target, labels if floors is None else [
                    x + f for x, f in zip(labels, floors)
                ]
            # Back up to the deepest position with a value left to try.
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


def _collect(g: Graph, caps, indices, budget: int | None, floors=None) -> list[Labeling]:
    return [
        Labeling(g, tuple(buf))
        for _, buf in _labelings(g, caps, indices, budget, floors)
    ]


def _count_plan(steps):
    # The DP state is the tuple of partial sums of the open vertices
    # (touched, not yet closed) in the order they opened.  Each step of
    # _steps becomes the edge's cap, the zeros that open its new ends, a
    # (state position, capacity left after this edge) pair per end, and a
    # picker that drops the ends the edge closes.
    last = {vi: t for t, (_, _, ends) in enumerate(steps) for vi, _ in ends}
    frontier: list[int] = []
    plan = []
    for t, (_, cap, ends) in enumerate(steps):
        fresh = [vi for vi, _ in ends if vi not in frontier]
        frontier += fresh
        bounds = tuple((frontier.index(vi), after) for vi, after in ends)
        keep = [p for p, vi in enumerate(frontier) if last[vi] != t]
        frontier = [frontier[p] for p in keep]
        if len(keep) > 1:
            pick = operator.itemgetter(*keep)
        else:
            # itemgetter returns a bare item for one index and fails on none.
            pick = lambda s, keep=keep: tuple(s[p] for p in keep)
        plan.append((cap, (0,) * len(fresh), bounds, pick))
    return plan


def _count(
    g: Graph, caps, first: int, last: int | None, budget: int | None, used: int = 0
) -> tuple[list[int], int]:
    # Frontier (transfer-matrix) DP, one pass per target from first to
    # last (to the least vertex capacity when None, as no larger target is
    # feasible): the number of labelings of each target that the search
    # _labelings would yield, without visiting each.  Every edge label is
    # bounded as in the search; an edge that closes a vertex has no
    # capacity left there, so its label is forced to the target minus the
    # vertex's sum.  ``budget`` caps the state transitions, one per
    # (state, label value), counted on from the ``used`` of earlier
    # passes; returns the counts and the transitions used by then.
    capacity, steps = _steps(g, caps)
    least = min(capacity, default=0)
    plan = _count_plan(steps)
    counts = []
    top = least if last is None else min(last, least)
    for target in range(first, top + 1):
        states = {(): 1}
        for cap, pad, bounds, pick in plan:
            nxt: dict[tuple[int, ...], int] = {}
            get = nxt.get
            for state, mult in states.items():
                s = list(state + pad)
                lo, hi = 0, cap
                for p, after in bounds:
                    need = target - s[p]
                    if need - after > lo:
                        lo = need - after
                    if need < hi:
                        hi = need
                if lo > hi:
                    continue
                used += hi - lo + 1
                if budget is not None and used > budget:
                    raise BudgetExceededError.over(
                        "counting", "state transitions", budget, used
                    )
                for p, _after in bounds:
                    s[p] += lo
                if lo == hi:  # forced, as at every closing edge
                    key = pick(s)
                    nxt[key] = get(key, 0) + mult
                    continue
                for _ in range(lo, hi + 1):
                    key = pick(s)
                    nxt[key] = get(key, 0) + mult
                    for p, _after in bounds:
                        s[p] += 1
            states = nxt
        # Every vertex has closed, so the only state left is ().
        counts.append(states.get((), 0))
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
    to k plus those.  On the Ehrhart sweeps of gn(4..7) that is 39-51%
    of the transitions of one ``count_magic_k`` per k.  ``budget`` caps
    the state transitions of every pass of the sweep together.
    """
    (kmax,) = _as_ints((kmax,), "kmax")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
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
    (k,) = _as_ints((k,), "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return [k] * len(g.edges)


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
    ``budget`` caps the state transitions: one per (state, label value)
    tried, summed over every index.
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
    values = _as_ints(values, what)
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
