"""Semigroups of magic labelings graded by height.

An element pairs an integral magic labeling with a height k.  For the
max-label semigroup (kind "P") the height must be at least the largest
label; for the index semigroup (kind "Q") it must equal the index.
Addition is entrywise on labels and heights.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import repeat
from math import lcm

from . import geometry
from .errors import BudgetExceededError, Value, as_int
from .graphs import Edge, Graph, forced_max_edge, is_bipartite
from .labelings import (
    Labeling,
    _labelings,
    _made,
    enumerate_index_k,
    enumerate_magic_bounded,
    is_magic,
    max_label,
)


class SemigroupElement(Value):
    _fields = ("labeling", "height")

    def __init__(self, labeling: Labeling, height: int):
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "height", as_int(height, "height"))


def validate_element(g: Graph, kind: str, elem: SemigroupElement) -> None:
    """Raise unless ``elem`` belongs to the chosen semigroup over g."""
    if elem.labeling.graph != g:
        raise ValueError("element belongs to a different graph")
    idx = is_magic(elem.labeling)
    if idx is None:
        raise ValueError("element labeling is not magic")
    if geometry._check_kind(kind) == "P":
        if max_label(elem.labeling) > elem.height:
            raise ValueError("height must be at least the maximum label")
    elif idx != elem.height:
        raise ValueError("height must equal the index")


def cf_elements(
    g: Graph, kind: str, *, budget: int | None = None
) -> list[SemigroupElement]:
    """Completely fundamental elements: each polytope vertex v scaled by
    its denominator d, paired with height d.

    These are the primitive extreme rays (d, d * v) of the cone over the
    polytope, read straight from ``geometry``'s memo, so ``budget`` caps
    the same pair tests as ``geometry.polytope_vertices`` (``None``: no
    cap).  Sorted by height then labels for a deterministic order.
    """
    rays = geometry._polytope_facts(g, kind, budget)[0]
    q = kind == "Q"  # a Q ray's height is its labeling's index
    return [SemigroupElement(_made(g, r[1:], r[0] if q else None), r[0]) for r in rays]


class CFVerdict(Value):
    """Outcome of the brute-force complete-fundamentality check.

    When ``refuted``, heights and labels of ``b`` and ``c`` witness a
    decomposition b + c = m * elem whose left part is not a multiple of
    elem.  Otherwise no refutation exists for any multiplier up to
    ``m_max`` (which is not a proof beyond that bound).
    """

    _fields = ("refuted", "m_max", "m", "b", "c")

    def __init__(
        self,
        refuted: bool,
        m_max: int,
        m: int | None = None,
        b: SemigroupElement | None = None,
        c: SemigroupElement | None = None,
    ):
        for name, value in zip(self._fields, (refuted, m_max, m, b, c)):
            object.__setattr__(self, name, value)


def _is_multiple(labels, height, base: SemigroupElement) -> bool:
    # base is a validated nonzero element, so its height is positive.
    j, rem = divmod(height, base.height)
    if rem:
        return False
    return all(x == j * y for x, y in zip(labels, base.labeling.labels))


def verify_completely_fundamental(
    g: Graph,
    kind: str,
    elem: SemigroupElement,
    m_max: int = 3,
    *,
    budget: int | None = None,
) -> CFVerdict:
    """Independent oracle for complete fundamentality, bounded by ``m_max``.

    For each m up to m_max, every decomposition b + c = m * elem inside
    the semigroup is enumerated.  A b that is not a nonnegative multiple
    of elem refutes; otherwise the element is unrefuted up to m_max.

    Only the labelings b that have a valid height are searched.  Write
    total = m * elem and H = m * elem.height.  For kind "P" a height h
    of b needs max(b) <= h and max(c) <= H - h, so each h is one box,
    max(0, total_e - (H - h)) <= b_e <= min(total_e, h), which
    ``enumerate_magic_bounded`` searches with those floors and caps.
    Box H - h holds the complements c = total - b of box h, and (b, h)
    is a multiple of elem iff (c, H - h) is, so the least-height witness
    has h <= H / 2: only those boxes are searched, in order of m, then
    of h.  For kind "Q" the one box is b <= total and the height of b is
    its index.  ``budget`` caps the search nodes of each box's search
    separately: one search per (m, h) box for "P", one per m for "Q".
    """
    validate_element(g, kind, elem)
    m_max = as_int(m_max, "m_max", 1)
    if elem.height == 0 and not any(elem.labeling.labels):
        raise ValueError("the zero element is never completely fundamental")
    for m in range(1, m_max + 1):
        total = [m * x for x in elem.labeling.labels]
        total_h = m * elem.height
        if kind == "P":
            boxes = [
                (
                    h,
                    [min(t, h) for t in total],
                    [max(0, t - (total_h - h)) for t in total],
                )
                for h in range(total_h // 2 + 1)
            ]
        else:
            boxes = [(None, total, None)]
        for h, caps, floors in boxes:
            for b_lab in enumerate_magic_bounded(g, caps, floors=floors, budget=budget):
                h_b = is_magic(b_lab) if h is None else h
                if not _is_multiple(b_lab.labels, h_b, elem):
                    c_labels = tuple(t - x for t, x in zip(total, b_lab.labels))
                    return CFVerdict(
                        refuted=True,
                        m_max=m_max,
                        m=m,
                        b=SemigroupElement(b_lab, h_b),
                        c=SemigroupElement(
                            _made(g, c_labels, total_h - h_b if h is None else None),
                            total_h - h_b,
                        ),
                    )
    return CFVerdict(refuted=False, m_max=m_max)


def _sparse(values):
    """A vector as ``_combination`` takes it: (its nonzero (i, x), its sum)."""
    return tuple((i, x) for i, x in enumerate(values) if x), sum(values)


def _combination(vecs, target, budget) -> list[int] | None:
    """Counts, one per vector, of a nonnegative integer combination of
    ``vecs`` (made by ``_sparse``) equal to the nonnegative ``target``
    (trailing zeros may be left off), or None.  Depth first over one
    remainder updated in place, each count from the most it allows down
    to 0, so the first combination found has the lexicographically largest
    counts; a (depth, remainder) whose every count failed is dead, never
    searched again.  ``budget`` caps the counts tried."""
    budget = None if budget is None else as_int(budget, "budget")
    dead, counts, rem, tried = set(), [], list(target), 0
    left = sum(rem)  # zero exactly when rem is, as no entry is negative
    while left:
        depth = len(counts)
        if depth < len(vecs) and not (dead and (depth, tuple(rem)) in dead):
            support, weight = vecs[depth]
            count = min((rem[i] // x for i, x in support), default=0)
            counts.append(count)
            for i, x in support:
                rem[i] -= count * x
            left -= count * weight
        else:
            # Dead end: one fewer of the deepest vector with a count left.
            while counts and not counts[-1]:
                counts.pop()
                dead.add((len(counts), tuple(rem)))
            if not counts:
                return None
            counts[-1] -= 1  # one fewer: add the vector back once
            for i, x in vecs[len(counts) - 1][0]:
                rem[i] += x
            left += vecs[len(counts) - 1][1]
        tried += 1
        if budget is not None and tried > budget:
            raise BudgetExceededError.over(
                "Stanley extraction", "counts tried", budget, tried
            )
    return counts


def decompose_over_generators(
    elem: SemigroupElement, generators
) -> Counter | None:
    """Nonnegative integer combination of ``generators`` equal to ``elem``.

    Labels and heights must both match.  ``_combination`` searches the
    generators sorted by descending height, so the combination returned
    takes as many of each generator in turn as any combination does.
    Returns a Counter of generators, or None when no combination exists.
    """
    gens = sorted(
        generators, key=lambda e: (e.height, e.labeling.labels), reverse=True
    )
    for gen in gens:
        if gen.labeling.graph != elem.labeling.graph:
            raise ValueError("generators must live on the element's graph")
    vecs = [_sparse(gen.labeling.labels + (gen.height,)) for gen in gens]
    counts = _combination(vecs, elem.labeling.labels + (elem.height,), None)
    if counts is None:
        return None
    # Deeper levels are written first, so a generator listed twice keeps
    # the count of its shallowest listing that uses it.
    found = Counter()
    for gen, count in reversed(list(zip(gens, counts))):
        if count:
            found[gen] = count
    return found


def stanley_decompose(lab: Labeling, *, budget: int | None = None) -> list[Labeling]:
    """Split a magic labeling into magic pieces of index 1 or 2.

    Pieces sum to the input entrywise, sorted by labels, with one object
    per distinct piece.  On bipartite graphs every piece has index 1 (a
    perfect-matching indicator).  The zero labeling gives the empty
    list.  A piece's index, so each of its labels, is at most top: 1 on
    bipartite graphs, else 2.  Candidates are the magic labelings below
    min(lab, top) of index 1 to top; ``_combination`` searches every
    count of each, so when it finds no combination, no decomposition
    exists and ValueError is raised, as for a labeling that is not magic.
    That happens: join a hub to one vertex t of each of three triangles
    t u w and label uw 2, every other edge 1.  The index 3 is odd, and
    deleting the hub leaves three odd components, so there is no index-1
    piece.  ``budget`` caps the search nodes of the candidate search and,
    separately, the counts the combination search tries.  ``_pool``
    memoises the candidates and pieces per (graph, min(lab, top), budget):
    a hit searches no nodes, a budget error is not cached, and a piece's
    graph equals ``lab.graph`` but may be another object.
    """
    idx = is_magic(lab)
    if idx is None:
        raise ValueError("labeling is not magic")
    if idx == 0:
        return []
    g = lab.graph
    key = tuple(map(min, lab.labels, repeat(_top(g))))
    _, vecs, pieces, order = _pool(g, key, budget)
    counts = _combination(vecs, lab.labels, budget)
    if counts is None:
        raise ValueError(
            "labeling has no decomposition into magic labelings of index 1 and 2"
        )
    return [pieces[i] for i in order if i < len(counts) for _ in range(counts[i])]


@lru_cache(maxsize=64)
def _top(g: Graph) -> int:
    """The largest index of a Stanley piece on g, memoised per graph."""
    return 1 if is_bipartite(g) is not None else 2


@lru_cache(maxsize=512)
def _pool(g: Graph, caps: tuple[int, ...], budget: int | None):
    """The Stanley candidates at most ``caps`` of index 1 to ``_top(g)``:
    the sorted ``(index, labels)``, each one's ``_sparse`` vector and piece,
    and their order by labels, memoised per positional (graph, caps,
    budget); gn(5)'s index 1-9 need 31 of 512 entries.  Errors are not cached."""
    entries = tuple(sorted(_labelings(g, caps, range(1, _top(g) + 1), budget)))
    vecs = tuple(_sparse(labels) for _, labels in entries)
    pieces = tuple(_made(g, labels, index) for index, labels in entries)
    order = tuple(sorted(range(len(entries)), key=lambda i: entries[i][1]))
    return entries, vecs, pieces, order


class QuasiperiodCertificate(Value):
    """Structural certificate that the counting function has a small period.

    ``verdict`` is "polynomial", "quasiperiod_le_2", or "no_certificate".
    ``forced_edge`` is the edge attaining the maximum label in every
    index-2 magic labeling when one exists; ``vacuous`` records that the
    index-2 list was empty (only the zero labeling is magic, so the
    hypothesis holds trivially).
    """

    _fields = ("verdict", "bipartite", "forced_edge", "vacuous")

    def __init__(
        self,
        verdict: str,
        bipartite: bool,
        forced_edge: Edge | None = None,
        vacuous: bool = False,
    ):
        for name, value in zip(self._fields, (verdict, bipartite, forced_edge, vacuous)):
            object.__setattr__(self, name, value)


def certify_small_quasiperiod(
    g: Graph, *, budget: int | None = None
) -> QuasiperiodCertificate:
    """Sufficient-condition certifier for a small counting quasiperiod.

    When some edge attains the maximum label in every index-2 magic
    labeling (or no such labeling exists), the count of magic
    k-labelings has quasiperiod at most 2, and is a polynomial when the
    graph is also bipartite.  Returns "no_certificate" when the
    structural test fails; that is not a proof of a large quasiperiod.
    """
    index2 = enumerate_index_k(g, 2, budget=budget)
    verdict = forced_max_edge(g, index2)
    bipartite = is_bipartite(g) is not None
    if verdict is None:
        return QuasiperiodCertificate("no_certificate", bipartite)
    vacuous = verdict == "vacuous"
    edge = None if vacuous else verdict
    return QuasiperiodCertificate(
        "polynomial" if bipartite else "quasiperiod_le_2",
        bipartite,
        forced_edge=edge,
        vacuous=vacuous,
    )


def heights_lcm(elements) -> int:
    """Least common multiple of element heights (1 for an empty list)."""
    return lcm(*(e.height for e in elements)) if elements else 1
