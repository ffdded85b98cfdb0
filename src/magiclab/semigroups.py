"""Semigroups of magic labelings graded by height.

An element pairs an integral magic labeling with a height k.  For the
max-label semigroup (kind "P") the height must be at least the largest
label; for the index semigroup (kind "Q") it must equal the index.
Addition is entrywise on labels and heights.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from math import lcm

from . import geometry
from .errors import BudgetExceededError
from .graphs import Edge, Graph, forced_max_edge, is_bipartite
from .labelings import (
    Labeling,
    _labelings,
    enumerate_index_k,
    enumerate_magic_bounded,
    is_magic,
    max_label,
)


@dataclass(frozen=True)
class SemigroupElement:
    labeling: Labeling
    height: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "height", operator.index(self.height))
        except TypeError:
            raise ValueError("height must be an integer") from None
        if self.height < 0:
            raise ValueError("height must be nonnegative")


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
    return [SemigroupElement(Labeling(g, r[1:]), r[0]) for r in rays]


@dataclass(frozen=True)
class CFVerdict:
    """Outcome of the brute-force complete-fundamentality check.

    When ``refuted``, heights and labels of ``b`` and ``c`` witness a
    decomposition b + c = m * elem whose left part is not a multiple of
    elem.  Otherwise no refutation exists for any multiplier up to
    ``m_max`` (which is not a proof beyond that bound).
    """

    refuted: bool
    m_max: int
    m: int | None = None
    b: SemigroupElement | None = None
    c: SemigroupElement | None = None


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
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
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
                        c=SemigroupElement(Labeling(g, c_labels), total_h - h_b),
                    )
    return CFVerdict(refuted=False, m_max=m_max)


def decompose_over_generators(
    elem: SemigroupElement, generators
) -> Counter | None:
    """Nonnegative integer combination of ``generators`` equal to ``elem``.

    Labels and heights must both match.  Search is depth first over
    generators sorted by descending height, with an explicit stack of
    (remainder, count) per generator; each count runs from the most the
    remainder allows down to 0.  Returns a Counter of generators, or
    None when no combination exists.
    """
    gens = sorted(
        generators, key=lambda e: (e.height, e.labeling.labels), reverse=True
    )
    for gen in gens:
        if gen.labeling.graph != elem.labeling.graph:
            raise ValueError("generators must live on the element's graph")
    vecs = [list(gen.labeling.labels) + [gen.height] for gen in gens]
    rem = list(elem.labeling.labels) + [elem.height]
    stack: list[tuple[list[int], int]] = []
    while any(rem):
        if len(stack) < len(vecs):
            vec = vecs[len(stack)]
            stack.append((rem, min((r // v for r, v in zip(rem, vec) if v), default=0)))
        else:
            # Dead end: one fewer of the deepest generator with a count left.
            while stack and not stack[-1][1]:
                stack.pop()
            if not stack:
                return None
            stack[-1] = (stack[-1][0], stack[-1][1] - 1)
        prev, count = stack[-1]
        rem = [r - count * v for r, v in zip(prev, vecs[len(stack) - 1])]
    # Deeper levels are written first, so a generator listed twice keeps
    # the count of its shallowest listing that uses it.
    found = Counter()
    for gen, (_, count) in reversed(list(zip(gens, stack))):
        if count:
            found[gen] = count
    return found


def stanley_decompose(lab: Labeling, *, budget: int | None = None) -> list[Labeling]:
    """Split a magic labeling into magic pieces of index 1 or 2.

    Pieces sum to the input entrywise, sorted by labels, with one object
    per distinct piece.  On bipartite graphs every piece has index 1 (a
    perfect-matching indicator).  The zero labeling gives the empty
    list.  Candidates are the magic labelings below min(lab, 2) at index
    1, and also 2 off bipartite graphs; a full backtracking extraction
    tries them, so when it finds none, no decomposition exists and
    ValueError is raised, as for a labeling that is not magic.  That
    happens: join a hub to one vertex t of each of three triangles t u w
    and label uw 2, every other edge 1.  The index 3 is odd, and deleting
    the hub leaves three odd components, so there is no index-1 piece.
    ``budget`` caps the search nodes of the candidate search at the
    allowed indices and, separately, the number of candidate pieces the
    extraction tries.
    """
    idx = is_magic(lab)
    if idx is None:
        raise ValueError("labeling is not magic")
    if idx == 0:
        return []
    g = lab.graph
    allowed = (1,) if is_bipartite(g) is not None else (1, 2)
    caps = [min(x, 2) for x in lab.labels]
    pool = sorted((t, tuple(p)) for t, p in _labelings(g, caps, allowed, budget))
    pieces = _extract(pool, lab.labels, idx, budget)
    if pieces is None:
        raise ValueError(
            "labeling has no decomposition into magic labelings of index 1 and 2"
        )
    shared = {p: Labeling(g, p) for p in set(pieces)}
    return [shared[p] for p in sorted(pieces)]


def _extract(pool, labels, idx, budget) -> list[tuple[int, ...]] | None:
    # Depth first: at each remainder take the first (index, piece) of the
    # pool that fits and whose remainder is not known to be dead.  The
    # stack holds (remainder, its index, next pool position) for each
    # ancestor of the remainder being scanned, so the pieces taken so far
    # are pool[start - 1] of its frames.
    dead: set[tuple[int, ...]] = set()
    stack = [(labels, idx, 0)]
    tried = 0
    while stack:
        rem, rem_idx, start = stack.pop()
        for i in range(start, len(pool)):
            tried += 1
            if budget is not None and tried > budget:
                raise BudgetExceededError.over(
                    "Stanley extraction", "pieces tried", budget, tried
                )
            p_idx, piece = pool[i]
            if p_idx > rem_idx or not all(map(operator.le, piece, rem)):
                continue
            if p_idx == rem_idx:
                return [pool[s - 1][1] for _, _, s in stack] + [piece]
            nxt = tuple(map(operator.sub, rem, piece))
            if nxt in dead:
                continue
            stack.append((rem, rem_idx, i + 1))
            stack.append((nxt, rem_idx - p_idx, 0))
            break
        else:
            dead.add(rem)
    return None


@dataclass(frozen=True)
class QuasiperiodCertificate:
    """Structural certificate that the counting function has a small period.

    ``verdict`` is "polynomial", "quasiperiod_le_2", or "no_certificate".
    ``forced_edge`` is the edge attaining the maximum label in every
    index-2 magic labeling when one exists; ``vacuous`` records that the
    index-2 list was empty (only the zero labeling is magic, so the
    hypothesis holds trivially).
    """

    verdict: str
    bipartite: bool
    forced_edge: Edge | None = None
    vacuous: bool = False


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
