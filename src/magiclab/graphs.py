"""Graph model with loops, fixed edge coordinates, and matching structure.

Edge order is significant everywhere: ``Graph.edges[i]`` is coordinate
``i`` of every label vector and every polytope point built downstream.
"""

from __future__ import annotations

import json
from functools import cached_property

from .errors import Value, as_int

Edge = tuple[str, str]


class Graph(Value):
    """Undirected graph; loops allowed, parallel non-loop edges rejected.

    Several loops at one vertex are representable (each loop is its own
    coordinate), which is what the one-vertex bouquet graphs need.  Use
    ``build_graph`` when validating untrusted edge lists; it applies the
    stricter no-repeated-pairs rule to loops as well.
    """

    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "edges", tuple((u, v) for u, v in edges))
        declared = set()
        for v in self.vertices:
            if v in declared:
                raise ValueError(f"duplicate vertex id {v!r}")
            declared.add(v)
        seen_pairs = set()
        for u, v in self.edges:
            if u not in declared or v not in declared:
                raise ValueError(f"edge ({u!r}, {v!r}) has an undeclared endpoint")
            if u != v:
                key = frozenset((u, v))
                if key in seen_pairs:
                    raise ValueError(f"duplicate edge ({u!r}, {v!r})")
                seen_pairs.add(key)

    @cached_property
    def incidence(self) -> dict[str, tuple[int, ...]]:
        """Edge indices at each vertex; a loop appears once at its vertex."""
        inc: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, (u, w) in enumerate(self.edges):
            inc[u].append(i)
            if w != u:
                inc[w].append(i)
        return {v: tuple(es) for v, es in inc.items()}

    @cached_property
    def degrees(self) -> dict[str, int]:
        """Conventional vertex degrees; a loop adds 2."""
        deg = {v: 0 for v in self.vertices}
        for u, w in self.edges:
            deg[u] += 1
            deg[w] += 1
        return deg


def build_graph(vertices, edges) -> Graph:
    """Validated constructor for user-supplied data.

    On top of the ``Graph`` invariants this rejects any repeated
    unordered pair, so two loops at the same vertex are an error here.
    Construct ``Graph`` directly (or use ``bouquet``) when parallel
    loops are intended.
    """
    loops = set()
    for u, v in edges:
        if u == v:
            if u in loops:
                raise ValueError(f"duplicate edge ({u!r}, {v!r})")
            loops.add(u)
    return Graph(tuple(vertices), tuple((u, v) for u, v in edges))


def make_gn(n: int) -> Graph:
    """Hubs x, y joined through n channels a_i, b_i by three-edge paths.

    Vertices are a_1..a_n, b_1..b_n, x, y.  Edge coordinate order: the
    rungs (a_i, b_i) for i = 1..n, then the spokes (x, a_i), then the
    spokes (y, b_i).
    """
    n = as_int(n, "n", 2)
    avs = [f"a{i}" for i in range(1, n + 1)]
    bvs = [f"b{i}" for i in range(1, n + 1)]
    edges = list(zip(avs, bvs))
    edges += [("x", a) for a in avs]
    edges += [("y", b) for b in bvs]
    return Graph(tuple(avs + bvs + ["x", "y"]), tuple(edges))


def make_gnp(n: int, p: int) -> Graph:
    """Hubs x, y joined by n internally disjoint paths of 2p+1 edges each.

    Has 2pn + 2 vertices and n(2p+1) edges; p = 1 gives the same shape
    as ``make_gn(n)``.  Edges are ordered path by path from x to y.
    """
    n, p = as_int(n, "n", 2), as_int(p, "p", 1)
    vertices: list[str] = []
    edges: list[Edge] = []
    for i in range(1, n + 1):
        inner = [f"c{i}_{j}" for j in range(1, 2 * p + 1)]
        vertices += inner
        chain = ["x", *inner, "y"]
        edges += list(zip(chain, chain[1:]))
    return Graph(tuple(vertices + ["x", "y"]), tuple(edges))


def bouquet(loops: int = 2) -> Graph:
    """Single vertex carrying the given number of loops."""
    loops = as_int(loops, "loop count")
    return Graph(("v",), tuple(("v", "v") for _ in range(loops)))


def path_graph(num_vertices: int) -> Graph:
    """Path v1 - v2 - ... - v_n."""
    num_vertices = as_int(num_vertices, "vertex count", 1)
    vs = [f"v{i}" for i in range(1, num_vertices + 1)]
    return Graph(tuple(vs), tuple(zip(vs, vs[1:])))


def cycle_graph(num_vertices: int) -> Graph:
    """Cycle v1 - v2 - ... - v_n - v1."""
    num_vertices = as_int(num_vertices, "vertex count", 3)
    vs = [f"v{i}" for i in range(1, num_vertices + 1)]
    return Graph(tuple(vs), tuple(zip(vs, vs[1:] + vs[:1])))


def is_bipartite(g: Graph) -> dict[str, int] | None:
    """A proper two-coloring as a vertex -> {0, 1} dict, or None.

    Any loop makes the graph non-bipartite.  Disconnected graphs are
    colored component by component.
    """
    color: dict[str, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for ei in g.incidence[v]:
                u, w = g.edges[ei]
                other = w if u == v else u
                if other == v:
                    return None
                if other not in color:
                    color[other] = 1 - color[v]
                    stack.append(other)
                elif color[other] == color[v]:
                    return None
    return color


def leaves(g: Graph) -> list[tuple[str, Edge]]:
    """Degree-1 vertices paired with their pendant edge.

    Loops add 2 to the degree, so a vertex whose only edge is a loop is
    not a leaf.
    """
    out = []
    for v in g.vertices:
        if g.degrees[v] == 1:
            (ei,) = g.incidence[v]
            out.append((v, g.edges[ei]))
    return out


def _matching_caps(g: Graph, loops_cover: bool) -> list[int]:
    # Under loops_cover=False every loop is capped at 0.
    return [1 if u != w or loops_cover else 0 for u, w in g.edges]


def _matchings(g: Graph, caps, budget: int | None = None, spent=None):
    # Perfect matchings are the 0/1 magic labelings of index 1 below caps,
    # one search whose nodes, added to spent's, stay within budget; it
    # finds nothing on a graph without vertices, whose one perfect
    # matching is the empty one.
    from .labelings import _labelings

    if not g.vertices:
        yield ()
        return
    for _, labels in _labelings(g, caps, (1,), budget, None, spent):
        yield tuple(i for i, x in enumerate(labels) if x)


def perfect_matchings(g: Graph, *, loops_cover: bool = True) -> list[tuple[int, ...]]:
    """All perfect matchings, as a sorted list of sorted edge-index tuples.

    A matching is perfect when every vertex is incident to exactly one
    chosen edge.  Under the default convention a loop covers its vertex
    by itself, which keeps index-1 magic labelings and perfect matchings
    in bijection on loop graphs.  Pass ``loops_cover=False`` for the
    stricter reading under which loops never belong to a matching.
    """
    return sorted(_matchings(g, _matching_caps(g, loops_cover)))


def has_perfect_matching(g: Graph, *, loops_cover: bool = True) -> bool:
    return next(_matchings(g, _matching_caps(g, loops_cover)), None) is not None


def matching_preclusion_class(g: Graph, *, budget: int | None = None) -> str:
    """Classify how many edge deletions destroy all perfect matchings.

    Loops never belong to a perfect matching here (``loops_cover=False``).
    Returns ``"no_pm"`` when g has none (as with an odd vertex count),
    ``"one"`` when some single edge deletion leaves none, else
    ``"greater_than_one"``.  Only an edge of a perfect matching M can lie
    in all of them, so one search per edge of M, capped at 0, decides.
    ``budget`` caps the nodes of all these searches together; ``None``
    means no cap.
    """
    caps = _matching_caps(g, False)
    spent = [0]
    found = None
    if len(g.vertices) % 2 == 0:
        found = next(_matchings(g, caps, budget, spent), None)
    if found is None:
        return "no_pm"
    for e in found:
        caps[e] = 0
        if next(_matchings(g, caps, budget, spent), None) is None:
            return "one"
        caps[e] = 1
    return "greater_than_one"


def forced_max_edge(g: Graph, index2_labelings) -> Edge | str | None:
    """Edge attaining the maximum label in every supplied index-2 labeling.

    ``index2_labelings`` must hold every index-2 magic labeling of g,
    in any iterable, read once.  Returns the first qualifying edge in
    coordinate order; the string ``"vacuous"`` when there is none (only
    the zero labeling is then magic); None when no edge qualifies.
    """
    from . import labelings as _labelings

    index2_labelings = list(index2_labelings)
    for lab in index2_labelings:
        if lab.graph != g or _labelings.is_magic(lab) != 2:
            raise ValueError("expected magic labelings of g with index 2")
    if not index2_labelings:
        return "vacuous"
    maxima = [max(lab.labels) for lab in index2_labelings]
    for ei in range(len(g.edges)):
        if all(lab.labels[ei] == mx for lab, mx in zip(index2_labelings, maxima)):
            return g.edges[ei]
    return None


def graph_to_json(g: Graph) -> str:
    """Canonical JSON form; the edge array order is the coordinate order."""
    payload = {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}
    return json.dumps(payload, separators=(",", ":"))


def graph_from_json(text: str) -> Graph:
    """Parse the JSON form produced by ``graph_to_json``.

    Parallel loops are accepted (the permissive ``Graph`` rules apply).
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("graph JSON is nested too deeply") from None
    if not isinstance(data, dict) or set(data) != {"vertices", "edges"}:
        raise ValueError('graph JSON must be {"vertices": [...], "edges": [...]}')
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("graph JSON vertices must be a list of strings")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
        for e in edges
    ):
        raise ValueError("graph JSON edges must be a list of two-element string lists")
    return Graph(tuple(vertices), tuple((u, v) for u, v in edges))


def graph_hash(g: Graph) -> str:
    """Short stable identifier tying labeling files to their graph."""
    import hashlib  # only labeling files need it, so CLI start-up skips it
    return hashlib.sha256(graph_to_json(g).encode("utf-8")).hexdigest()[:16]
