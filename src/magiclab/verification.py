"""Named verification checks over the built-in graph corpus.

Each check recomputes a known or independently derived fact from
scratch and compares exactly.  The CLI ``verify-paper`` subcommand and
the acceptance test suite both run these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import geometry, labelings, quasipolynomials, semigroups
from .errors import Value
from .graphs import (
    Graph,
    bouquet,
    build_graph,
    cycle_graph,
    is_bipartite,
    leaves,
    make_gn,
    make_gnp,
    matching_preclusion_class,
    path_graph,
)
from .labelings import li_matching, lstar
from .quasipolynomials import Quasipolynomial, samples_needed


class CheckResult(Value):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        for field, value in zip(self._fields, (name, passed, detail)):
            object.__setattr__(self, field, value)


def bridged_blocks() -> Graph:
    """Two odd bipartite blocks joined by a single bridge.

    Each block is a three-vertex path whose end vertex carries the
    bridge; deleting the bridge leaves two odd components, so the graph
    has matching preclusion number 1 while still having a perfect
    matching.
    """
    return build_graph(
        ["a1", "b1", "c1", "a2", "b2", "c2"],
        [["a1", "b1"], ["b1", "c1"], ["a2", "b2"], ["b2", "c2"], ["a1", "a2"]],
    )


def corpus() -> list[tuple[str, Graph]]:
    """The fixed test corpus used by the corpus-wide checks."""
    graphs: list[tuple[str, Graph]] = []
    for n in range(2, 6):
        graphs.append((f"g{n}", make_gn(n)))
    graphs.append(("gnp_2_2", make_gnp(2, 2)))
    graphs.append(("gnp_3_2", make_gnp(3, 2)))
    graphs.append(("two_loops", bouquet(2)))
    for n in range(2, 6):
        graphs.append((f"path{n}", path_graph(n)))
    for n in range(3, 9):
        graphs.append((f"cycle{n}", cycle_graph(n)))
    graphs.append(("bridged_blocks", bridged_blocks()))
    return graphs


# Expensive pure computations are cached per graph so that checks can
# share them; only graph-derived values are cached, never fits of the
# auxiliary number-theoretic functions.


@lru_cache(maxsize=None)
def _ehrhart_p(g: Graph) -> Quasipolynomial:
    return quasipolynomials.ehrhart_of_polytope(g, "P")


def _fit_fn(n: int) -> Quasipolynomial:
    # The summatory binomial function of order n: period n, degree n + 1.
    samples = [quasipolynomials.f_n(n, k) for k in range(samples_needed(n, n + 1))]
    return quasipolynomials.fit_quasipolynomial(samples, n, n + 1)


_G4_CONSTITUENTS = (
    ("1", "2", "25/18", "4/9", "1/18"),
    ("10/9", "2", "25/18", "4/9", "1/18"),
    ("1", "2", "25/18", "4/9", "1/18"),
)


def check_g4_ehrhart_exact() -> str | None:
    q = _ehrhart_p(make_gn(4))
    expected = Quasipolynomial(
        3, tuple(tuple(Fraction(c) for c in cs) for cs in _G4_CONSTITUENTS)
    )
    if q != expected:
        return f"fitted {q} differs from the expected constituents"
    return None


def check_closed_form_counts() -> str | None:
    for n in range(2, 7):
        counts = labelings.count_series(make_gn(n), 6)[0]
        for k, got in enumerate(counts):
            want = quasipolynomials.closed_form_mn(n, k)
            if got != want:
                return f"n={n} k={k}: counted {got}, closed form {want}"
    return None


def check_gn_vertex_denominators() -> str | None:
    for n in range(2, 9):
        g = make_gn(n)
        verts = geometry.polytope_vertices(g, "P")
        if len(verts) != n + 2:
            return f"n={n}: {len(verts)} vertices, expected {n + 2}"
        expected = {tuple(Fraction(0) for _ in g.edges)}
        for i in range(1, n + 1):
            expected.add(tuple(Fraction(x) for x in li_matching(n, i).labels))
        expected.add(tuple(Fraction(x, n - 1) for x in lstar(n).labels))
        if set(verts) != expected:
            return f"n={n}: vertex set mismatch"
        den = geometry.polytope_denominator(g, "P")
        if den != n - 1:
            return f"n={n}: denominator {den}, expected {n - 1}"
    return None


def check_two_loop_example() -> str | None:
    g = bouquet(2)
    square = {
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
    }
    if set(geometry.polytope_vertices(g, "P")) != square:
        return "P vertices are not the unit-square corners"
    segment = {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}
    if set(geometry.polytope_vertices(g, "Q")) != segment:
        return "Q vertices are not the two segment endpoints"
    cf_p = {
        (e.labeling.labels, e.height) for e in semigroups.cf_elements(g, "P")
    }
    if cf_p != {((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), 1)}:
        return "P-semigroup fundamental elements mismatch"
    cf_q = {
        (e.labeling.labels, e.height) for e in semigroups.cf_elements(g, "Q")
    }
    if cf_q != {((0, 1), 1), ((1, 0), 1)}:
        return "Q-semigroup fundamental elements mismatch"
    return None


def check_difference_floor_identity() -> str | None:
    for n in range(1, 7):
        sym = _fit_fn(n)
        for _ in range(n):
            sym = sym.difference()
        for t in range(51):
            want = t // n + 1
            if sym.evaluate(t) != want:
                return f"n={n} t={t}: symbolic {sym.evaluate(t)} != {want}"
            direct = quasipolynomials.iterated_difference_of_fn(n, n, t)
            if direct != want:
                return f"n={n} t={t}: direct sum {direct} != {want}"
    return None


def check_minimum_quasiperiod_values() -> str | None:
    for n in range(1, 7):
        mqp = _fit_fn(n).period
        if mqp != n:
            return f"summatory function order {n}: quasiperiod {mqp} != {n}"
    for n in range(2, 8):
        mqp = _ehrhart_p(make_gn(n)).period
        if mqp != n - 1:
            return f"gn n={n}: quasiperiod {mqp} != {n - 1}"
    return None


def check_quasiperiod_divides_denominator() -> str | None:
    # The fit saw the counts below its window only, so one full period of
    # the denominator past the window tests it at every residue.  The
    # counts there come from the pure DP sweep: count_magic_k may read its
    # index passes from a fit too.
    for name, g in corpus():
        den = geometry.polytope_denominator(g, "P")
        periods = geometry.coefficient_periods(g, "P")
        q = _ehrhart_p(g)
        if den % q.period:
            return f"{name}: quasiperiod {q.period} does not divide {den}"
        window = samples_needed(periods, len(periods) - 1)
        counts = labelings._sweep(g, window + den - 1, None)[0]
        for t in range(window, window + den):
            if counts[t] != q.evaluate(t):
                return f"{name} k={t}: counted {counts[t]}, fitted {q.evaluate(t)}"
    return None


def check_stanley_decomposition() -> str | None:
    for name, g in corpus():
        bipartite = is_bipartite(g) is not None
        for k in range(5):
            for lab in labelings.enumerate_index_k(g, k):
                pieces = semigroups.stanley_decompose(lab)
                total = [0] * len(g.edges)
                for piece in pieces:
                    pidx = labelings.is_magic(piece)
                    if pidx not in (1, 2):
                        return f"{name} k={k}: piece of index {pidx}"
                    if bipartite and pidx != 1:
                        return f"{name} k={k}: bipartite piece of index {pidx}"
                    total = [t + p for t, p in zip(total, piece.labels)]
                if tuple(total) != lab.labels:
                    return f"{name} k={k}: pieces do not sum to the labeling"
    return None


def check_small_quasiperiod_certificates() -> str | None:
    for name, g in corpus():
        if is_bipartite(g) is None:
            continue
        if not leaves(g) and matching_preclusion_class(g) != "one":
            continue
        cert = semigroups.certify_small_quasiperiod(g)
        if cert.verdict != "polynomial":
            return f"{name}: certificate {cert.verdict!r}, expected polynomial"
        q = _ehrhart_p(g)
        if q.period != 1:
            return f"{name}: fitted quasiperiod {q.period} != 1"
    return None


def check_gnp_count_invariance() -> str | None:
    for n in range(2, 4):
        want = labelings.count_series(make_gn(n), 4)[0]
        for p in range(1, 3):
            got = labelings.count_series(make_gnp(n, p), 4)[0]
            for k, (a, b) in enumerate(zip(want, got)):
                if a != b:
                    return f"n={n} p={p} k={k}: {a} != {b}"
    return None


def check_cf_element_oracle() -> str | None:
    targets = [(f"g{n}", make_gn(n)) for n in range(2, 7)]
    targets.append(("two_loops", bouquet(2)))
    for name, g in targets:
        for elem in semigroups.cf_elements(g, "P"):
            verdict = semigroups.verify_completely_fundamental(g, "P", elem, 3)
            if verdict.refuted:
                return f"{name}: element {elem.labeling.labels} refuted"
    for n in range(2, 7):
        g = make_gn(n)
        bad = semigroups.SemigroupElement(lstar(n), n)
        verdict = semigroups.verify_completely_fundamental(g, "P", bad, 1)
        if not verdict.refuted:
            return f"gn n={n}: non-fundamental element was not refuted"
    return None


CHECKS: tuple[tuple[str, object], ...] = (
    ("g4-ehrhart-exact", check_g4_ehrhart_exact),
    ("closed-form-counts", check_closed_form_counts),
    ("gn-vertex-denominators", check_gn_vertex_denominators),
    ("two-loop-example", check_two_loop_example),
    ("difference-floor-identity", check_difference_floor_identity),
    ("minimum-quasiperiod-values", check_minimum_quasiperiod_values),
    ("quasiperiod-divides-denominator", check_quasiperiod_divides_denominator),
    ("stanley-decomposition", check_stanley_decomposition),
    ("small-quasiperiod-certificates", check_small_quasiperiod_certificates),
    ("gnp-count-invariance", check_gnp_count_invariance),
    ("cf-element-oracle", check_cf_element_oracle),
)


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


def run_check(name: str) -> CheckResult:
    table = dict(CHECKS)
    if name not in table:
        raise ValueError(f"unknown check {name!r}")
    try:
        detail = table[name]()
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")
    if detail is None:
        return CheckResult(name, True)
    return CheckResult(name, False, detail)


def run_checks(filter_substring: str | None = None) -> list[CheckResult]:
    results = []
    for name, _ in CHECKS:
        if filter_substring and filter_substring not in name:
            continue
        results.append(run_check(name))
    return results
