"""Acceptance suite: every verification check must pass, exactly.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; ``magiclab verify-paper`` prints the same checks.
"""

from types import SimpleNamespace

import pytest

from magiclab import (
    Quasipolynomial,
    geometry,
    labelings,
    quasipolynomials,
    semigroups,
    verification,
)

CRITERIA = verification.check_names()


def test_the_criteria_list_is_complete():
    assert CRITERIA == [
        "g4-ehrhart-exact",
        "closed-form-counts",
        "gn-vertex-denominators",
        "two-loop-example",
        "difference-floor-identity",
        "minimum-quasiperiod-values",
        "quasiperiod-divides-denominator",
        "stanley-decomposition",
        "small-quasiperiod-certificates",
        "gnp-count-invariance",
        "cf-element-oracle",
    ]


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(name):
    result = verification.run_check(name)
    print(f"{'PASS' if result.passed else 'FAIL'}: {name}"
          + (f" ({result.detail})" if result.detail else ""))
    assert result.passed, f"{name}: {result.detail}"


def test_a_wrong_fit_fails_the_divides_denominator_check(monkeypatch):
    # Each fit is perturbed at its residue 0, which one more period of
    # counts past the fit's samples always reaches.
    fit = verification._ehrhart_p

    def perturbed(g):
        q = fit(g)
        first, *rest = q.constituents
        return Quasipolynomial(q.period, ((first[0] + 1, *first[1:]), *rest))

    monkeypatch.setattr(verification, "_ehrhart_p", perturbed)
    result = verification.run_check("quasiperiod-divides-denominator")
    assert not result.passed and "counted" in result.detail


def test_an_unknown_check_raises():
    with pytest.raises(ValueError, match="unknown check 'no-such-check'"):
        verification.run_check("no-such-check")


_vertices = geometry.polytope_vertices
_cf = semigroups.cf_elements
_stanley = semigroups.stanley_decompose


def _shifted_vertices(g, kind, **kw):
    return [tuple(c + 1 for c in v) for v in _vertices(g, kind, **kw)]


def _no_q_vertices(g, kind, **kw):
    return _vertices(g, kind, **kw) if kind == "P" else []


def _no_q_elements(g, kind, **kw):
    return _cf(g, kind, **kw) if kind == "P" else []


def _index2_whole(lab, **kw):
    return [lab] if labelings.is_magic(lab) == 2 else _stanley(lab, **kw)


_ZERO = Quasipolynomial(1, ((0,),))
_PERIOD_2 = Quasipolynomial(2, ((0,), (1,)))


# One row per failure return of the checks, but for the "counted" return
# of quasiperiod-divides-denominator, which has its own test above:
# (check, module, attribute, replacement, detail).  Each replaces the one
# input its return reads, and the check must fail with that return's
# detail, not with "raised ...".
FAILURES = [
    ("g4-ehrhart-exact", verification, "_ehrhart_p", lambda g: _ZERO,
     f"fitted {_ZERO} differs from the expected constituents"),
    ("closed-form-counts", labelings, "count_series",
     lambda g, k, **kw: ([0] * (k + 1), [0] * (k + 1)),
     "n=2 k=0: counted 0, closed form 1"),
    ("gn-vertex-denominators", geometry, "polytope_vertices",
     lambda g, kind, **kw: [], "n=2: 0 vertices, expected 4"),
    ("gn-vertex-denominators", geometry, "polytope_vertices", _shifted_vertices,
     "n=2: vertex set mismatch"),
    ("gn-vertex-denominators", geometry, "polytope_denominator",
     lambda g, kind, **kw: 0, "n=2: denominator 0, expected 1"),
    ("two-loop-example", geometry, "polytope_vertices", lambda g, kind, **kw: [],
     "P vertices are not the unit-square corners"),
    ("two-loop-example", geometry, "polytope_vertices", _no_q_vertices,
     "Q vertices are not the two segment endpoints"),
    ("two-loop-example", semigroups, "cf_elements", lambda g, kind, **kw: [],
     "P-semigroup fundamental elements mismatch"),
    ("two-loop-example", semigroups, "cf_elements", _no_q_elements,
     "Q-semigroup fundamental elements mismatch"),
    ("difference-floor-identity", verification, "_fit_fn", lambda n: _ZERO,
     "n=1 t=0: symbolic 0 != 1"),
    ("difference-floor-identity", quasipolynomials, "iterated_difference_of_fn",
     lambda n, i, t: -1, "n=1 t=0: direct sum -1 != 1"),
    ("minimum-quasiperiod-values", verification, "_fit_fn", lambda n: _ZERO,
     "summatory function order 2: quasiperiod 1 != 2"),
    ("minimum-quasiperiod-values", verification, "_ehrhart_p", lambda g: _ZERO,
     "gn n=3: quasiperiod 1 != 2"),
    ("quasiperiod-divides-denominator", geometry, "polytope_denominator",
     lambda g, kind, **kw: 1, "g3: quasiperiod 2 does not divide 1"),
    ("stanley-decomposition", semigroups, "stanley_decompose",
     lambda lab, **kw: [lab], "g2 k=0: piece of index 0"),
    ("stanley-decomposition", semigroups, "stanley_decompose", _index2_whole,
     "g2 k=2: bipartite piece of index 2"),
    ("stanley-decomposition", semigroups, "stanley_decompose",
     lambda lab, **kw: _stanley(lab, **kw) * 2,
     "g2 k=1: pieces do not sum to the labeling"),
    ("small-quasiperiod-certificates", semigroups, "certify_small_quasiperiod",
     lambda g, **kw: SimpleNamespace(verdict="no_certificate"),
     "path2: certificate 'no_certificate', expected polynomial"),
    ("small-quasiperiod-certificates", verification, "_ehrhart_p",
     lambda g: _PERIOD_2, "path2: fitted quasiperiod 2 != 1"),
    ("gnp-count-invariance", labelings, "count_series",
     lambda g, k, **kw: ([len(g.edges)] * (k + 1), [0] * (k + 1)),
     "n=2 p=2 k=0: 6 != 10"),
    ("cf-element-oracle", semigroups, "verify_completely_fundamental",
     lambda g, kind, elem, m_max=3, **kw: SimpleNamespace(refuted=True),
     "g2: element (0, 0, 0, 0, 0, 0) refuted"),
    ("cf-element-oracle", semigroups, "verify_completely_fundamental",
     lambda g, kind, elem, m_max=3, **kw: SimpleNamespace(refuted=False),
     "gn n=2: non-fundamental element was not refuted"),
]


@pytest.mark.parametrize(
    "name, module, attr, replacement, detail",
    FAILURES,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(FAILURES)],
)
def test_each_failure_return_can_fire(monkeypatch, name, module, attr, replacement,
                                      detail):
    monkeypatch.setattr(module, attr, replacement)
    result = verification.run_check(name)
    assert not result.passed
    assert result.detail == detail
