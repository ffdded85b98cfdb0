"""Acceptance suite: every verification check must pass, exactly.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; ``magiclab verify-paper`` prints the same checks.
"""

import pytest

from magiclab import Quasipolynomial, verification

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
