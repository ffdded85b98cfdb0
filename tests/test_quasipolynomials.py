"""Quasipolynomial algebra, fitting, and periods."""

from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from magiclab import (
    BudgetExceededError,
    Quasipolynomial,
    binomial,
    bouquet,
    closed_form_mn,
    count_magic_k,
    ehrhart_of_polytope,
    f_n,
    fit_quasipolynomial,
    iterated_difference_of_fn,
    make_gn,
    path_graph,
)

F = Fraction

G4_EXPECTED = Quasipolynomial(
    3,
    (
        (F(1), F(2), F(25, 18), F(4, 9), F(1, 18)),
        (F(10, 9), F(2), F(25, 18), F(4, 9), F(1, 18)),
        (F(1), F(2), F(25, 18), F(4, 9), F(1, 18)),
    ),
)


def fit_fn(n):
    samples = [f_n(n, k) for k in range(n * (n + 3))]
    return fit_quasipolynomial(samples, n, n + 1)


class TestBinomial:
    def test_diagonal(self):
        assert binomial(3, 3) == 1

    def test_below_diagonal_is_zero(self):
        assert binomial(0, 3) == 0
        assert binomial(2, 3) == 0

    def test_product_value(self):
        assert binomial(7, 4) == 35

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binomial(3, -1)


class TestFn:
    def test_small_values(self):
        assert f_n(3, 3) == 1  # terms at j = 0 and j = 3
        assert f_n(1, 4) == 10  # 0 + 1 + 2 + 3 + 4

    def test_vanishes_below_order(self):
        for n in range(1, 6):
            for k in range(n):
                assert f_n(n, k) == 0

    def test_triangular_numbers(self):
        for k in range(12):
            assert f_n(1, k) == k * (k + 1) // 2

    def test_oracle_sum(self):
        for n in range(1, 5):
            for k in range(20):
                want = sum(comb(j, n) for j in range(k + 1) if j % n == k % n)
                assert f_n(n, k) == want

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            f_n(0, 1)
        with pytest.raises(ValueError):
            f_n(2, -1)


class TestClosedForm:
    def test_g4_value(self):
        assert closed_form_mn(4, 3) == 35 + 1 == 36

    def test_n2_is_squares(self):
        for k in range(11):
            assert closed_form_mn(2, k) == (k + 1) ** 2

    def test_k0_is_one(self):
        for n in range(2, 7):
            assert closed_form_mn(n, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            closed_form_mn(1, 2)


class TestEvaluate:
    def test_constant(self):
        q = Quasipolynomial(1, ((F(1),),))
        assert all(q.evaluate(t) == 1 for t in range(-5, 6))

    def test_g4_reference_points(self):
        assert G4_EXPECTED.evaluate(3) == 36
        assert G4_EXPECTED.evaluate(4) == 74

    def test_negative_arguments_use_residues(self):
        q = Quasipolynomial(2, ((F(0),), (F(1),)))
        assert q.evaluate(-1) == 1 and q.evaluate(-2) == 0
        # the nonnegative residue of -2 mod 3 is 1
        want = sum(c * (-2) ** i for i, c in enumerate(G4_EXPECTED.constituents[1]))
        assert G4_EXPECTED.evaluate(-2) == want


class TestConstruction:
    def test_bool_period_is_stored_as_an_int(self):
        q = Quasipolynomial(True, ((F(1),),))
        assert type(q.period) is int and q.to_json() == '{"period":1,"constituents":[["1"]]}'

    @pytest.mark.parametrize("period", [1.0, 1.5, "1"])
    def test_non_integer_period_rejected(self, period):
        with pytest.raises(ValueError, match="period"):
            Quasipolynomial(period, ((F(1),),))

    def test_float_coefficient_rejected(self):
        # Fraction(0.1) would be 3602879701896397/36028797018963968.
        with pytest.raises(ValueError, match="exact"):
            Quasipolynomial(1, ((0.1,),))

    def test_exact_coefficients_accepted(self):
        q = Quasipolynomial(1, ((1, F(1, 3), "1/2"),))
        assert q.constituents == ((F(1), F(1, 3), F(1, 2)),)


class TestDifference:
    def test_square(self):
        q = Quasipolynomial(1, ((F(0), F(0), F(1)),))
        assert q.difference().constituents == ((F(1), F(2)),)

    def test_constant_goes_to_zero(self):
        q = Quasipolynomial(1, ((F(7),),))
        d = q.difference()
        assert d.degree == -1 and d.evaluate(3) == 0

    def test_matches_pointwise_difference(self):
        for q in [G4_EXPECTED, fit_fn(2), fit_fn(3)]:
            d = q.difference()
            for t in range(-20, 21):
                assert d.evaluate(t) == q.evaluate(t + 1) - q.evaluate(t)

    def test_fitted_f3_three_differences(self):
        d = fit_fn(3)
        for _ in range(3):
            d = d.difference()
        for t in range(31):
            assert d.evaluate(t) == t // 3 + 1


class TestIteratedDifference:
    def test_i_zero_is_fn(self):
        for k in range(21):
            assert iterated_difference_of_fn(3, 0, k) == f_n(3, k)

    def test_floor_value(self):
        assert iterated_difference_of_fn(3, 3, 7) == 3

    def test_direct_sum(self):
        assert iterated_difference_of_fn(2, 1, 5) == 9

    def test_agrees_with_symbolic_differences(self):
        for n in range(1, 6):
            d = fit_fn(n)
            for i in range(n + 1):
                for t in range(31):
                    assert d.evaluate(t) == iterated_difference_of_fn(n, i, t)
                if i < n:
                    d = d.difference()

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            iterated_difference_of_fn(3, 4, 1)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            iterated_difference_of_fn(0, 0, 3)


class TestFit:
    def test_square_polynomial(self):
        q = fit_quasipolynomial([(k + 1) ** 2 for k in range(8)], 1, 2)
        assert q.constituents == ((F(1), F(2), F(1)),)

    def test_g4_counts_reproduce_expected_quasipolynomial(self):
        samples = [count_magic_k(make_gn(4), k) for k in range(21)]
        q = fit_quasipolynomial(samples, 3, 4)
        assert q == G4_EXPECTED

    def test_f2_fit_has_matching_difference_oracle(self):
        q = fit_fn(2)
        d = q.difference().difference()
        for t in range(25):
            assert d.evaluate(t) == iterated_difference_of_fn(2, 2, t)

    def test_wrong_degree_detected(self):
        # the order-2 summatory function has degree 3, so degree 2 must fail
        samples = [f_n(2, k) for k in range(16)]
        with pytest.raises(ValueError):
            fit_quasipolynomial(samples, 2, 2)

    def test_wrong_period_detected(self):
        samples = [count_magic_k(make_gn(4), k) for k in range(21)]
        with pytest.raises(ValueError):
            fit_quasipolynomial(samples, 2, 4)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_quasipolynomial([1, 2], 1, 2)

    def test_float_sample_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            fit_quasipolynomial([1, 1, 0.5], 1, 0)

    def test_round_trip_on_every_sample(self):
        samples = [f_n(3, k) for k in range(24)]
        q = fit_quasipolynomial(samples, 3, 4)
        assert all(q.evaluate(k) == v for k, v in enumerate(samples))


@st.composite
def exact_quasipolynomials(draw):
    """A period 1..4, a degree 0..4 and small exact coefficients, zeros often."""
    period, degree = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    coeff = st.one_of(
        st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=6)
    )
    constituent = st.lists(coeff, min_size=degree + 1, max_size=degree + 1)
    parts = tuple(tuple(draw(constituent)) for _ in range(period))
    return degree, Quasipolynomial(period, parts)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(exact_quasipolynomials())
def test_fit_round_trips_an_exact_quasipolynomial(case):
    degree, q = case
    samples = [q.evaluate(k) for k in range(q.period * (degree + 2))]
    assert fit_quasipolynomial(samples, q.period, degree) == q
    # A period the minimum one does not divide must fail; each residue
    # class then gets degree + 2 samples of every constituent it meets.
    least = q.minimum_quasiperiod()
    for wrong in range(1, 5):
        if wrong % least:
            n = wrong * least * (degree + 2)
            with pytest.raises(ValueError):
                fit_quasipolynomial([q.evaluate(k) for k in range(n)], wrong, degree)


class TestMinimumQuasiperiod:
    def test_polynomial_is_one(self):
        q = Quasipolynomial(1, ((F(1), F(1)),))
        assert q.minimum_quasiperiod() == 1

    def test_padded_period_collapses(self):
        q = Quasipolynomial(4, ((F(1),), (F(2),), (F(1),), (F(2),)))
        assert q.minimum_quasiperiod() == 2
        assert q.normalized().period == 2

    def test_fitted_g4(self):
        samples = [count_magic_k(make_gn(4), k) for k in range(21)]
        assert fit_quasipolynomial(samples, 3, 4).minimum_quasiperiod() == 3

    def test_fitted_fn(self):
        for n in range(1, 7):
            assert fit_fn(n).minimum_quasiperiod() == n

    def test_difference_preserves_mqp(self):
        qs = [fit_fn(n) for n in range(2, 7)]
        qs += [ehrhart_of_polytope(make_gn(n), "P") for n in range(2, 5)]
        for q in qs:
            d = q.difference()
            if d.degree < 0:  # constant input, excluded case
                continue
            assert d.minimum_quasiperiod() == q.minimum_quasiperiod()


class TestEhrhart:
    def test_g2(self):
        q = ehrhart_of_polytope(make_gn(2), "P")
        assert q.constituents == ((F(1), F(2), F(1)),)
        assert q.minimum_quasiperiod() == 1

    def test_two_loops_unit_square(self):
        q = ehrhart_of_polytope(bouquet(2), "P")
        assert q.constituents == ((F(1), F(2), F(1)),)

    def test_g4_full_pipeline(self):
        q = ehrhart_of_polytope(make_gn(4), "P")
        assert q == G4_EXPECTED
        assert q.minimum_quasiperiod() == 3

    def test_evaluations_match_counts(self):
        g = make_gn(3)
        q = ehrhart_of_polytope(g, "P")
        for k in range(12):
            assert q.evaluate(k) == count_magic_k(g, k)

    def test_q_polytope_of_gn(self):
        # index-exact counts of the channel family are pure binomials
        q = ehrhart_of_polytope(make_gn(3), "Q")
        assert q.period == 1
        assert [q.evaluate(k) for k in range(5)] == [1, 3, 6, 10, 15]

    def test_empty_polytope_raises(self):
        with pytest.raises(ValueError):
            ehrhart_of_polytope(path_graph(3), "Q")

    def test_one_budget_caps_the_vertex_enumeration(self):
        # gn(4)/P takes 36 pair tests; at 36 the vertices are found and
        # the counts then exceed the same budget in state transitions.
        with pytest.raises(BudgetExceededError, match="vertex enumeration"):
            ehrhart_of_polytope(make_gn(4), budget=35)
        with pytest.raises(
            BudgetExceededError,
            match="counting exceeded the budget of 36 state transitions",
        ):
            ehrhart_of_polytope(make_gn(4), budget=36)
        # The 18 counts share one budget: 44,973 transitions in all, though
        # the largest step of the sweep (k = 17: the index pass at 17 and
        # the passes at 18..34 that the cap binds) takes 8,430.
        assert ehrhart_of_polytope(make_gn(4), budget=44973).minimum_quasiperiod() == 3
        for budget, reached in ((44972, 44973), (8430, 8431)):
            with pytest.raises(BudgetExceededError) as err:
                ehrhart_of_polytope(make_gn(4), budget=budget)
            assert (err.value.phase, err.value.consumed) == ("counting", reached)

    def test_one_budget_caps_the_q_sweep(self):
        # gn(5)/Q: the passes at targets 0..K take 735 transitions in all.
        q = ehrhart_of_polytope(make_gn(5), "Q", budget=735)
        assert [q.evaluate(k) for k in range(4)] == [1, 5, 15, 35]
        with pytest.raises(BudgetExceededError) as err:
            ehrhart_of_polytope(make_gn(5), "Q", budget=734)
        assert (err.value.phase, err.value.consumed) == ("counting", 735)


def coefficient(q, residue, i):
    """Coefficient of t**i in the constituent of ``residue``."""
    c = q.constituents[residue % q.period]
    return c[i] if i < len(c) else F(0)


class TestCoefficientStructure:
    def test_only_constant_term_varies_for_gn(self):
        for n in range(2, 6):
            q = ehrhart_of_polytope(make_gn(n), "P")
            top = max(len(c) for c in q.constituents)
            for i in range(1, top):
                values = {coefficient(q, r, i) for r in range(q.period)}
                assert len(values) == 1, f"degree {i} varies for n={n}"


class TestPartialSumPeriods:
    def coefficient_period(self, q, i):
        values = [coefficient(q, r, i) for r in range(q.period)]
        for cand in range(1, q.period + 1):
            if q.period % cand:
                continue
            if all(
                values[r] == values[(r + cand) % q.period]
                for r in range(q.period)
            ):
                return cand
        return q.period

    def test_summing_floor_functions(self):
        # f(t) = floor(t/n) + 1 has coefficient periods (n, 1); partial sums
        # must keep every coefficient of degree >= 1 constant, and the
        # constant coefficient's period must divide n
        for n in range(2, 6):
            f = Quasipolynomial(
                n, tuple((F(1) - F(r, n), F(1, n)) for r in range(n))
            )
            for t in range(3 * n):
                assert f.evaluate(t) == t // n + 1
            partial = [F(0)]
            for t in range(4 * n + n):
                partial.append(partial[-1] + f.evaluate(t))
            big = fit_quasipolynomial(partial, n, 2)
            assert self.coefficient_period(big, 2) == 1
            assert self.coefficient_period(big, 1) == 1
            assert n % self.coefficient_period(big, 0) == 0


class TestJson:
    def test_round_trip(self):
        q = G4_EXPECTED
        assert Quasipolynomial.from_json(q.to_json()) == q

    def test_strings_are_exact(self):
        text = G4_EXPECTED.to_json()
        assert "25/18" in text and "10/9" in text

    # None of these is what to_json writes.
    BAD = {
        "float": '{"period":1,"constituents":[[0.1]]}',
        "fractional-period": '{"period":1.9,"constituents":[["1"]]}',
        "bool-period": '{"period":true,"constituents":[["1"]]}',
        "deep": "[" * 100_000,
        "zero-denominator": '{"period":1,"constituents":[["1/0"]]}',
        "string-constituent": '{"period":1,"constituents":["12"]}',
        "no-constituents": '{"period":1}',
        "not-an-object": "[1]",
    }

    @pytest.mark.parametrize("text", BAD.values(), ids=BAD)
    def test_rejects_what_to_json_never_writes(self, text):
        with pytest.raises(ValueError):
            Quasipolynomial.from_json(text)
