"""q-arithmetic primitives: pinned values, exact identities, domain guards."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaw import (
    DomainError,
    TruncationError,
    hermite_h,
    q_binomial,
    q_binomial_row,
    q_bracket,
    q_bracket_seq,
    q_factorial,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_seq,
    s_n,
)
from qaw.qcore import _check_base, _sn_series
from helpers import RATIONAL_QS

small_fractions = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=16)
small_qs = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12)


class TestQBracket:
    def test_zero(self):
        assert q_bracket(0, 0.5) == 0

    def test_direct_sum(self):
        assert q_bracket(3, 0.5) == pytest.approx(1.75)

    def test_q_one_gives_n(self):
        assert q_bracket(7, 1) == 7

    def test_negative_q(self):
        # 1 + q + q^2 at q = -1/2
        assert q_bracket(3, Fraction(-1, 2)) == Fraction(3, 4)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            q_bracket(-1, 0.5)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0, 0.3) == 1

    def test_three(self):
        assert q_factorial(3, 0.5) == pytest.approx(2.625)

    def test_q_one_is_factorial(self):
        assert q_factorial(5, 1) == 120

    @given(q=small_qs)
    def test_builds_from_brackets(self, q):
        acc = Fraction(1)
        for i in range(1, 7):
            acc *= q_bracket(i, q)
            assert q_factorial(i, q) == acc


class TestQBinomial:
    def test_pinned(self):
        assert q_binomial(4, 2, 0.5) == pytest.approx(2.1875)

    def test_out_of_range_is_zero(self):
        assert q_binomial(3, 5, 0.5) == 0
        assert q_binomial(3, -1, 0.5) == 0

    def test_q_one_is_binomial(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_binomial(n, k, 1) == math.comb(n, k)

    def test_q_zero_is_one(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_binomial(n, k, 0) == 1

    @given(q=small_qs)
    @settings(max_examples=25)
    def test_symmetry_and_pascal(self, q):
        for n in range(1, 8):
            for k in range(n + 1):
                assert q_binomial(n, k, q) == q_binomial(n, n - k, q)
                assert q_binomial(n, k, q) == (
                    q_binomial(n - 1, k - 1, q) + q**k * q_binomial(n - 1, k, q)
                )


def _horner_bracket(n, q):
    total = 0 * q
    for _ in range(n):
        total = total * q + 1
    return total


def _horner_factorial(n, q):
    total = 1 + 0 * q
    for i in range(1, n + 1):
        total = total * _horner_bracket(i, q)
    return total


def _horner_binomial(n, k, q):
    k = min(k, n - k)
    num = 1 + 0 * q
    den = 1 + 0 * q
    for i in range(1, k + 1):
        num = num * _horner_bracket(n - k + i, q)
        den = den * _horner_bracket(i, q)
    return num / den


class TestPrefixBitIdentity:
    """The prefix-sequence forms reproduce one Horner chain per bracket, bit for bit.

    Gaussian binomials come from the ratio rule instead of the product of
    brackets: exact over Fraction, within 1e-13 relative in floats.
    """

    def test_matches_separate_horner_chains(self):
        for q in (-0.7, 0.3, 0.9, Fraction(-1, 2)):
            for n in range(31):
                assert q_bracket(n, q) == _horner_bracket(n, q)
                assert q_factorial(n, q) == _horner_factorial(n, q)

    def test_binomials_match_the_product_form(self):
        for q in RATIONAL_QS:
            for n in range(21):
                for k in range(n + 1):
                    assert q_binomial(n, k, q) == _horner_binomial(n, k, q)
        worst = 0.0
        for q in (-0.99, -0.7, 0.3, 0.9, 0.99):
            for n in range(65):
                for k in range(n + 1):
                    want = _horner_binomial(n, k, q)
                    worst = max(worst, abs(q_binomial(n, k, q) - want) / want)
        assert worst <= 1e-13


class TestBinomialRow:
    def test_entries_equal_single_binomials_bit_for_bit(self):
        for q in (-0.7, 0, 0.3, 0.9, Fraction(-1, 2)):
            for n in range(41):
                row = q_binomial_row(n, q)
                assert len(row) == n + 1
                for k, entry in enumerate(row):
                    assert entry == q_binomial(n, k, q)
                    assert type(entry) is type(q_binomial(n, k, q))

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            q_binomial_row(-1, 0.5)


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: q_bracket(3, math.inf),
            lambda: q_bracket_seq(3, -math.inf),
            lambda: q_factorial(3, math.nan),
            lambda: q_binomial(4, 2, math.nan),
            lambda: q_binomial_row(4, math.nan),
            lambda: s_n(3, math.nan),
            lambda: q_pochhammer(math.nan, 0.5, 3),
            lambda: q_pochhammer_seq(0.5, complex(0.5, math.inf), 3),
            lambda: q_pochhammer(np.array([0.5, math.nan]), 0.5, 3),
            lambda: q_pochhammer(np.array([[0.5], [-math.inf]]), 0.5, 3),
            lambda: q_bracket_seq(3, np.array(math.nan)),
            lambda: q_pochhammer(0.5, np.array(math.inf), 3),
        ],
    )
    def test_rejects_nan_and_inf(self, call):
        with pytest.raises(DomainError):
            call()

    def test_accepts_exact_complex_and_out_of_range_bases(self):
        # qcore runs formally outside -1 < q <= 1, so only finiteness is checked
        huge = Fraction(10**400)
        assert q_bracket(2, huge) == 1 + huge
        assert q_bracket(3, 0.5j) == pytest.approx(0.75 + 0.5j)
        assert q_binomial(2, 1, 2.0) == 3.0
        assert s_n(2, -3) == 1 + (1 - 3) + 1
        # a finite array, complex or 0-d, passes the same test
        a = np.array([0.5 + 0.25j, -0.3])
        assert q_pochhammer(a, 0.5, 2).tolist() == [q_pochhammer(v, 0.5, 2) for v in a.tolist()]
        assert q_bracket(2, np.array(0.5)) == 1.5


class TestQPochhammer:
    def test_empty(self):
        assert q_pochhammer(0.7, 0.3, 0) == 1

    def test_direct_product(self):
        assert q_pochhammer(0.5, 0.5, 3) == pytest.approx(0.328125)

    def test_vanishing_factor(self):
        assert q_pochhammer(1, 0.5, 2) == 0

    @given(a=small_fractions, q=small_qs)
    @settings(max_examples=40)
    def test_recurrence(self, a, q):
        for n in range(6):
            assert q_pochhammer(a, q, n + 1) == q_pochhammer(a, q, n) * (1 - a * q**n)

    def test_factorial_bridge(self):
        # (q; q)_n = (1-q)^n [n]_q!
        for q in RATIONAL_QS:
            for n in range(21):
                assert q_pochhammer(q, q, n) == (1 - q) ** n * q_factorial(n, q)

    def test_prefix_sequence_matches_single_symbols(self):
        for a, q in ((0.6, -0.7), (0.25 + 0.5j, 0.3), (Fraction(3, 5), Fraction(-1, 2))):
            assert q_pochhammer_seq(a, q, 7) == [q_pochhammer(a, q, n) for n in range(8)]
            assert q_bracket_seq(7, q) == [q_bracket(n, q) for n in range(8)]
        with pytest.raises(DomainError):
            q_pochhammer_seq(0.5, 0.5, -1)
        with pytest.raises(DomainError):
            q_bracket_seq(-1, 0.5)


class TestQPochhammerInf:
    def test_a_zero(self):
        assert q_pochhammer_inf(0, 0.5) == 1

    def test_euler_value(self):
        assert q_pochhammer_inf(0.5, 0.5) == pytest.approx(0.2887880950866024, rel=1e-12)

    def test_zero_factor(self):
        assert q_pochhammer_inf(1, 0.9) == 0

    def test_matches_a_40_digit_product(self):
        # cut at the relative tail 1e-14; each error is below 8e-15 against
        # a decimal product run until its factors are below 1e-30
        for a, q in ((0.5, 0.5), (-0.7, 0.8), (0.3, -0.9)):
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                want, factor = decimal.Decimal(1), decimal.Decimal(a)
                while abs(factor) > decimal.Decimal("1e-30"):
                    want, factor = want * (1 - factor), factor * decimal.Decimal(q)
                rel = abs(decimal.Decimal(q_pochhammer_inf(a, q)) / want - 1)
            assert rel <= 2e-14, (a, q)

    def test_rejects_q_near_one(self):
        # the factor count alone refuses: at q = 0.995 the product runs its
        # 7400 or so factors, whose rounding sets the bound, against a
        # 40-digit product; at q = 0.997 it would need more than 10000
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            want, factor, q = decimal.Decimal(1), decimal.Decimal(0.5), decimal.Decimal(0.995)
            while factor > decimal.Decimal("1e-30"):
                want, factor = want * (1 - factor), factor * q
            rel = abs(decimal.Decimal(q_pochhammer_inf(0.5, 0.995)) / want - 1)
        assert rel <= 1e-13
        with pytest.raises(TruncationError, match="needs more than 10000 terms, the term budget"):
            q_pochhammer_inf(0.5, 0.997)

    @pytest.mark.parametrize(
        "a, q",
        [(0.5, math.nan), (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
         (0.5, -math.inf), (complex(0.5, math.nan), 0.5), (0.5, complex(math.inf, 0))],
    )
    def test_rejects_non_finite_input(self, a, q):
        with pytest.raises(DomainError):
            q_pochhammer_inf(a, q)

    def test_accepts_exact_and_complex_input(self):
        euler = q_pochhammer_inf(Fraction(1, 2), Fraction(1, 2))
        assert euler == pytest.approx(0.2887880950866024, rel=1e-12)
        # (ia; q)_inf (-ia; q)_inf = (-a^2; q^2)_inf
        pair = q_pochhammer_inf(0.5j, 0.5) * q_pochhammer_inf(-0.5j, 0.5)
        assert pair == pytest.approx(q_pochhammer_inf(-0.25, 0.25), rel=1e-12)


class TestSn:
    def test_single_term(self):
        assert s_n(0, 0.7) == 1

    def test_three_plus_q(self):
        assert s_n(2, 0.5) == pytest.approx(3.5)

    def test_q_zero_counts_terms(self):
        for n in range(10):
            assert s_n(n, 0) == n + 1

    def test_q_one_gives_powers_of_two(self):
        for n in range(10):
            assert s_n(n, 1) == 2**n

    def test_row_sums_and_rogers_szego_agree_exactly(self):
        # s_n(q) = h_n(1 | q): the Rogers-Szego recurrence is the q-Hermite one at x = 1
        for q in (Fraction(-1, 2), Fraction(3, 7), Fraction(9, 10)):
            for n in range(31):
                assert s_n(n, q) == sum(q_binomial_row(n, q))
                assert s_n(n, q) == hermite_h(n, 1, q)

    def test_large_orders_stay_finite(self):
        # the product form overflowed to inf / inf = nan here
        row = q_binomial_row(700, 0.9)
        assert math.isfinite(q_binomial(700, 350, 0.9))
        assert q_binomial(700, 350, 0.9) == row[350]
        assert row == row[::-1] and row[0] == row[-1] == 1
        assert math.isfinite(s_n(700, 0.9))
        assert s_n(700, 0.9) == pytest.approx(sum(row), rel=1e-12)


class TestParamGuards:
    def test_qparam_accepts_boundary(self):
        for q in (1, 1.0, -0.999, 0, Fraction(1, 2)):
            assert _check_base(q) is None

    def test_qparam_rejects_minus_one(self):
        with pytest.raises(DomainError, match="base must satisfy -1 < q <= 1"):
            _check_base(-1)

    def test_qparam_rejects_large(self):
        # nan fails every comparison, and a complex base has no order
        for q in (1.5, math.inf, math.nan, 0.5j):
            with pytest.raises(DomainError, match="base must satisfy -1 < q <= 1"):
                _check_base(q)

    def test_sn_series_stops_at_the_term_budget(self):
        # at t = 0.9999 the terms shrink too slowly for any stop rule; the
        # series yields the budget's 10000 terms, then refuses the next
        count = 0
        with pytest.raises(TruncationError, match="the s_n series needs more than 10000 terms"):
            for _ in _sn_series(0.9999, 0.5):
                count += 1
        assert count == 10_000
