"""Recurrence families and inter-family identities: pinned values, exact checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaw import (
    DomainError,
    PoleError,
    TruncationError,
    asc_P,
    asc_P_seq,
    asc_Q,
    asc_Q_seq,
    b_big,
    b_big_seq,
    b_small,
    b_small_seq,
    chebyshev_U,
    chebyshev_U_seq,
    gamma_mk_partial,
    hermite_h,
    hermite_h_seq,
    hermite_H,
    hermite_H_seq,
    map_params,
    CondDensityParams,
    q_binomial,
    q_binomial_row,
    q_bracket,
    q_factorial,
    s_n,
)
from qaw.polyfam import (
    I_nm,
    bh_expand_B,
    connection_H_from_P,
    connection_P_from_BH,
    i_nm_closed,
    linearize_HH,
    product_HB,
    real_part,
)
from helpers import leading_coefficient

small_qs = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12)
small_xs = st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=8)


class TestHermiteH:
    def test_degree_zero(self):
        assert hermite_h(0, 0.3, 0.5) == 1

    def test_degree_one_doubles(self):
        assert hermite_h(1, 0.3, 0.5) == pytest.approx(0.6)

    def test_free_case_root(self):
        # h_2 = 4x^2 - 1 vanishes at 1/2
        assert hermite_h(2, 0.5, 0) == pytest.approx(0.0)

    def test_monic_H_values(self):
        assert hermite_H(2, 2.0, 0.5) == pytest.approx(3.0)
        assert hermite_H(3, 1.0, 0.5) == pytest.approx(-1.5)

    def test_q_one_probabilistic(self):
        # H_3(x|1) = x^3 - 3x
        assert hermite_H(3, 2.0, 1) == pytest.approx(2.0)

    def test_free_case_is_chebyshev(self):
        for n in range(13):
            for x in (0.3, -1.7, 2.0):
                assert hermite_H(n, x, 0) == pytest.approx(chebyshev_U(n, x / 2), abs=1e-12)

    def test_monic_exactly(self):
        q = Fraction(1, 2)
        for n in range(13):
            assert leading_coefficient(lambda x: hermite_H(n, x, q), n) == 1

    def test_bound_on_support(self):
        # sup |H_n| <= s_n(q) (1-q)^(-n/2) over the orthogonality interval
        for q in (0.0, 0.5, -0.5):
            half = 2 / math.sqrt(1 - q)
            xs = np.linspace(-half, half, 1001)
            for n in range(11):
                bound = float(s_n(n, q)) * (1 - q) ** (-n / 2)
                values = hermite_H(n, xs, q)
                assert np.max(np.abs(values)) <= bound * (1 + 1e-12)

    def test_scaling_bridge_to_h(self):
        for q in (0.5, -0.5, 0.3):
            for n in range(9):
                x = 0.7
                lhs = hermite_H(n, x, q)
                rhs = (1 - q) ** (-n / 2) * hermite_h(n, x * math.sqrt(1 - q) / 2, q)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degree_cap(self):
        # the term budget, not a fixed degree, caps the order
        assert math.isfinite(hermite_H(65, 0.5, 0.5))
        with pytest.raises(TruncationError, match="order 10001 exceeds the term budget 10000"):
            hermite_H(10_001, 0.5, 0.5)

    def test_nan_raises_where_inf_stays_a_value(self):
        # x**3 overflows to inf at x = 1e200; one step later inf - inf is nan
        assert hermite_H(3, 1e200, 0.5) == math.inf
        with pytest.raises(TruncationError, match="degree-4 recurrence left the float range at degree 2"):
            hermite_H(4, 1e200, 0.5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TruncationError, match="at degree 2"):
            hermite_H_seq(4, np.array([0.5, 1e200]), 0.5)
        # (1-q)**(-n/2) = 10**n outgrows the floats at q = 0.99
        with pytest.raises(TruncationError, match="degree-1000 recurrence left the float range at degree 344"):
            hermite_H(1000, 0.5, 0.99)
        with pytest.raises(TruncationError, match="at degree 349"):
            asc_P(1000, 0.5, 0.3, 0.5, 0.99)

    def test_array_input_matches_scalar(self):
        xs = np.array([-1.0, 0.0, 0.25, 2.0])
        got = hermite_H(4, xs, 0.3)
        want = [hermite_H(4, float(x), 0.3) for x in xs]
        assert got == pytest.approx(want)


FAMILIES = {
    "hermite_h": lambda n: hermite_h(n, 0.5, 0.5),
    "hermite_h_seq": lambda n: hermite_h_seq(n, 0.5, 0.5),
    "hermite_H": lambda n: hermite_H(n, 0.5, 0.5),
    "hermite_H_seq": lambda n: hermite_H_seq(n, 0.5, 0.5),
    "asc_Q": lambda n: asc_Q(n, 0.5, 0.3, 0.4, 0.5),
    "asc_Q_seq": lambda n: asc_Q_seq(n, 0.5, 0.3, 0.4, 0.5),
    "asc_P": lambda n: asc_P(n, 0.5, 0.3, 0.4, 0.5),
    "asc_P_seq": lambda n: asc_P_seq(n, 0.5, 0.3, 0.4, 0.5),
    "b_big": lambda n: b_big(n, 0.5, 0.5),
    "b_big_seq": lambda n: b_big_seq(n, 0.5, 0.5),
    "b_small": lambda n: b_small(n, 0.5, 0.5),
    "b_small_seq": lambda n: b_small_seq(n, 0.5, 0.5),
    "chebyshev_U": lambda n: chebyshev_U(n, 0.5),
    "chebyshev_U_seq": lambda n: chebyshev_U_seq(n, 0.5),
}


@pytest.mark.parametrize("n", [-1, 2.5, 65])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_guards_its_degree(name, n):
    # the guard runs before any coefficient list is built: [2] * 2.5 would
    # raise TypeError
    if n != 65:
        with pytest.raises(DomainError):
            FAMILIES[name](n)
        return
    # 65 lies within the term budget and runs; one past the budget is
    # refused before any list is built
    FAMILIES[name](n)
    with pytest.raises(TruncationError, match="order 10001 exceeds the term budget 10000"):
        FAMILIES[name](10_001)


def test_every_family_reaches_the_cap():
    # at the budget itself every family runs: hermite_H and asc_P grow like
    # (1-q)**(-n/2) at x = 0.5 and leave the float range at degree 2052,
    # the others stay finite
    n = 10_000
    for name, call in FAMILIES.items():
        if name.startswith(("hermite_H", "asc_P")):
            with pytest.raises(TruncationError, match="at degree 2052"):
                call(n)
            continue
        value = call(n)
        if name.endswith("_seq"):
            assert len(value) == n + 1 and all(math.isfinite(v) for v in value)
        else:
            assert math.isfinite(value)


# |q| < 0.999, where the float-range refusals are the only size limit below the term budget
long_qs = st.floats(min_value=-0.999, max_value=0.999, exclude_min=True, exclude_max=True)


def _no_nan(value):
    """True unless the float or list value holds a nan; +-inf counts as a value."""
    return not any(math.isnan(v) for v in (value if isinstance(value, list) else [value]))


@given(
    n=st.integers(min_value=0, max_value=1000),
    q=long_qs,
    x=st.floats(min_value=-1e10, max_value=1e10),
    a=st.floats(min_value=-0.99, max_value=0.99),
    b=st.floats(min_value=-0.99, max_value=0.99),
)
@settings(max_examples=40, deadline=None)
def test_long_families_give_a_value_or_refuse(n, q, x, a, b):
    # the only allowed error is TruncationError, for a nan on the way
    for call in (
        lambda: hermite_h(n, x, q),
        lambda: hermite_H(n, x, q),
        lambda: asc_Q(n, x, a, b, q),
        lambda: asc_P(n, x, a, b, q),
        lambda: b_big(n, x, q),
        lambda: b_small(n, x, q),
        lambda: chebyshev_U(n, x),
    ):
        try:
            value = call()
        except TruncationError:
            continue
        assert _no_nan(value)


@given(
    n=st.integers(min_value=0, max_value=1200),
    m=st.integers(min_value=0, max_value=1200),
    q=long_qs,
    u=st.floats(min_value=-0.99, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_long_identity_helpers_give_a_value_or_refuse(n, m, q, u):
    # [n]_q! overflows for q > 0 and underflows for q < 0 long before the
    # term budget; that, not nan, PoleError or ZeroDivisionError, is the refusal
    x = u * 2 / math.sqrt(1 - q)
    for call in (
        lambda: product_HB(m, n, q),
        lambda: i_nm_closed(n, m, x, q),
        lambda: linearize_HH(n, m, q),
    ):
        try:
            value = call()
        except TruncationError:
            continue
        assert _no_nan(value)


def test_signed_zeros_of_the_first_step():
    # (1 * x + 0) turns -0.0 into 0.0; a constant beta of 0 * x would not
    assert math.copysign(1, hermite_H(1, -0.0, 0.5)) == 1
    assert math.copysign(1, asc_P(1, -0.0, 0.0, 0.5, 0.5)) == -1
    assert math.copysign(1, chebyshev_U(1, -0.0)) == 1


class TestNonFinitePoints:
    def test_rejects_nan_and_inf_but_not_exact_or_complex_points(self):
        calls = (
            lambda x: hermite_h(3, x, 0.5),
            lambda x: hermite_H(3, x, 0.5),
            lambda x: asc_Q(2, x, 0.3, 0.4, 0.5),
            lambda x: asc_P(2, x, 0.3, 0.4, 0.5),
            lambda x: b_big(2, x, 0.5),
            lambda x: b_small(2, x, 0.5),
            lambda x: chebyshev_U(2, x),
            lambda x: gamma_mk_partial(0, 0, x, 0.3, 0.4, 0.5, 10),
        )
        bad = (
            math.nan,
            math.inf,
            -math.inf,
            complex(0.5, math.nan),
            complex(math.nan, 0.0),
            np.float64(math.nan),
            np.array(math.nan),
            np.array([0.5, math.nan]),
        )
        for call in calls:
            for x in bad:
                with pytest.raises(DomainError):
                    call(x)
        # exact points are finite and are never converted to float
        huge = Fraction(10**400)
        assert hermite_H(2, huge, Fraction(1, 2)) == huge * huge - 1
        assert hermite_H(2, 1j, 0.5) == pytest.approx(-2.0)

    def test_rejects_nan_and_inf_parameters(self):
        calls = (
            lambda t: asc_P(2, 0.5, t, 0.3, 0.5),
            lambda t: asc_P(2, 0.5, 0.3, t, 0.5),
            lambda t: asc_P(2, 0.5, 0.3, 0.4, t),
            lambda t: hermite_H(3, 0.5, t),
            lambda t: hermite_h(3, 0.5, t),
            lambda t: asc_Q(2, 0.5, t, 0.4, 0.5),
            lambda t: asc_Q(2, 0.5, 0.3, t, 0.5),
            lambda t: b_big(2, 0.5, t),
            lambda t: b_small(2, 0.5, t),
            lambda t: connection_P_from_BH(3, 0.2, 0.1, t, 0.3),
        )
        for call in calls:
            for t in (math.nan, math.inf, -math.inf, complex(0.3, math.nan)):
                with pytest.raises(DomainError):
                    call(t)

    def test_accepts_exact_complex_and_array_parameters(self):
        huge = Fraction(10**400)
        assert asc_P(1, 0, huge, Fraction(1, 2), Fraction(1, 2)) == -huge / 2
        assert asc_Q(1, 0.1, 0.3 + 0.2j, 0.3 - 0.2j, 0.5) == pytest.approx(-0.4)
        # a conditioning point may be an array, as in the reflection identities
        ys = np.array([0.2, -0.7])
        vals = asc_P(2, 0.5, ys, 0.3, 0.5)
        assert vals.tolist() == [asc_P(2, 0.5, y, 0.3, 0.5) for y in ys.tolist()]


class TestAlSalamChihara:
    def test_q_zero(self):
        assert asc_Q(0, 0.1, 0.2, 0.3, 0.5) == 1

    def test_q_one_term(self):
        assert asc_Q(1, 0.1, 0.2, 0.3, 0.5) == pytest.approx(-0.3)

    def test_conjugate_pair_free_case(self):
        # Q_n(x|a,b,0) = U_n(x) - (a+b) U_{n-1}(x) + ab U_{n-2}(x)
        a, b = 0.5j, -0.5j
        assert asc_Q(2, 1.0, a, b, 0) == pytest.approx(3.25)
        for n in range(2, 8):
            x = 0.4
            want = chebyshev_U(n, x) - (a + b).real * chebyshev_U(n - 1, x) + (a * b).real * chebyshev_U(n - 2, x)
            assert asc_Q(n, x, a, b, 0) == pytest.approx(want, rel=1e-12)

    def test_P_monic_linear(self):
        assert asc_P(1, 1.0, 0.5, 0.4, 0.3) == pytest.approx(0.8)

    def test_P_monic_exactly(self):
        y, rho, q = Fraction(1, 3), Fraction(2, 5), Fraction(-1, 2)
        for n in range(13):
            assert leading_coefficient(lambda x: asc_P(n, x, y, rho, q), n) == 1

    def test_P_gaussian_collapse(self):
        for n in range(9):
            x, y, rho = 0.7, -0.3, 0.6
            s = math.sqrt(1 - rho * rho)
            want = s**n * hermite_H(n, (x - rho * y) / s, 1)
            assert asc_P(n, x, y, rho, 1) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_P_Q_scaling_bridge(self):
        for q in (0.9, 0.5, 0.0, -0.5):
            prm = map_params(CondDensityParams(0.5, 0.4, 0.0, 0.0, q))
            for n in range(9):
                x = 0.8
                lhs = (1 - q) ** (n / 2) * asc_P(n, x, 0.5, 0.4, q)
                rhs = asc_Q(n, x * math.sqrt(1 - q) / 2, prm.a, prm.b, q)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_rho_zero_reduces_to_H(self):
        for n in range(7):
            assert asc_P(n, 0.6, 0.5, 0.0, 0.4) == pytest.approx(hermite_H(n, 0.6, 0.4))


class TestAuxiliaryFamilies:
    def test_b_big_linear(self):
        assert b_big(1, 0.7, 0.5) == pytest.approx(-0.7)

    def test_b_big_free_case(self):
        # 1, -y, 1, then identically zero
        assert b_big(0, 0.9, 0) == 1
        assert b_big(1, 0.9, 0) == pytest.approx(-0.9)
        assert b_big(2, 0.9, 0) == pytest.approx(1.0)
        for n in range(3, 9):
            assert b_big(n, 0.9, 0) == pytest.approx(0.0)

    def test_b_big_q_one(self):
        # B_n(x|1) = i^n H_n(ix|1)
        for n in range(7):
            want = real_part((1j) ** n * hermite_H(n, 1j * 1.0, 1))
            assert b_big(n, 1.0, 1) == pytest.approx(want, abs=1e-12)
        assert b_big(2, 1.0, 1) == pytest.approx(2.0)

    def test_b_small_scaling_bridge(self):
        for q in (0.5, -0.5):
            for n in range(9):
                y = 0.3
                lhs = b_small(n, y, q)
                rhs = (1 - q) ** (n / 2) * b_big(n, 2 * y / math.sqrt(1 - q), q)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_b_small_inversion_to_h(self):
        # (-1)^n q^(-C(n,2)) b_n(y|q) = h_n(y|1/q), formally past |q| < 1
        for q in (Fraction(1, 2), Fraction(4, 5)):
            for n in range(7):
                y = Fraction(1, 3)
                lhs = (-1) ** n * q ** (-math.comb(n, 2)) * b_small(n, y, q)
                assert lhs == hermite_h(n, y, 1 / q)

    def test_chebyshev_values(self):
        assert chebyshev_U(0, 0.9) == 1
        assert chebyshev_U(1, 0.5) == pytest.approx(1.0)
        assert chebyshev_U(2, 0.5) == pytest.approx(0.0)

    def test_chebyshev_trig_form(self):
        for n in range(9):
            theta = 0.7
            want = math.sin((n + 1) * theta) / math.sin(theta)
            assert chebyshev_U(n, math.cos(theta)) == pytest.approx(want, rel=1e-12)


class TestIdentityHelpers:
    def test_linearize_square_of_x(self):
        assert linearize_HH(1, 1, 0.5) == [1, 1]

    def test_linearize_degenerate(self):
        assert linearize_HH(0, 5, 0.5) == [1]

    def test_linearize_pinned(self):
        assert linearize_HH(2, 1, 0.5) == [1, 1.5]

    @given(q=small_qs, x=small_xs)
    @settings(max_examples=30)
    def test_linearize_pointwise_exact(self, q, x):
        for n in range(5):
            for m in range(5):
                H = hermite_H_seq(n + m, x, q)
                coeffs = linearize_HH(n, m, q)
                total = sum(c * H[n + m - 2 * j] for j, c in enumerate(coeffs))
                assert total == H[n] * H[m]

    def test_bh_expand_linear(self):
        assert bh_expand_B(1, 0.5) == [-1]
        assert bh_expand_B(0, 0.5) == [1]

    @given(q=small_qs, x=small_xs)
    @settings(max_examples=30)
    def test_bh_expand_pointwise_exact(self, q, x):
        for n in range(7):
            H = hermite_H_seq(n, x, q)
            coeffs = bh_expand_B(n, q)
            total = sum(c * H[n - 2 * k] for k, c in enumerate(coeffs))
            assert total == b_big(n, x, q)

    @given(q=small_qs, x=small_xs)
    @settings(max_examples=30)
    def test_product_HB_pointwise_exact(self, q, x):
        for m in range(1, 5):
            for n in range(1, 5):
                H = hermite_H_seq(n + m, x, q)
                coeffs = product_HB(m, n, q)
                total = sum(c * H[n + m - 2 * i] for i, c in enumerate(coeffs))
                assert total == hermite_H(m, x, q) * b_big(n, x, q)

    def test_product_HB_pinned(self):
        # H_1 B_1 = -x^2 = -(H_2 + H_0)
        assert product_HB(1, 1, Fraction(1, 2)) == [-1, -1]
        x = Fraction(1)
        H = hermite_H_seq(4, x, Fraction(0))
        total = sum(c * H[4 - 2 * i] for i, c in enumerate(product_HB(2, 2, Fraction(0))))
        assert total == hermite_H(2, x, Fraction(0)) * b_big(2, x, Fraction(0))

    def test_I_nm_vanishes_above_diagonal(self):
        assert I_nm(3, 1, 0.4, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_I_nm_single_term(self):
        assert I_nm(0, 2, 0.7, 0.3) == pytest.approx(hermite_H(2, 0.7, 0.3))

    def test_I_nm_pinned(self):
        assert I_nm(1, 1, 0.4, 0.5) == pytest.approx(-1.0)

    @given(q=small_qs, x=small_xs)
    @settings(max_examples=30)
    def test_I_nm_closed_form_exact(self, q, x):
        for n in range(5):
            for m in range(5):
                assert I_nm(n, m, x, q) == i_nm_closed(n, m, x, q)

    @given(q=small_qs, x=small_xs)
    @settings(max_examples=30)
    def test_I_nm_recursion_exact(self, q, x):
        # I_{n,m} = -sum_{k>=1} [m,k][n,k][k]! I_{n-k,m-k}
        from qaw import q_binomial

        for n in range(1, 5):
            for m in range(n, 6):
                rhs = -sum(
                    q_binomial(m, k, q) * q_binomial(n, k, q) * q_factorial(k, q) * I_nm(n - k, m - k, x, q)
                    for k in range(1, n + 1)
                )
                assert I_nm(n, m, x, q) == rhs

    def test_connection_linear(self):
        assert connection_P_from_BH(1, 1.0, 0.5, 0.4, 0.3) == pytest.approx(0.8)

    def test_connections_exact(self):
        x, y, rho, q = Fraction(3, 10), Fraction(-1, 5), Fraction(3, 5), Fraction(1, 2)
        for n in range(5):
            assert connection_P_from_BH(n, x, y, rho, q) == asc_P(n, x, y, rho, q)
            assert connection_H_from_P(n, x, y, rho, q) == hermite_H(n, x, q)

    def test_connection_sum_vanishes(self):
        # same-argument convolution of B against H is zero for n >= 1
        from qaw import q_binomial

        x, q = Fraction(2, 7), Fraction(-1, 2)
        for n in range(1, 13):
            B = b_big_seq(n, x, q)
            H = hermite_H_seq(n, x, q)
            total = sum(q_binomial(n, j, q) * B[n - j] * H[j] for j in range(n + 1))
            assert total == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: q_binomial_row(4, -1.0),
        lambda: q_binomial(4, 2, -1.0),
        lambda: q_binomial(4, 2, Fraction(-1)),
        lambda: bh_expand_B(4, -1.0),
        lambda: product_HB(1, 3, -1.0),
        lambda: product_HB(0, 2, -1.0),
        lambda: i_nm_closed(1, 3, 0.3, -1.0),
    ],
    ids=["row", "binomial", "binomial_exact", "bh_expand_B", "HB_1_3", "HB_0_2", "i_nm_closed"],
)
def test_vanishing_bracket_at_q_minus_one_is_a_pole(call):
    # [2]_q = 0 at q = -1: the values exist ([4, 2]_{-1} = 2), but the ratio
    # and quotient rules divide by zero on the way
    with pytest.raises(PoleError):
        call()


@pytest.mark.parametrize(
    "call, n",
    [
        (lambda: product_HB(0, 200, 0.99), 200),
        (lambda: product_HB(0, 606, -0.999), 606),
        (lambda: i_nm_closed(1, 700, 0.3, -0.999), 700),
        (lambda: linearize_HH(700, 700, -0.999), 700),
    ],
    ids=["HB_overflow", "HB_underflow", "i_nm_closed", "linearize_HH"],
)
def test_factorial_outside_the_floats_is_refused(call, n):
    # unchecked, inf / inf gives product_HB a nan, a 0.0 [n]_q! looks like
    # a pole to the quotients and zeroes linearize_HH's last coefficient;
    # for -1 < q < 1 no bracket vanishes, so each is a float-range refusal
    with pytest.raises(TruncationError, match=rf"\[{n}\]_q! left the float range"):
        call()


class TestRealPart:
    def test_passes_reals_through(self):
        assert real_part(1.5) == 1.5

    def test_truncates_noise(self):
        assert real_part(2.0 + 1e-15j) == 2.0

    def test_rejects_genuine_imaginary(self):
        with pytest.raises(DomainError):
            real_part(1.0 + 0.1j)

    def test_collapses_an_array_under_the_same_rule(self):
        got = real_part(np.array([2.0 + 1e-15j, -3.0 - 2e-12j]))
        assert got.dtype == np.float64 and got.tolist() == [2.0, -3.0]
        # one entry above _IMAG_TOL * (1 + |value|) fails the whole array
        with pytest.raises(DomainError):
            real_part(np.array([2.0 + 1e-15j, 1.0 + 1e-9j]))
        floats = np.array([1.5, -0.5])
        assert real_part(floats) is floats

    def test_conjugate_pair_gives_a_float_array_for_a_float_array(self):
        a, xs = 0.3 + 0.2j, np.array([0.3, -1.2, 0.0])
        got = asc_Q(5, xs, a, a.conjugate(), 0.5)
        assert got.dtype == np.float64
        assert got.tolist() == [asc_Q(5, float(x), a, a.conjugate(), 0.5) for x in xs]
        # a complex array keeps its complex values, and so does a non-conjugate pair
        assert asc_Q(5, xs + 0.1j, a, a.conjugate(), 0.5).dtype == np.complex128
        assert asc_Q(5, xs, a, a, 0.5).dtype == np.complex128
