"""Conditional moments: collapses, closed forms, kernel identities, expansion."""

import inspect
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qaw.moments
from qaw import awpoly, cli, densities, polyfam, qcore, verify
from qaw import (
    CondDensityParams,
    DomainError,
    PoleError,
    TruncationError,
    alpha_coeff,
    alsalam_identity_residual,
    c_n_gaussian,
    c_n_main,
    c_n_seq,
    c_n_via_P,
    expansion_terms_needed,
    f_CN,
    f_N,
    gamma_mk_partial,
    gamma_ratio_closed,
    hermite_H,
    phi_cond,
    phi_expansion_partial,
    q_binomial,
    q_bracket_seq,
    q_factorial,
    q_pochhammer,
    q_pochhammer_seq,
)
from qaw.polyfam import hermite_H_seq

from helpers import seeded_bundles

small_qs = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12)
small_fractions = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=16)
# (1 - q) t**2 <= 1.9 * 1.96 < 4 for every q above: inside the interval for all of small_qs
interval_points = st.fractions(min_value=Fraction(-7, 5), max_value=Fraction(7, 5), max_denominator=16)

EXACT_P = CondDensityParams(
    Fraction(2, 5), Fraction(-3, 5), Fraction(1, 2), Fraction(7, 10), Fraction(1, 2)
)

# equal and equally hashed, so any cache keyed on equality alone mixes them
TWIN_FLOAT = CondDensityParams(0.5, 0.25, -0.5, 0.5, 0.5)
TWIN_EXACT = CondDensityParams(
    Fraction(1, 2), Fraction(1, 4), Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)
)


def _reference_c_n(n, p, size=lambda v: v):
    """The double sum with one q_binomial per (k, j), as c_n_main was first written.

    With size=abs it returns the sum of the terms' magnitudes instead: the
    scale of the rounding error that a float evaluation of c_n can make.
    """
    q = p.q
    r1, r2 = p.rho1, p.rho2
    r1sq, r2sq = r1 * r1, r2 * r2
    Hy = hermite_H_seq(n, p.y, q)
    Hz = hermite_H_seq(n, p.z, q)
    den = q_pochhammer(r1sq * r2sq, q, n)
    total = 0
    for k in range(n // 2 + 1):
        pref = size(
            (-1) ** k
            * q ** math.comb(k, 2)
            * q_binomial(n, 2 * k, q)
            * q_binomial(2 * k, k, q)
            * q_factorial(k, q)
            * (r1 * r2) ** (2 * k)
            * q_pochhammer(r1sq, q, k)
            * q_pochhammer(r2sq, q, k)
        )
        qk = q**k
        poch1 = q_pochhammer_seq(r1sq * qk, q, n - 2 * k)
        poch2 = q_pochhammer_seq(r2sq * qk, q, n - 2 * k)
        inner = 0
        for j in range(n - 2 * k + 1):
            inner = inner + size(
                q_binomial(n - 2 * k, j, q)
                * poch1[j]
                * poch2[n - 2 * k - j]
                * r1 ** (n - 2 * k - j)
                * r2**j
                * Hz[j]
                * Hy[n - 2 * k - j]
            )
        total = total + pref * inner
    return total / size(den)


def _exact_twin(p):
    """The bundle with each float field replaced by its exact rational value."""
    return CondDensityParams(*(Fraction(v) for v in (p.y, p.rho1, p.z, p.rho2, p.q)))


def _reference_expansion(x, p, N):
    """phi_expansion_partial's sum over _reference_c_n coefficients."""
    Hx = hermite_H_seq(N - 1, x, p.q)
    brackets = q_bracket_seq(N - 1, p.q)
    total = 0
    fact = 1
    for i in range(N):
        if i > 0:
            fact = fact * brackets[i]
        total = total + Hx[i] * _reference_c_n(i, p) / fact
    return f_N(x, p.q).value * total


class TestConditionalMoment:
    def test_degree_zero_is_one(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.5)
        assert c_n_main(0, p) == 1
        assert c_n_via_P(0, p) == 1

    def test_degree_one_closed_form(self):
        y, r1, z, r2, q = 0.4, 0.5, -0.6, 0.7, 0.3
        p = CondDensityParams(y, r1, z, r2, q)
        want = (r1 * (1 - r2**2) * y + r2 * (1 - r1**2) * z) / (1 - r1**2 * r2**2)
        assert c_n_main(1, p) == pytest.approx(want, rel=1e-14)

    def test_first_leg_uncorrelated(self):
        # rho1 = 0 decouples X from Y, leaving the one-step moment in z
        p = CondDensityParams(Fraction(1, 3), 0, Fraction(-2, 5), Fraction(1, 2), Fraction(3, 10))
        for n in range(9):
            want = Fraction(1, 2) ** n * hermite_H(n, Fraction(-2, 5), Fraction(3, 10))
            assert c_n_main(n, p) == want

    def test_second_leg_uncorrelated(self):
        p = CondDensityParams(Fraction(1, 3), Fraction(1, 2), Fraction(-2, 5), 0, Fraction(3, 10))
        for n in range(9):
            want = Fraction(1, 2) ** n * hermite_H(n, Fraction(1, 3), Fraction(3, 10))
            assert c_n_main(n, p) == want

    def test_two_routes_agree_exactly(self):
        for n in range(11):
            assert c_n_main(n, EXACT_P) == c_n_via_P(n, EXACT_P)

    @given(
        n=st.integers(min_value=0, max_value=6),
        y=interval_points,
        rho1=small_fractions,
        z=interval_points,
        rho2=small_fractions,
        q=small_qs,
    )
    @settings(max_examples=150, deadline=None)
    def test_two_routes_agree_exactly_on_any_bundle(self, n, y, rho1, z, rho2, q):
        p = CondDensityParams(y, rho1, z, rho2, q)
        assert c_n_main(n, p) == c_n_via_P(n, p)

    def test_two_routes_agree_on_random_bundles(self):
        for p in seeded_bundles(4):
            for n in range(7):
                assert c_n_main(n, p) == pytest.approx(c_n_via_P(n, p), rel=1e-10, abs=1e-12)

    def test_swap_symmetry(self):
        for n in range(9):
            assert c_n_main(n, EXACT_P) == c_n_main(n, EXACT_P.swapped())

    def test_rejects_gaussian_limit(self):
        p = CondDensityParams(0.1, 0.5, 0.2, 0.5, 1)
        with pytest.raises(DomainError):
            c_n_main(2, p)
        with pytest.raises(DomainError):
            c_n_via_P(2, p)

    def test_rejects_bad_order(self):
        p = CondDensityParams(0.1, 0.5, 0.2, 0.5, 0.5)
        with pytest.raises(DomainError):
            c_n_main(-1, p)
        with pytest.raises(DomainError):
            c_n_via_P(2.5, p)


class TestMomentSequence:
    def test_matches_one_binomial_per_term_to_rounding(self):
        bundles = seeded_bundles(6) + [
            CondDensityParams(0.3, 0.6, -1.1, -0.4, 0.0),
            CondDensityParams(-0.8, -0.7, 1.2, 0.55, 0),
        ]
        assert any(p.q < 0 for p in bundles)
        for p in bundles:
            exact = _exact_twin(p)
            assert c_n_seq(6, exact) == tuple(_reference_c_n(n, exact) for n in range(7))
            seq = c_n_seq(40, p)
            assert len(seq) == 41
            # the same float inputs at 50 digits: exact Fractions take minutes at N = 40
            with mpmath.workdps(50):
                fields = (p.y, p.rho1, p.z, p.rho2, p.q)
                wide = c_n_seq(40, CondDensityParams(*map(mpmath.mpf, fields)))
                for c, want in zip(seq, wide):
                    assert abs(c - want) <= 1e-13 * max(1, abs(want))

    def test_pinned_error_where_the_terms_cancel(self):
        # rho1 rho2 = -0.81 at q = 0.9; the unfactored seven-factor terms read 4.7e-14 here
        p = CondDensityParams(1.5, -0.9, 1.2, 0.9, 0.9)
        for c, want in zip(c_n_seq(24, p), c_n_seq(24, _exact_twin(p))):
            assert abs(Fraction(c) - want) <= 3e-14 * max(1, abs(want))

    @given(
        N=st.integers(min_value=0, max_value=16),
        u=st.integers(min_value=-999, max_value=999),
        rho1=st.integers(min_value=-900, max_value=900),
        v=st.integers(min_value=-999, max_value=999),
        rho2=st.integers(min_value=-900, max_value=900),
        q=st.integers(min_value=-900, max_value=900),
    )
    @settings(max_examples=25, deadline=None)
    def test_float_error_is_rounding_on_any_bundle(self, N, u, rho1, v, rho2, q):
        # thousandths, so that the exact twins' denominators stay near 2**53
        q = q / 1000
        half = 2 / math.sqrt(1 - q)
        p = CondDensityParams(u / 1000 * half, rho1 / 1000, v / 1000 * half, rho2 / 1000, q)
        exact = c_n_seq(N, _exact_twin(p))
        for n, c in enumerate(c_n_seq(N, p)):
            # scaled by the terms' magnitudes: where c_n = 0 by symmetry, as for
            # odd n at (1.0, 0.9, 1.0, -0.9, 0.9), a float sum reads up to 2e-13
            assert abs(Fraction(c) - exact[n]) <= 1e-13 * max(1, _reference_c_n(n, p, abs))

    @given(
        N=st.integers(min_value=65, max_value=160),
        u=st.floats(min_value=-0.99, max_value=0.99),
        rho1=st.floats(min_value=-0.95, max_value=0.95),
        v=st.floats(min_value=-0.99, max_value=0.99),
        rho2=st.floats(min_value=-0.95, max_value=0.95),
        q=st.floats(min_value=-0.95, max_value=0.95),
    )
    @settings(max_examples=20, deadline=None)
    def test_long_sequences_are_finite_or_refused(self, N, u, rho1, v, rho2, q):
        # past order 64 a float c_n may leave the float range, and then
        # raises TruncationError; every value returned is finite
        half = 2 / math.sqrt(1 - q)
        p = CondDensityParams(u * half, rho1, v * half, rho2, q)
        try:
            seq = c_n_seq(N, p)
        except TruncationError:
            return
        assert len(seq) == N + 1 and all(math.isfinite(c) for c in seq)

    def test_exact_bundle(self):
        # the orders the moment benchmark checks exactly, against both routes
        seq = c_n_seq(28, EXACT_P)
        for n, c in enumerate(seq):
            assert type(c) is Fraction
            assert c == _reference_c_n(n, EXACT_P) == c_n_via_P(n, EXACT_P)

    def test_single_order_equals_sequence_entry(self):
        for p in seeded_bundles(3, seed=7) + [EXACT_P]:
            N = 9 if p is EXACT_P else 33
            seq = c_n_seq(N, p)
            for n in range(N + 1):
                assert c_n_main(n, p) == seq[n]

    def test_rejects_gaussian_limit_and_bad_order(self):
        with pytest.raises(DomainError):
            c_n_seq(3, CondDensityParams(0.1, 0.5, 0.2, 0.5, 1))
        with pytest.raises(DomainError):
            c_n_seq(-1, TWIN_FLOAT)


class TestExactFloatTwins:
    """A Fraction bundle stays exact, a float one stays float, in either call order."""

    @pytest.mark.parametrize("float_first", [True, False])
    def test_call_order_keeps_types_apart(self, float_first):
        assert TWIN_FLOAT == TWIN_EXACT and hash(TWIN_FLOAT) == hash(TWIN_EXACT)
        qaw.moments._c_n_seq.cache_clear()  # both orders start from a cold cache
        x, N = 0.3, 8

        def exact_calls():
            assert c_n_main(3, TWIN_EXACT) == Fraction(27, 254)
            assert type(c_n_main(3, TWIN_EXACT)) is Fraction
            seq = c_n_seq(N - 1, TWIN_EXACT)
            assert all(type(c) is Fraction for c in seq)
            assert seq[3] == Fraction(27, 254)
            # the coefficients are read before the float-only density raises
            with pytest.raises(DomainError):
                phi_expansion_partial(x, TWIN_EXACT, N)
            assert all(type(c) is Fraction for c in c_n_seq(N - 1, TWIN_EXACT))

        def float_calls():
            assert type(c_n_main(3, TWIN_FLOAT)) is float
            assert c_n_main(3, TWIN_FLOAT) == 0.1062992125984252
            seq = c_n_seq(N - 1, TWIN_FLOAT)
            assert all(type(c) is float for c in seq)
            assert phi_expansion_partial(x, TWIN_FLOAT, N) == _reference_expansion(x, TWIN_FLOAT, N)

        for calls in ((float_calls, exact_calls) if float_first else (exact_calls, float_calls)):
            calls()


class TestGaussianMoment:
    def test_degree_one_is_conditional_mean(self):
        y, z, r1, r2 = 0.7, -1.1, 0.5, 0.3
        want = (y * r1 * (1 - r2**2) + z * r2 * (1 - r1**2)) / (1 - r1**2 * r2**2)
        assert c_n_gaussian(1, y, z, r1, r2) == pytest.approx(want, rel=1e-14)

    def test_degree_two_at_origin(self):
        assert c_n_gaussian(2, 0.0, 0.0, 0.5, 0.5) == pytest.approx(-0.4, rel=1e-14)

    def test_uncorrelated_limit(self):
        assert c_n_gaussian(0, 1.0, -2.0, 0.0, 0.0) == 1.0
        for n in range(1, 6):
            assert c_n_gaussian(n, 1.0, -2.0, 0.0, 0.0) == 0.0

    def test_rejects_bad_correlation(self):
        with pytest.raises(DomainError):
            c_n_gaussian(2, 0.0, 0.0, 1.0, 0.5)
        # a complex correlation has no order; DomainError, not TypeError
        with pytest.raises(DomainError):
            c_n_gaussian(2, 0.1, 0.2, 0.3j, 0.1)

    def test_rejects_complex_or_non_finite_points(self):
        # y and z are real points: a complex one raises rather than giving a complex moment
        for y, z in ((0.1j, 0.2), (0.1, np.complex128(0.2 + 1j)), (math.nan, 0.2), (0.1, math.inf)):
            for rhos in ((0.3, 0.1), (0.0, 0.0)):
                with pytest.raises(DomainError):
                    c_n_gaussian(2, y, z, *rhos)


class TestShiftedKernel:
    def test_uncorrelated_is_single_product(self):
        # rho = 0 kills every term past i = 0
        got = gamma_mk_partial(2, 1, 0.3, -0.4, 0.0, 0.5, 30)
        want = hermite_H(2, 0.3, 0.5) * hermite_H(1, -0.4, 0.5)
        assert got == want

    def test_unshifted_kernel_resums_to_density_ratio(self):
        x, y, rho, q = 0.3, -0.4, 0.5, 0.5
        got = gamma_mk_partial(0, 0, x, y, rho, q, 60)
        want = f_CN(x, y, rho, q).value / f_N(x, q).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_ratio_matches_closed_form(self):
        x, y, rho, q = 0.3, -0.4, 0.5, 0.5
        ratio = gamma_mk_partial(1, 2, x, y, rho, q, 60) / gamma_mk_partial(0, 0, x, y, rho, q, 60)
        assert ratio == pytest.approx(gamma_ratio_closed(1, 2, x, y, rho, q), abs=1e-8)

    def test_closed_form_uncorrelated(self):
        got = gamma_ratio_closed(2, 1, 0.3, -0.4, 0.0, 0.5)
        assert got == pytest.approx(hermite_H(2, 0.3, 0.5) * hermite_H(1, -0.4, 0.5), rel=1e-14)

    def test_rejects_empty_partial_sum(self):
        with pytest.raises(DomainError):
            gamma_mk_partial(0, 0, 0.1, 0.2, 0.3, 0.5, 0)

    def test_rejects_nan_and_inf_correlation(self):
        for rho in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                gamma_mk_partial(0, 0, 0.1, 0.2, rho, 0.5, 10)


class TestReflectionIdentity:
    def test_trivial_order(self):
        assert alsalam_identity_residual(0, 0.2, 0.5, 0.3, 0.5) == 0

    def test_float_point(self):
        assert alsalam_identity_residual(3, 0.2, 0.5, 0.3, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_exact_rational(self):
        args = (Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2), Fraction(3, 10))
        for m in range(9):
            assert alsalam_identity_residual(m, *args) == 0

    def test_pole_at_unit_rho(self):
        # (rho^2; q)_m = 0 at rho = 1
        with pytest.raises(PoleError):
            alsalam_identity_residual(2, 0.1, 0.2, 1, 0.5)


class TestExpansionCoefficients:
    def test_parity_and_range_zeros(self):
        assert alpha_coeff(3, 1, 1, 0.5, 0.4, 0.3) == 0
        assert alpha_coeff(2, 2, 1, 0.5, 0.4, 0.3) == 0

    def test_degree_one_coefficient(self):
        r1, r2, q = Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)
        want = r1 * (1 - r2**2) / (1 - r1**2 * r2**2)
        assert alpha_coeff(1, 1, 0, r1, r2, q) == want

    def test_top_layer_product_form(self):
        # at j + m = n only the k = 0 layer contributes
        r1, r2, q = Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)
        j, m = 2, 1
        n = j + m
        want = (
            q_binomial(n, m, q)
            * r1**j
            * r2**m
            * q_pochhammer(r1**2, q, m)
            * q_pochhammer(r2**2, q, j)
            / q_pochhammer(r1**2 * r2**2, q, n)
        )
        assert alpha_coeff(n, j, m, r1, r2, q) == want

    def test_swap_symmetry(self):
        r1, r2, q = Fraction(1, 2), Fraction(2, 5), Fraction(1, 3)
        for n in range(6):
            for j in range(n + 1):
                for m in range(n + 1):
                    assert alpha_coeff(n, j, m, r1, r2, q) == alpha_coeff(n, m, j, r2, r1, q)

    def test_reassembles_conditional_moment(self):
        y, r1, z, r2, q = EXACT_P.y, EXACT_P.rho1, EXACT_P.z, EXACT_P.rho2, EXACT_P.q
        Hy = [hermite_H(j, y, q) for j in range(7)]
        Hz = [hermite_H(m, z, q) for m in range(7)]
        for n in range(7):
            total = sum(
                alpha_coeff(n, j, m, r1, r2, q) * Hy[j] * Hz[m]
                for j in range(n + 1)
                for m in range(n + 1)
            )
            assert total == c_n_main(n, EXACT_P)

    def test_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            alpha_coeff(2, -1, 0, 0.5, 0.4, 0.3)

    def test_pole_at_unit_rhos(self):
        # (rho1^2 rho2^2; q)_n = 0 at rho1 = rho2 = 1
        with pytest.raises(PoleError):
            alpha_coeff(2, 0, 0, 1, 1, 0.5)


# Every exported callable with an order parameter, called with that order
# at 10**9: the term budget refuses each before any table is built.
_HUGE_P = CondDensityParams(0.3, 0.5, -0.2, 0.4, 0.5)
_HUGE_AW = awpoly.map_params(_HUGE_P)
HUGE_ORDER_CALLS = {
    "q_bracket": lambda n: qcore.q_bracket(n, 0.5),
    "q_bracket_seq": lambda n: qcore.q_bracket_seq(n, 0.5),
    "q_factorial": lambda n: qcore.q_factorial(n, 0.5),
    "q_binomial": lambda n: qcore.q_binomial(n, 1, 0.5),
    "q_binomial_row": lambda n: qcore.q_binomial_row(n, 0.5),
    "q_pochhammer": lambda n: qcore.q_pochhammer(0.3, 0.5, n),
    "q_pochhammer_seq": lambda n: qcore.q_pochhammer_seq(0.3, 0.5, n),
    "s_n": lambda n: qcore.s_n(n, 0.5),
    "hermite_h": lambda n: polyfam.hermite_h(n, 0.5, 0.5),
    "hermite_h_seq": lambda n: polyfam.hermite_h_seq(n, 0.5, 0.5),
    "hermite_H": lambda n: polyfam.hermite_H(n, 0.5, 0.5),
    "hermite_H_seq": lambda n: polyfam.hermite_H_seq(n, 0.5, 0.5),
    "asc_Q": lambda n: polyfam.asc_Q(n, 0.5, 0.3, 0.4, 0.5),
    "asc_Q_seq": lambda n: polyfam.asc_Q_seq(n, 0.5, 0.3, 0.4, 0.5),
    "asc_P": lambda n: polyfam.asc_P(n, 0.5, 0.3, 0.4, 0.5),
    "asc_P_seq": lambda n: polyfam.asc_P_seq(n, 0.5, 0.3, 0.4, 0.5),
    "b_big": lambda n: polyfam.b_big(n, 0.5, 0.5),
    "b_big_seq": lambda n: polyfam.b_big_seq(n, 0.5, 0.5),
    "b_small": lambda n: polyfam.b_small(n, 0.5, 0.5),
    "b_small_seq": lambda n: polyfam.b_small_seq(n, 0.5, 0.5),
    "chebyshev_U": lambda n: polyfam.chebyshev_U(n, 0.5),
    "chebyshev_U_seq": lambda n: polyfam.chebyshev_U_seq(n, 0.5),
    "linearize_HH": lambda n: polyfam.linearize_HH(n, 1, 0.5),
    "bh_expand_B": lambda n: polyfam.bh_expand_B(n, 0.5),
    "product_HB": lambda n: polyfam.product_HB(1, n, 0.5),
    "I_nm": lambda n: polyfam.I_nm(n, 1, 0.5, 0.5),
    "i_nm_closed": lambda n: polyfam.i_nm_closed(n, 1, 0.5, 0.5),
    "connection_P_from_BH": lambda n: polyfam.connection_P_from_BH(n, 0.5, 0.3, 0.4, 0.5),
    "connection_H_from_P": lambda n: polyfam.connection_H_from_P(n, 0.5, 0.3, 0.4, 0.5),
    "aw_prefactor": lambda n: awpoly.aw_prefactor(n, 0.5, 0.4, 0.5),
    "aw_D": lambda n: awpoly.aw_D(n, 0.3, _HUGE_AW, 0.5),
    "aw_A_sym": lambda n: awpoly.aw_A_sym(n, 0.3, _HUGE_P),
    "aw_A_sym_seq": lambda n: awpoly.aw_A_sym_seq(n, 0.3, _HUGE_P),
    "aw_A_mixed": lambda n: awpoly.aw_A_mixed(n, 0.3, _HUGE_P),
    "aw_D_free": lambda n: awpoly.aw_D_free(n, 0.3, _HUGE_AW.a, _HUGE_AW.b, _HUGE_AW.c, _HUGE_AW.d),
    "aw_A_free": lambda n: awpoly.aw_A_free(n, 0.3, _HUGE_P),
    "aw_phi43_oracle": lambda n: awpoly.aw_phi43_oracle(n, 0.3, _HUGE_AW, 0.5),
    "c_n_main": lambda n: c_n_main(n, _HUGE_P),
    "c_n_seq": lambda n: c_n_seq(n, _HUGE_P),
    "c_n_via_P": lambda n: c_n_via_P(n, _HUGE_P),
    "c_n_gaussian": lambda n: c_n_gaussian(n, 0.3, -0.2, 0.5, 0.4),
    "gamma_mk_partial": lambda n: gamma_mk_partial(0, 0, 0.5, 0.3, 0.4, 0.5, n),
    "gamma_ratio_closed": lambda n: gamma_ratio_closed(n, 0, 0.5, 0.3, 0.4, 0.5),
    "alsalam_identity_residual": lambda n: alsalam_identity_residual(n, 0.5, 0.3, 0.4, 0.5),
    "alpha_coeff": lambda n: alpha_coeff(n, 0, 0, 0.5, 0.4, 0.5),
    "phi_expansion_partial": lambda n: phi_expansion_partial(0.1, _HUGE_P, n),
    "check_orthogonality_H": lambda n: verify.check_orthogonality_H(n, 0.5, 1e-8),
    "check_cond_expectation": lambda n: verify.check_cond_expectation(n, 0.3, 0.5, 0.5, 1e-8),
    "check_orthogonality_P": lambda n: verify.check_orthogonality_P(n, 0.3, 0.5, 0.5, 1e-8),
    "check_aw_orthogonality": lambda n: verify.check_aw_orthogonality(n, _HUGE_P, 1e-7),
    "check_moments": lambda n: verify.check_moments(n, _HUGE_P, 1e-7),
    "check_vnm": lambda n: verify.check_vnm(n, 1, 0.3, -0.2, 0.5, 0.4, 0.5, 1e-8),
    "SuiteConfig": lambda n: verify.run_suite(verify.SuiteConfig(("orthogonality_H",), nmax=n)),
}
# w_factor's k picks one factor of a product, at a cost that does not grow with k
CONSTANT_COST_ORDERS = {"w_factor": lambda k: densities.w_factor(0.1, 0.2, 0.5, 0.5, k)}


def _order_callables():
    """Every callable a module exports in its __all__ with a parameter n, N, nmax, m or k."""
    found = set()
    for module in (qcore, polyfam, awpoly, densities, qaw.moments, verify, cli):
        for name in module.__all__:
            try:
                params = inspect.signature(getattr(module, name)).parameters
            except (TypeError, ValueError):  # not callable, or an exception class
                continue
            if {"n", "N", "nmax", "m", "k"} & set(params):
                found.add(name)
    return found


def test_every_order_parameter_meets_the_budget():
    # a new entry point with an order parameter has to join the table, so
    # that test_huge_order_raises_before_any_table holds it to the budget
    assert _order_callables() == set(HUGE_ORDER_CALLS) | set(CONSTANT_COST_ORDERS)


class TestDensityExpansion:
    def test_uncorrelated_collapses_to_marginal(self):
        p = CondDensityParams(0.4, 0.0, -0.6, 0.0, 0.5)
        for x in (0.0, 0.7, -1.9):
            assert phi_expansion_partial(x, p, 5) == pytest.approx(f_N(x, 0.5).value, rel=1e-14)

    def test_forty_terms_hit_density(self):
        p = CondDensityParams(0.5, -0.3, 0.8, 0.4, 0.5)
        xs = np.array([-1.5, 0.0, 0.6, 2.1])
        on_grid = phi_expansion_partial(xs, p, 40)
        assert on_grid.shape == xs.shape
        for x, from_grid in zip(xs.tolist(), on_grid.tolist()):
            got = phi_expansion_partial(x, p, 40)
            assert got == from_grid
            assert got == pytest.approx(phi_cond(x, p).value, abs=1e-6)

    def test_error_shrinks_with_more_terms(self):
        p = CondDensityParams(0.5, -0.3, 0.8, 0.4, 0.5)
        x = 0.6
        exact = phi_cond(x, p).value
        errors = [abs(phi_expansion_partial(x, p, N) - exact) for N in (10, 20, 40)]
        assert errors[0] > errors[1] > errors[2]

    def test_off_support_is_zero(self):
        # f_N is 0 off the open support, where H_i(x) overflows: 0.0, not nan
        p = CondDensityParams(0.2, 0.4, 0.1, 0.3, 0.5)
        half = 2 / math.sqrt(1 - 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e5, -1e5, half, -3.0):
                got = phi_expansion_partial(x, p, 64)
                assert type(got) is float and math.copysign(1, got) == 1 and got == 0
            xs = np.array([-1e5, -0.7, half, 0.3, 1e5])
            on_grid = phi_expansion_partial(xs, p, 64)
        assert [math.copysign(1, v) for v in on_grid[[0, 2, 4]]] == [1, 1, 1]
        assert list(on_grid[[0, 2, 4]]) == [0, 0, 0]
        # in-support entries keep the bits of the scalar path
        assert on_grid[1] == phi_expansion_partial(-0.7, p, 64)
        assert on_grid[3] == phi_expansion_partial(0.3, p, 64) > 0

    def test_huge_order_raises_before_any_table(self):
        tracemalloc.start()
        try:
            for call in HUGE_ORDER_CALLS.values():
                with pytest.raises(TruncationError, match="exceeds? the term budget 10000"):
                    call(10**9)
            for call in CONSTANT_COST_ORDERS.values():
                assert math.isfinite(call(10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_expansion_matches_the_density(self):
        # the a priori length at q = 0.5 and t = 0.9 is 366 terms
        p = CondDensityParams(0.3, 0.9, -0.2, 0.6, 0.5)
        N = expansion_terms_needed(p, 1e-10)
        assert N == 366
        xs = np.array([-1.9, 0.1, 1.2])
        on_grid = phi_expansion_partial(xs, p, N)
        for x, from_grid in zip(xs.tolist(), on_grid.tolist()):
            phi = phi_cond(x, p).value
            assert from_grid == phi_expansion_partial(x, p, N)
            assert abs(from_grid - phi) <= 1e-10 * max(1, phi), x

    def test_leaving_the_float_range_raises(self):
        # at q = 0.9 the budget asks for N = 729; [n]_q! overflows from n = 315
        p = CondDensityParams(0.3, 0.9, -0.2, 0.6, 0.9)
        N = expansion_terms_needed(p, 1e-10)
        assert N == 729
        with pytest.raises(TruncationError, match=r"\[728\]_q! left the float range"):
            phi_expansion_partial(0.1, p, N)
        q09 = CondDensityParams(0.0, 0.9, 0.0, 0.9, 0.9)
        assert math.isfinite(c_n_main(314, q09))
        with pytest.raises(TruncationError, match=r"\[315\]_q! left the float range"):
            c_n_seq(315, q09)
        q99 = CondDensityParams(0.0, 0.9, 0.0, 0.9, 0.99)
        assert math.isfinite(c_n_main(185, q99))
        with pytest.raises(TruncationError, match=r"\[186\]_q! left the float range"):
            c_n_seq(186, q99)
        with pytest.raises(TruncationError, match=r"\[300\]_q! left the float range"):
            c_n_main(300, q99)
        with pytest.raises(TruncationError, match="at degree 344"):
            gamma_mk_partial(0, 0, 0.5, 0.3, 0.9, 0.99, 1004)
        # N - 1 is an order of c_n_seq, held to the term budget
        with pytest.raises(TruncationError, match="order 10001 exceeds the term budget 10000"):
            phi_expansion_partial(0.1, p, 10_002)

    def test_below_the_normal_floats_raises(self):
        # for q < 0, [n]_q! decays; a subnormal or zero one is refused before
        # the tables are built, where dividing by it raised ZeroDivisionError
        q = CondDensityParams(0.0, 0.9, 0.0, 0.9, -0.9)
        assert math.isfinite(c_n_main(1100, q))
        for call in (lambda: c_n_main(1101, q), lambda: phi_expansion_partial(0.1, q, 1102)):
            with pytest.raises(TruncationError, match=r"\[1101\]_q! left the float range"):
                call()
        with pytest.raises(TruncationError, match=r"\[606\]_q! left the float range \(got 0.0\)"):
            c_n_main(606, CondDensityParams(0.0, 0.9, 0.0, 0.9, -0.999))

    def test_quadratic_tables_are_refused_before_they_are_built(self):
        # orders within the term budget whose tables grow like n**2 are held to
        # the table budget of 10**6 entries: n <= 1412, and the first
        # quadrature call's 63 points of each order pair up to 176
        p = CondDensityParams(0.3, 0.5, -0.2, 0.4, 0.0)
        calls = {
            "the c_n tables of order 10000": lambda: c_n_main(10_000, p),
            "the c_n tables of order 5000": lambda: c_n_seq(5000, p),
            "the c_n tables of order 1413": lambda: phi_expansion_partial(0.1, p, 1414),
            "the Gaussian-binomial rows of order 5000": lambda: awpoly.aw_D(5000, 0.3, _HUGE_AW, 0.5),
            "the Gaussian-binomial rows of order 1413": lambda: awpoly.aw_A_sym(1413, 0.3, p),
            "63 points of each order pair up to 177": lambda: verify.check_orthogonality_H(177, 0.5, 1e-8),
            "63 points of each order pair up to 252": lambda: verify.check_aw_orthogonality(252, p, 1e-7),
            "63 points of each order pair up to 300": lambda: verify.run_suite(
                verify.SuiteConfig(("orthogonality_P",), nmax=300)
            ),
        }
        tracemalloc.start()
        try:
            for what, call in calls.items():
                with pytest.raises(TruncationError, match=f"{what} need .* above the table budget 1000000"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert verify._pair_indices(176)[-1] == (176, 176)
        # the guard refuses exactly the nmax whose first call would not fit
        for nmax in range(160, 260):
            pairs = (nmax + 1) * (nmax + 2) // 2
            if 63 * pairs > 10**6:
                with pytest.raises(TruncationError, match=f"up to {nmax} need {63 * pairs} entries"):
                    verify._pair_indices(nmax)
            else:
                assert len(verify._pair_indices(nmax)) == pairs

    def test_each_quadrature_level_is_held_to_the_table_budget(self):
        # nmax = 150 passes the pair guard, and its 11476 pairs fit in the first
        # call's 63 points; the level of 128 new points would stack 1468928 values
        with pytest.raises(TruncationError, match="orthogonality_H values of 128 points need 1468928"):
            verify.check_orthogonality_H(150, 0.5, 1e-8)
        # H_n is bounded at q = 0, so only the 10001 values a point stop this one
        with pytest.raises(TruncationError, match="cond_expectation values of 128 points"):
            verify.check_cond_expectation(10_000, 0.3, 0.5, 0.0, 1e-8)

    def test_rejects_gaussian_and_empty(self):
        with pytest.raises(DomainError):
            phi_expansion_partial(0.1, CondDensityParams(0.1, 0.5, 0.2, 0.5, 1), 10)
        with pytest.raises(DomainError):
            phi_expansion_partial(0.1, CondDensityParams(0.1, 0.5, 0.2, 0.5, 0.5), 0)


class TestTermBudget:
    def test_uncorrelated_needs_one_term(self):
        assert expansion_terms_needed(CondDensityParams(0.4, 0.0, -0.6, 0.0, 0.5)) == 1

    def test_budget_grows_as_tolerance_shrinks(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.5, 0.5)
        loose = expansion_terms_needed(p, rel_tol=1e-4)
        tight = expansion_terms_needed(p, rel_tol=1e-10)
        assert 1 <= loose < tight

    def test_rejects_tolerance_outside_unit_interval(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.5, 0.5)
        for rel_tol in (0.0, -1e-8, 1.0, 2.0, math.nan):
            with pytest.raises(DomainError):
                expansion_terms_needed(p, rel_tol=rel_tol)

    def test_rejects_complex_tolerance(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.5, 0.5)
        with pytest.raises(DomainError, match="must be real"):
            expansion_terms_needed(p, 0.5j)

    def test_budget_near_q_one_is_reached(self):
        # the product-form s_n overflowed from order 618 at q = 0.9, so the
        # bound never dropped and the loop ran into the term budget
        p = CondDensityParams(0.1, 0.95, 0.2, 0.1, 0.9)
        assert expansion_terms_needed(p, 1e-13) == 1665
        # at t = 0.9999 the bound needs about 10**5 terms: the s_n series
        # stops at the term budget
        p = CondDensityParams(0.1, 0.9999, 0.2, 0.1, 0.5)
        with pytest.raises(TruncationError, match="the s_n series needs more than 10000 terms"):
            expansion_terms_needed(p, 1e-8)

    def test_budget_is_sufficient(self):
        p = CondDensityParams(0.4, 0.3, -0.6, 0.25, 0.5)
        N = expansion_terms_needed(p, rel_tol=1e-8)
        x = 0.2
        assert abs(phi_expansion_partial(x, p, N) - phi_cond(x, p).value) < 1e-8
