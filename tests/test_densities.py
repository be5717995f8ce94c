"""Density functions: pinned values, closed-form collapses, symmetry, bounds."""

import decimal
import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaw import (
    CondDensityParams,
    DensityEval,
    DomainError,
    cond_ratio_values,
    f_CN,
    f_N,
    fcn_ratio_bounds,
    phi_cond,
    phi_cond_via_ratio,
    support_half_width,
    TruncationError,
    q_pochhammer_inf,
    w_factor,
)
from qaw.densities import (
    _f_N_inside,
    _factors_needed,
    _fcn_rows,
    _part_products,
    _phi_rows,
    _powers,
    _rows,
    _split,
    _theta,
    _theta_product,
    _theta_series,
    f_CN_q0,
    f_CN_values,
    f_N_q0,
    f_N_values,
    phi_cond_values,
    phi_q0,
)

small_qs = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=12)
small_fractions = st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=16)


class TestWFactor:
    def test_rho_zero(self):
        assert w_factor(0.7, -0.2, 0.0, 0.5) == 1

    def test_origin(self):
        assert w_factor(0.0, 0.0, 0.6, 0.5) == pytest.approx((1 - 0.36) ** 2)

    def test_pinned(self):
        assert w_factor(1.0, 1.0, 0.5, 0.5, 1) == pytest.approx(0.80859375)

    @given(rho=small_fractions, q=small_qs, x=small_fractions, y=small_fractions)
    @settings(max_examples=40)
    def test_shift_property(self, rho, q, x, y):
        for k in range(4):
            assert w_factor(x, y, rho, q, k) == w_factor(x, y, rho * q**k, q, 0)

    def test_positive_on_square(self):
        q, rho = 0.5, 0.6
        half = 2 / math.sqrt(1 - q)
        pts = np.linspace(-half, half, 21)
        for y in pts:
            values = w_factor(pts, float(y), rho, q, 0)
            assert np.all(values > 0)


class TestSupportHalfWidth:
    def test_free_case(self):
        assert support_half_width(0) == 2.0
        assert support_half_width(0.5) == 2 / math.sqrt(0.5)
        with pytest.raises(DomainError, match="base must satisfy"):
            support_half_width(1.5)

    def test_gaussian_case_unbounded(self):
        assert support_half_width(1) == math.inf

    def test_membership(self):
        # the open support: the edge itself has density 0, a point just inside does not
        q = 0.5
        half = support_half_width(q)
        inside = float(np.nextafter(half, 0))
        p = CondDensityParams(0.5, 0.3, -0.5, 0.6, q)
        for edge in (half, -half):
            assert f_N(edge, q).value == 0.0
            assert phi_cond(edge, p).value == 0.0
            assert phi_cond_via_ratio(edge, p) == 0.0
        assert f_N(inside, q).value > 0.0
        assert phi_cond(inside, p).value > 0.0
        assert phi_cond_via_ratio(inside, p) > 0.0


class TestFN:
    def test_outside_support(self):
        ev = f_N(3.0, 0.0)
        assert ev.value == 0.0

    def test_semicircle_center(self):
        assert f_N(0.0, 0.0).value == pytest.approx(1 / math.pi, rel=1e-12)

    def test_gaussian_center(self):
        assert f_N(0.0, 1).value == pytest.approx(0.3989422804014327, rel=1e-10)

    def test_endpoint_is_zero(self):
        half = 2 / math.sqrt(1 - 0.5)
        assert f_N(half, 0.5).value == 0.0

    def test_free_case_closed_form(self):
        for x in (0.5, -1.3, 1.9):
            assert f_N(x, 0.0).value == pytest.approx(f_N_q0(x), abs=1e-14)

    def test_even_symmetry(self):
        for q in (-0.5, 0.3, 0.7):
            for x in (0.4, 1.1):
                assert f_N(x, q).value == pytest.approx(f_N(-x, q).value, rel=1e-14)

    def test_nonnegative_on_grid(self):
        for q in (-0.5, 0.0, 0.7):
            half = 2 / math.sqrt(1 - q)
            values = f_N_values(np.linspace(-1.5 * half, 1.5 * half, 101), q)
            assert np.all(values >= 0)

    def test_vector_matches_scalar(self):
        xs = np.array([-1.2, 0.0, 0.4, 2.6])
        vec = f_N_values(xs, 0.5)
        assert vec == pytest.approx([f_N(float(x), 0.5).value for x in xs])


class TestFCN:
    def test_rho_zero_reduces_to_f_N(self):
        for x in (0.3, -1.0, 5.0):
            got, want = f_CN(x, 0.5, 0.0, 0.4), f_N(x, 0.4)
            assert got.value == pytest.approx(want.value, rel=1e-14)
            assert got.terms == want.terms

    def test_free_case_pinned(self):
        assert f_CN(0.0, 0.0, 0.5, 0.0).value == pytest.approx(2 / (2 * math.pi * 0.75), rel=1e-12)

    def test_gaussian_branch(self):
        got = f_CN(0.3, -0.4, 0.6, 1).value
        want = math.exp(-((0.3 + 0.24) ** 2) / (2 * 0.64)) / math.sqrt(2 * math.pi * 0.64)
        assert got == pytest.approx(want, rel=1e-14)

    def test_free_case_closed_form(self):
        for x in (0.5, -1.3, 1.9):
            assert f_CN(x, -0.3, 0.4, 0.0).value == pytest.approx(f_CN_q0(x, -0.3, 0.4), abs=1e-14)

    def test_joint_reflection_symmetry(self):
        for q in (-0.5, 0.3):
            assert f_CN(0.4, 0.6, 0.5, q).value == pytest.approx(
                f_CN(-0.4, -0.6, 0.5, q).value, rel=1e-13
            )

    def test_rejects_exterior_conditioning_point(self):
        with pytest.raises(DomainError):
            f_CN(0.3, 5.0, 0.5, 0.5)

    def test_rejects_complex_parameters(self):
        # complex values have no order; DomainError, not TypeError
        for call in (
            lambda: f_CN(0.1, 0.2, 0.3j, 0.5),
            lambda: f_CN(0.1, 0.2j, 0.3, 0.5),
            lambda: f_N(0.1, 0.5j),
        ):
            with pytest.raises(DomainError):
                call()

    def test_rejects_boundary_conditioning_point(self):
        half = 2 / math.sqrt(1 - 0.5)
        with pytest.raises(DomainError):
            f_CN(0.3, half, 0.5, 0.5)

    def test_vector_matches_scalar(self):
        xs = np.array([-1.2, 0.0, 0.4, 2.6])
        vec = f_CN_values(xs, 0.5, 0.6, 0.3)
        assert vec == pytest.approx([f_CN(float(x), 0.5, 0.6, 0.3).value for x in xs])


class TestPhiCond:
    def test_uncorrelated_reduces_to_f_N(self):
        p = CondDensityParams(0.4, 0.0, -0.6, 0.0, 0.5)
        for x in (0.3, -0.9):
            assert phi_cond(x, p).value == pytest.approx(f_N(x, 0.5).value, rel=1e-14)

    def test_rho1_zero_reduces_to_f_CN(self):
        p = CondDensityParams(0.4, 0.0, -0.6, 0.7, 0.5)
        for x in (0.3, -0.9):
            assert phi_cond(x, p).value == pytest.approx(f_CN(x, -0.6, 0.7, 0.5).value, rel=1e-13)

    def test_free_case_closed_form_pinned(self):
        p = CondDensityParams(-0.3, 0.4, 0.8, 0.5, 0.0)
        for x in (0.5, -1.3, 1.9):
            assert phi_cond(x, p).value == pytest.approx(phi_q0(x, p), abs=1e-12)

    def test_gaussian_branch_moments(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 1)
        mu = (0.4 * 0.5 * (1 - 0.49) + (-0.6) * 0.7 * (1 - 0.25)) / (1 - 0.25 * 0.49)
        var = (1 - 0.25) * (1 - 0.49) / (1 - 0.25 * 0.49)
        got = phi_cond(0.3, p).value
        want = math.exp(-((0.3 - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        assert got == pytest.approx(want, rel=1e-14)

    def test_swap_invariance(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.3)
        for x in (0.3, -1.1):
            assert phi_cond(x, p).value == pytest.approx(phi_cond(x, p.swapped()).value, rel=1e-13)

    def test_ratio_route_agrees(self):
        cases = [
            (CondDensityParams(0.4, 0.5, -0.6, 0.7, q), x)
            for q in (-0.5, 0.0, 0.3, 0.7)
            for x in (0.3, -1.0 / math.sqrt(1 - q))
        ]
        # far corner at q = 0.99: the two numerator factors multiply below
        # the smallest float, while phi itself is about 2.7e-303
        cases.append((CondDensityParams(16.0, 0.6, 17.0, 0.6, 0.99), -17.0))
        for p, x in cases:
            u = phi_cond(x, p).value
            v = phi_cond_via_ratio(x, p)
            assert v == pytest.approx(u, rel=1e-10, abs=0)

    def test_outside_support_is_zero(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.5)
        ev = phi_cond(10.0, p)
        assert ev.value == 0.0 and ev.terms == 0

    def test_nonnegative_on_grid(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.5)
        half = 2 / math.sqrt(1 - 0.5)
        values = phi_cond_values(np.linspace(-half, half, 101), p)
        assert np.all(values >= 0)


class TestNonFinitePoints:
    def test_every_density_entry_point_rejects(self):
        for q in (0.5, 1):
            p = CondDensityParams(0.4, 0.5, -0.6, 0.7, q)
            point_calls = [
                lambda x: f_N(x, q),
                lambda x: f_CN(x, 0.2, 0.3, q),
                lambda x: phi_cond(x, p),
                lambda x: phi_cond_via_ratio(x, p),
            ]
            calls = point_calls + [
                lambda x: f_N_values(np.array([0.0, x]), q),
                lambda x: f_CN_values(np.array([0.0, x]), 0.2, 0.3, q),
                lambda x: f_CN_values(np.array([0.0, x]), 0.2, 0.0, q),
                lambda x: phi_cond_values(np.array([0.0, x]), p),
            ]
            if q != 1:
                calls.append(lambda x: cond_ratio_values(np.array([0.0, x]), 0.2, 0.3, q))
                calls.append(lambda x: cond_ratio_values([x], 0.2, 0.0, q))
            for bad in (math.nan, math.inf, -math.inf, 0.1 + 5j, np.complex128(0.1 + 5j)):
                for call in calls:
                    with pytest.raises(DomainError):
                        call(bad)
            # a point call takes one number, not an array of them
            for call in point_calls:
                with pytest.raises(DomainError):
                    call(np.array([0.1, 0.2]))
        # w_factor takes any of its four arguments as a number or an array
        args = (0.3, -0.2, 0.5, 0.4)
        for i in range(4):
            for bad in (math.nan, math.inf, -math.inf, np.array([0.1, math.nan])):
                with pytest.raises(DomainError):
                    w_factor(*args[:i], bad, *args[i + 1 :])

    def test_q0_closed_forms_reject_nan_and_inf_points(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0)
        calls = (f_N_q0, lambda x: f_CN_q0(x, 0.1, 0.3), lambda x: phi_q0(x, p))
        for call in calls:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError):
                    call(bad)
            assert call(2.5) == 0.0


class TestExactParameters:
    """The densities are float-only products: an exact fraction raises DomainError."""

    @staticmethod
    def _calls(y, rho, q, p):
        xs = np.array([0.0, 0.3])
        return {
            "f_N": lambda: f_N(0.3, q),
            "f_N_values": lambda: f_N_values(xs, q),
            "f_CN": lambda: f_CN(0.3, y, rho, q),
            "f_CN_values": lambda: f_CN_values(xs, y, rho, q),
            "cond_ratio_values": lambda: cond_ratio_values(xs, y, rho, q),
            "phi_cond": lambda: phi_cond(0.3, p),
            "phi_cond_values": lambda: phi_cond_values(xs, p),
            "fcn_ratio_bounds": lambda: fcn_ratio_bounds(y, rho, q),
        }

    @pytest.mark.parametrize("name", ["f_N", "f_N_values", "f_CN", "f_CN_values",
                                      "cond_ratio_values", "phi_cond", "phi_cond_values",
                                      "fcn_ratio_bounds"])
    def test_fraction_base_or_field_raises(self, name):
        half = Fraction(1, 2)
        exact_q = self._calls(0.2, 0.3, half, CondDensityParams(0.4, 0.5, -0.6, 0.7, half))
        with pytest.raises(DomainError):
            exact_q[name]()
        if name in ("f_N", "f_N_values"):
            return
        exact_field = self._calls(Fraction(1, 5), Fraction(3, 10), 0.5,
                                  CondDensityParams(0.4, half, -0.6, 0.7, 0.5))
        with pytest.raises(DomainError):
            exact_field[name]()

    @pytest.mark.parametrize("name", ["f_N", "f_N_values", "f_CN", "f_CN_values",
                                      "cond_ratio_values", "phi_cond", "phi_cond_values",
                                      "fcn_ratio_bounds"])
    def test_array_parameter_raises(self, name):
        # a 0-d array is no float parameter, and it cannot key the row cache
        arr = np.array(0.5)
        cases = [self._calls(0.2, 0.3, arr, CondDensityParams(0.4, 0.5, -0.6, 0.7, arr))]
        if name not in ("f_N", "f_N_values"):
            cases.append(self._calls(np.array(0.2), arr, 0.5,
                                     CondDensityParams(np.array(0.4), arr, -0.6, 0.7, 0.5)))
        for calls in cases:
            with pytest.raises(DomainError):
                calls[name]()

    def test_integer_and_float_parameters_pass(self):
        # integers mix into numpy arithmetic, so only exact fractions are refused
        for q in (0, 0.5):
            calls = self._calls(0, 0, q, CondDensityParams(0, 0, 1, 0.5, q))
            for call in calls.values():
                call()


def _grid(q, npts):
    half = 2 / math.sqrt(1 - q)
    edge = 0.99 * min(half, 6)
    return np.linspace(-edge, edge, npts)


def _grid_densities(q):
    """The four product-form *_values functions at q, each a function of x alone."""
    p = CondDensityParams(0.4, 0.5, -0.6, -0.7, q)
    return {
        "f_N": lambda x: f_N_values(x, q),
        "f_CN": lambda x: f_CN_values(x, 0.4, 0.5, q),
        "phi_cond": lambda x: phi_cond_values(x, p),
        "cond_ratio": lambda x: cond_ratio_values(x, 0.4, 0.5, q),
    }


def _point_calls(q):
    """The three scalar entry points at q with _grid_densities' parameters."""
    p = CondDensityParams(0.4, 0.5, -0.6, -0.7, q)
    return {
        "f_N": lambda x: f_N(x, q),
        "f_CN": lambda x: f_CN(x, 0.4, 0.5, q),
        "phi_cond": lambda x: phi_cond(x, p),
    }


class TestBlockedProducts:
    """Grids are evaluated in blocks of points; every value keeps its bits."""

    @pytest.mark.parametrize("q, npts", [(0.99, 2000), (0.5, 5000), (0.9, 3000), (-0.7, 3000)])
    def test_grid_values_equal_single_point_calls(self, q, npts):
        xs = _grid(q, npts)
        points = _point_calls(q)
        for name, fn in _grid_densities(q).items():
            values = fn(xs)
            assert values.shape == xs.shape
            mismatches = [i for i in range(0, npts, 97) if fn(xs[i : i + 1])[0] != values[i]]
            if name in points:
                # the scalar entry point runs the float path, not a 1-point array
                point = points[name]
                mismatches += [i for i in range(0, npts, 97) if point(xs[i]).value != values[i]]
            assert mismatches == [], name
        half = 2 / math.sqrt(1 - q)
        for name, point in points.items():
            for edge in (-half, half):
                assert point(edge) == DensityEval(0.0, 0), name

    def test_ratio_keeps_the_input_shape(self):
        y, rho, q = 0.4, 0.5, 0.9
        xs = _grid(q, 2000)
        flat = cond_ratio_values(xs, y, rho, q)
        square = cond_ratio_values(xs.reshape(40, 50), y, rho, q)
        assert square.shape == (40, 50)
        assert np.array_equal(square, flat.reshape(40, 50))
        point = cond_ratio_values(np.asarray(xs[7]), y, rho, q)
        assert point.shape == ()
        assert point == flat[7]
        assert cond_ratio_values(np.empty((0, 3)), y, rho, q).shape == (0, 3)


class TestMemoryBound:
    """Peak memory of a grid evaluation does not grow with K times the point count."""

    @pytest.mark.parametrize("q, npts", [(0.99, 2000), (0.9, 20000)])
    def test_tracemalloc_peak_below_4_mb(self, q, npts):
        xs = _grid(q, npts)
        for name, fn in _grid_densities(q).items():
            fn(xs[:1])  # product lengths and coefficients are cached before measuring
            tracemalloc.start()
            try:
                fn(xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, (name, peak)

    def test_row_cache_retains_below_1_5_mb(self):
        # a full _rows cache at q = 0.99, filled last by phi_cond bundles,
        # whose eight rows of K = 4120 make the largest entries
        q, maxsize = 0.99, _rows.cache_info().maxsize
        half = 2 / math.sqrt(1 - q)
        fracs = np.linspace(-0.9, 0.9, maxsize)
        f_CN(0.1, 0.2, 0.5, q)
        phi_cond(0.1, CondDensityParams(0.2, 0.5, 0.1, 0.3, q))  # q**k rows cached
        _rows.cache_clear()
        tracemalloc.start()
        try:
            for u in fracs:
                f_CN(0.1, u * half, 0.5, q)
            for u in fracs:
                phi_cond(0.1, CondDensityParams(u * half, 0.5, -u * half, 0.3, q))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _rows.cache_info().currsize == maxsize
        assert retained < 1_500_000, retained


def _lower_bound_oracle(y, rho, q, stop=20):
    """(rho**2; q)_inf / prod_k ((1 + rho**2 q**(2k)) + sqrt(1-q) |rho q**k y|)**2
    in 50-digit decimal arithmetic, the product stopping where |q**k| < 10**-stop."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        y, rho, q = D(y), D(rho), D(q)
        root = (1 - q).sqrt()
        num = den = qk = D(1)
        tiny = D(10) ** -stop
        while abs(qk) > tiny:
            r = rho * qk
            num *= 1 - rho * r
            den *= ((1 + r * r) + root * abs(r * y)) ** 2
            qk *= q
        return num / den


class TestRatioBounds:
    def test_rho_zero_degenerate(self):
        assert fcn_ratio_bounds(0.4, 0.0, 0.5) == (1.0, 1.0)

    def test_grid_membership_pinned(self):
        y, rho, q = 0.5, 0.6, 0.4
        lo, hi = fcn_ratio_bounds(y, rho, q)
        assert 0 < lo <= hi
        half = 2 / math.sqrt(1 - q)
        xs = np.linspace(-half, half, 103)[1:-1]
        ratio = cond_ratio_values(xs, y, rho, q)
        assert np.all(ratio >= lo - 1e-12)
        assert np.all(ratio <= hi + 1e-12)

    # The bound reads at most 1.4e-14 for |q| <= 0.9 and 2.7e-14 at q = 0.99.
    # Scaling its product's length by 0.01 (_BOUND_SCALE 16 -> 0.16) reads
    # 1.8e-13 to 2.0e-13 at rho = 0.9, and by 1e-6 from 1.1e-10.
    @pytest.mark.parametrize("q", [0.5, 0.9, -0.9, 0.99])
    def test_lower_bound_against_a_50_digit_product(self, q):
        half = 2 / math.sqrt(1 - q)
        for frac, rho in ((0.4, 0.6), (0.9, 0.9), (-0.2, -0.3)):
            y = frac * half
            lo, _ = fcn_ratio_bounds(y, rho, q)
            rel = abs(decimal.Decimal(lo) / _lower_bound_oracle(y, rho, q) - 1)
            assert rel <= (1e-13 if q == 0.99 else 5e-14), (q, frac, rho, float(rel))

    def test_upper_bound_value(self):
        _, hi = fcn_ratio_bounds(0.0, 0.5, 0.5)
        want = q_pochhammer_inf(0.25, 0.5) / q_pochhammer_inf(0.5, 0.5) ** 4
        assert hi == pytest.approx(want, rel=1e-12)

    def test_ratio_matches_density_quotient(self):
        y, rho, q = 0.5, 0.6, 0.4
        for x in (0.2, -1.3):
            want = f_CN(x, y, rho, q).value / f_N(x, q).value
            assert cond_ratio_values(np.array([x]), y, rho, q)[0] == pytest.approx(want, rel=1e-13)


# md5 of _golden_feed over q = 0.5, 0.9, 0.99
GOLDEN_DENSITY_MD5 = "83d0d826674fe2757ae00d2d9f05c844"


def _golden_feed(digest, q):
    """Grid values of the four *_values products and (value, terms) of the point calls."""
    half = 2 / math.sqrt(1 - q)
    xs = np.linspace(-1.05 * half, 1.05 * half, 61)
    y, z = 0.3 * half, -0.45 * half
    p = CondDensityParams(y, 0.5, z, -0.3, q)
    for values in (
        f_N_values(xs, q),
        f_CN_values(xs, y, 0.6, q),
        cond_ratio_values(xs, y, 0.6, q),
        phi_cond_values(xs, p),
    ):
        digest.update(values.tobytes())
    for x in (0.1 * half, -0.6 * half, 1.2 * half):
        for ev in (f_N(x, q), f_CN(x, y, 0.6, q), phi_cond(x, p)):
            digest.update(repr((ev.value, ev.terms)).encode())


class TestProductRows:
    """Each product keeps its own length K; the q**k row is shared and read-only."""

    def test_each_product_keeps_its_own_count(self):
        assert f_N(0.1, 0.99).terms == 1
        assert f_CN(0.1, 0.2, 0.0, 0.99).terms == 1
        # K = 4011 and 4120 factors: the log series runs 45 and 47 terms
        p = CondDensityParams(0.2, 0.5, 0.1, 0.3, 0.99)
        assert (f_CN(0.1, 0.2, 0.5, 0.99).terms, phi_cond(0.1, p).terms) == (45, 47)
        # at q = 0.5 the series too, J + M = 12 against K = 53 and 55 factors
        assert f_CN(0.1, 0.2, 0.5, 0.5).terms == 12
        p = CondDensityParams(0.2, 0.5, 0.1, 0.3, 0.5)
        assert phi_cond(0.1, p).terms == 12
        # near q = 0 the whole product, K = 3 factors (the ratio has no f_N)
        assert _fcn_rows(0.2, 0.5, 1e-6)[0] == 3
        assert np.all(cond_ratio_values([0.1], 0.2, 0.5, 1e-6) > 0)

    def test_ratio_runs_where_f_N_cannot(self):
        # the ratio's log series needs no (q; q)_inf, while f_N's product at
        # q = -0.997 needs more than the 10000 factors of the term budget
        ratio = cond_ratio_values(np.linspace(-1, 1, 5), 0.2, 0.5, -0.997)
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)
        for q in (-0.997, -0.998):  # about 12 700 and 19 200 factors
            with pytest.raises(TruncationError, match="more than 10000 terms, the term budget"):
                f_N(0.1, q)
        # above q = 0.99 no rule refuses f_N: its theta series runs one term
        assert f_N(0.1, 0.995).terms == 1

    def test_terms_report_the_product_used(self):
        q, y, z = 0.5, 0.3, -0.4
        p = CondDensityParams(y, 0.5, z, -0.3, q)
        plain = CondDensityParams(y, 0.0, z, 0.0, q)
        # interior point: f_N's series M, f_CN's and phi_cond's own J + M at q = 0.5
        assert (f_N(0.1, q).terms, f_CN(0.1, y, 0.6, q).terms, phi_cond(0.1, p).terms) == (2, 12, 12)
        # zero correlation: the f_N series alone
        assert (f_CN(0.1, y, 0.0, q).terms, phi_cond(0.1, plain).terms) == (2, 2)
        # on or off the support, and the q = 1 closed forms: no product
        for x in (2 / math.sqrt(1 - q), 5.0):
            assert (f_N(x, q).terms, f_CN(x, y, 0.6, q).terms, phi_cond(x, p).terms) == (0, 0, 0)
        p1 = CondDensityParams(y, 0.5, z, -0.3, 1)
        assert (f_N(0.1, 1).terms, f_CN(0.1, y, 0.6, 1).terms, phi_cond(0.1, p1).terms) == (0, 0, 0)

    def test_cached_row_rejects_writes(self):
        K, row = _powers(0.5, 8.0)
        assert len(row) == K == 51
        # the q**k row, the decay rates of f_N's series and every cached rho-part row
        p = CondDensityParams(0.2, 0.5, 0.1, 0.3, 0.5)
        rows = [row, _theta(0.5)[3]]
        for _, (_, num, den, coeffs), _, _ in (
            _rows(_fcn_rows, 0.2, 0.5, 0.5),
            _rows(_phi_rows, p),
        ):
            rows += [num] + ([] if den is None else [den]) + [c for w in coeffs for c in w]
        assert len(rows) == 2 + 4 + 8
        for row in rows:
            with pytest.raises(ValueError):
                row[0] = 2.0

    def test_interleaved_calls_keep_the_bits_of_cold_calls(self):
        # more parameter sets than _rows holds, revisited A, B, A, C, ...
        q = 0.99
        half = 2 / math.sqrt(1 - q)
        # neighbours: sets that differ in one field by 1e-6, or in a sign
        calls = [lambda x, y=y: f_CN(x, y, 0.6, q) for y in (-0.3 * half, 0.1, 0.1 + 1e-6)]
        calls.append(lambda x: DensityEval(float(cond_ratio_values([x], 0.1, 0.6, q)[0]), 0))
        calls += [
            lambda x, p=CondDensityParams(u * half, 0.5, -0.2 * half, rho2, q): phi_cond(x, p)
            for u, rho2 in ((0.3, -0.3), (0.3, 0.3), (-0.6, 0.8))
        ]
        assert len(calls) > _rows.cache_info().maxsize
        xs = (-0.1 * half, 0.2, 0.25 * half)

        def bits(ev):
            return ev.value.hex(), ev.terms

        cold = {}
        for i, call in enumerate(calls):
            for x in xs:
                _rows.cache_clear()
                cold[i, x] = bits(call(x))
        order = [i for j in range(1, len(calls)) for i in (0, j)] * 2
        for n, i in enumerate(order):
            x = xs[n % len(xs)]
            assert bits(calls[i](x)) == cold[i, x], (i, x)

    def test_golden_values_at_high_q(self):
        # pins the product digits at q = 0.5, 0.9, 0.99, beyond the suite's
        # q <= 0.7; a change that moves them on purpose updates this hash
        digest = hashlib.md5()
        for q in (0.5, 0.9, 0.99):
            _golden_feed(digest, q)
        assert digest.hexdigest() == GOLDEN_DENSITY_MD5


@st.composite
def float_bundles(draw):
    """Float bundles: q in [-0.9, 0.99], |rho| <= 0.95, y and z within 0.99 of the half-width."""
    q = draw(st.floats(-0.9, 0.99))
    half = 2 / math.sqrt(1 - q)
    frac, rho = st.floats(-0.99, 0.99), st.floats(-0.95, 0.95)
    return CondDensityParams(draw(frac) * half, draw(rho), draw(frac) * half, draw(rho), q)


class TestPointCallProperty:
    @given(p=float_bundles(), u=st.floats(-0.99, 0.99), s=st.floats(-1, 1))
    @settings(max_examples=80, deadline=None)
    def test_point_call_is_the_one_point_grid_value(self, p, u, s):
        """Cold and warm point calls give the 1-point grid value bit for bit.

        Bits are compared at any x within 0.99 of the half-width; positivity
        at x within one unit of the conditional mean, where the law has its
        mass: far in the tails at q near 1 the true value can lie below the
        float range.
        """
        q = p.q
        half = 2 / math.sqrt(1 - q)
        r1sq, r2sq = p.rho1 * p.rho1, p.rho2 * p.rho2
        means = {
            "f_N": 0.0,
            "f_CN": p.rho1 * p.y,
            "phi_cond": (p.y * p.rho1 * (1 - r2sq) + p.z * p.rho2 * (1 - r1sq)) / (1 - r1sq * r2sq),
        }
        pairs = {
            "f_N": (lambda x: f_N(x, q), lambda xs: f_N_values(xs, q)),
            "f_CN": (lambda x: f_CN(x, p.y, p.rho1, q), lambda xs: f_CN_values(xs, p.y, p.rho1, q)),
            "phi_cond": (lambda x: phi_cond(x, p), lambda xs: phi_cond_values(xs, p)),
        }
        for name, (point, grid) in pairs.items():
            near = min(max(means[name] + s, -0.99 * half), 0.99 * half)
            for x in (u * half, near):
                _rows.cache_clear()
                cold = point(x).value
                warm = point(x).value
                assert cold.hex() == warm.hex() == grid(np.array([x]))[0].hex(), (name, x)
            assert point(near).value > 0, (name, near)


def _f_N_oracle(x, q, stop=62):
    """f_N at the float x by its product, summed in 60-digit arithmetic.

    The product stops where |q**k| < 10**-stop.
    """
    with mpmath.workdps(60):
        x, q = mpmath.mpf(x), mpmath.mpf(q)
        t = (1 - q) * x * x
        total, qk, tiny = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(10) ** -stop
        while abs(qk) > tiny:
            # the k-th theta factor times the k-th factor of (q; q)_inf
            total *= ((1 + qk) ** 2 - t * qk) * (1 - qk * q)
            qk *= q
        return mpmath.sqrt(1 - q) * total / (2 * mpmath.pi * mpmath.sqrt(4 - t))


class TestThetaRoutes:
    """f_N's theta part: the wrapped-Gaussian series where it is shorter, else the product."""

    # Rounding costs relative accuracy in proportion to the Gaussian
    # exponent E = ln(f_N(0) / f_N(x)), which reaches 250 at 0.9 of the
    # half-width at q = 0.99, where random samples put the series within
    # 1e-13 and the product up to 1.6e-13 off; the bounds widen by E / 100
    # past E = 100.
    @pytest.mark.parametrize(
        "q, fracs",
        [(q, (0.0, 0.3, -0.6, 0.9, 0.99, -0.999)) for q in (0.01, 0.1, 0.5, 0.9, -0.5, -0.9)]
        + [(0.99, (0.3, -0.9, 0.999))],
    )
    def test_against_a_60_digit_product(self, q, fracs):
        half = 2 / math.sqrt(1 - q)
        peak = f_N(0.0, q).value
        for frac in fracs:
            x = frac * half
            got = f_N(x, q).value
            want = _f_N_oracle(x, q)
            rel = float(abs(got - want) / want)
            widen = max(1, math.log(peak / got) / 100)
            assert rel <= (1e-13 if abs(frac) <= 0.9 else 2e-12) * widen, (q, frac, rel)

    # Past |q| = 0.99 rounding grows like 1 / (1 - |q|): the bound is
    # C 1e-16 / (1 - |q|) with C = 10, which is the 1e-13 above at q = 0.99,
    # widened as above.  The theta series still runs one term; q = -0.995
    # runs the product, 7903 factors.  The oracle stops at |q**k| < 1e-20,
    # a tail below 1e-19 / (1 - |q|), to stay within a second per point.
    @pytest.mark.parametrize(
        "q, fracs", [(0.995, (0.0, 0.4, -0.8)), (0.999, (0.0, 0.4)), (-0.995, (0.0, -0.8))]
    )
    def test_past_099_against_a_60_digit_product(self, q, fracs):
        half = 2 / math.sqrt(1 - q)
        peak = f_N(0.0, q).value
        for frac in fracs:
            x = frac * half
            got = f_N(x, q).value
            want = _f_N_oracle(x, q, stop=20)
            rel = float(abs(got - want) / want)
            widen = max(1, math.log(peak / got) / 100)
            assert rel <= 10e-16 / (1 - abs(q)) * widen, (q, frac, rel)

    @given(q=st.floats(0.01, 0.99), u=st.floats(-0.9, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_series_and_product_agree(self, q, u):
        # the product's own error, up to 1.6e-13 near q = 0.99, sets the bound
        x = u * 2 / math.sqrt(1 - q)
        product_route = _theta_product(q)
        series = _f_N_inside(x, q, _theta_series(q))
        product = _f_N_inside(x, q, product_route)
        widen = max(1, math.log(_f_N_inside(0.0, q, product_route) / product) / 100)
        assert abs(series - product) <= 3e-13 * widen * product, (q, x)

    def test_route_choice(self):
        # the series where it needs fewer terms than the product has factors
        for q, M in ((0.01, 3), (0.1, 2), (0.5, 2), (0.9, 1), (0.99, 1)):
            assert isinstance(_theta(q)[2], tuple)
            assert f_N(0.1, q).terms == M, q
        # q <= 0 has no series, and near q = 0 the product is the shorter
        for q in (-0.9, -0.5, 0.0, 1e-12):
            coef, K, qk, head = _theta(q)
            assert K == _powers(q, 8.0)[0] == f_N(0.1, q).terms, q
            assert np.array_equal(head, (1 + qk) ** 2)
        assert _theta_series(1e-12)[1] > _theta(1e-12)[1]


def _rho_part_oracle(x, pairs, q, cross=None, stop=40):
    """The rho-part at the float x by its product, in 50-digit decimal arithmetic.

    Each (y, rho) of pairs contributes (1 - rho**2 q**k) / w_k(x, y) and
    cross = (y, z, rho1 rho2) contributes w_k(y, z) / (1 - (rho1 rho2)**2 q**k);
    the product stops where |q**k| < 10**-stop.  libmpdec runs it about ten
    times faster than mpmath's pure-Python backend.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        q = D(q)

        def w(a, b, r):
            rsq = r * r
            cross = (1 - q) * r * (1 + rsq) * a * b
            return (1 - rsq) ** 2 - cross + (1 - q) * rsq * (a * a + b * b)

        factors = [(D(x), D(y), D(rho), True) for y, rho in pairs]
        if cross is not None:
            factors.append((*map(D, cross), False))
        num = den = qk = D(1)
        tiny = D(10) ** -stop
        while abs(qk) > tiny:
            for a, b, rho, over_w in factors:
                r = rho * qk
                if over_w:
                    num, den = num * (1 - r * rho), den * w(a, b, r)
                else:
                    num, den = num * w(a, b, r), den * (1 - r * rho)
            qk *= q
        return num / den


class TestRhoPartRoutes:
    """rho-parts: J exact factors times exp of an M-term log series, or the whole product."""

    # Rounding costs relative accuracy in proportion to the size of the
    # log-ratio, which passes 250 near the edge at q = 0.99 (the same holds
    # for the product); the bound widens by |ln ratio| / 100 past 100, as
    # TestThetaRoutes' does.  f_CN and phi_cond are read as ratios to f_N
    # where their value is a normal float.
    @pytest.mark.parametrize(
        "q, fracs",
        [(q, (0.0, 0.4, -0.75, 0.9, -0.99, 0.999)) for q in (0.3, 0.5, 0.9, -0.5)]
        + [(0.99, (0.4, -0.99, 0.999))]
        + [(q, (0.0, 0.4, -0.75, 0.9, -0.99, 0.999)) for q in (0.7, -0.3)],
    )
    def test_against_a_50_digit_product(self, q, fracs):
        half = 2 / math.sqrt(1 - q)
        y, z = 0.3 * half, -0.55 * half
        for rho1, rho2 in ((0.6, -0.3), (-0.9, 0.5)):
            p = CondDensityParams(y, rho1, z, rho2, q)
            for frac in fracs:
                x = frac * half
                fn = f_N(x, q).value
                fcn = _rho_part_oracle(x, [(y, rho1)], q)
                phi = _rho_part_oracle(x, [(y, rho1), (z, rho2)], q, (y, z, rho1 * rho2))
                checks = [(cond_ratio_values([x], y, rho1, q)[0], fcn)]
                if fn * float(fcn) > 1e-290:
                    checks.append((f_CN(x, y, rho1, q).value / fn, fcn))
                if fn * float(phi) > 1e-290:
                    checks.append((phi_cond(x, p).value / fn, phi))
                for got, want in checks:
                    rel = abs(decimal.Decimal(float(got)) / want - 1)
                    widen = max(1, abs(math.log(float(want))) / 100)
                    assert rel <= 1e-13 * widen, (q, rho1, frac, float(rel))

    # The log series' weights reach 1 / (1 - q), so its rounding grows like
    # that past q = 0.99: the bound is C 1e-16 / (1 - q) with C = 10, which
    # is the 1e-13 above at q = 0.99, widened as above.  One point per
    # correlation pair, all points within 0.2 half-widths of 0,
    # and an oracle that stops at |q**k| < 1e-20 keep this near a second.
    @pytest.mark.parametrize("q", [0.995, 0.999])
    def test_past_099_against_a_50_digit_product(self, q):
        half = 2 / math.sqrt(1 - q)
        y, z = 0.15 * half, -0.2 * half
        for rho1, rho2, frac in ((0.6, -0.3, 0.2), (-0.9, 0.5, -0.2)):
            p = CondDensityParams(y, rho1, z, rho2, q)
            x = frac * half
            fn = f_N(x, q).value
            fcn = _rho_part_oracle(x, [(y, rho1)], q, stop=20)
            phi = _rho_part_oracle(x, [(y, rho1), (z, rho2)], q, (y, z, rho1 * rho2), stop=20)
            checks = [
                (cond_ratio_values([x], y, rho1, q)[0], fcn),
                (f_CN(x, y, rho1, q).value / fn, fcn),
                (phi_cond(x, p).value / fn, phi),
            ]
            for got, want in checks:
                rel = abs(decimal.Decimal(float(got)) / want - 1)
                widen = max(1, abs(math.log(float(want))) / 100)
                assert rel <= 10e-16 / (1 - q) * widen, (q, rho1, float(rel))

    def test_runs_close_to_q_one(self):
        # no rule refuses q near 1: J + M = 372 at q = 0.999999, rho1 = 0.9
        p = CondDensityParams(0.3, 0.9, -0.2, 0.6, 0.999999)
        ev = phi_cond(0.1, p)
        assert ev.terms == 372 and 0 < ev.value < 1

    @given(
        q=st.floats(0.01, 0.99) | st.floats(-0.99, -0.01),
        u=st.floats(-0.99, 0.99), v=st.floats(-0.99, 0.99), w=st.floats(-0.99, 0.99),
        rho1=st.floats(-0.95, 0.95).filter(lambda r: abs(r) > 0.01), rho2=st.floats(-0.95, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_and_whole_product_agree(self, q, u, v, w, rho1, rho2):
        # the product's own rounding, up to about 1e-13 at K ~ 4000, sets the
        # bound; far in the corners at q near 1 a ratio can lie below the
        # normal floats, where relative digits are lost either way
        half = 2 / math.sqrt(1 - q)
        x, y, z = u * half, v * half, w * half
        p = CondDensityParams(y, rho1, z, rho2, q)
        for build, key in ((_fcn_rows, (y, rho1, q)), (_phi_rows, (p,))):
            split = build(*key)
            whole = build(*key, product=True)
            got, want = _part_products(x, split), _part_products(x, whole)
            if want < 1e-290:
                continue
            widen = max(1, abs(math.log(want)) / 100)
            assert abs(got - want) <= 3e-13 * widen * want, (build.__name__, q, x)

    def test_route_choice(self):
        # the whole product exactly where J + M would not be below K: at q = 0
        # (K = 1) and next to it; at every other base J factors and M terms
        routes = [(0.0, None), (1e-6, None), (0.01, (3, 2)), (0.1, (4, 3)), (0.3, (5, 4)), (0.5, (6, 6))]
        routes += [(-q, jm) for q, jm in routes[1:]] + [(0.7, (8, 8))]
        for q, jm in routes:
            K = _factors_needed(q, 32.0)
            terms, head, _, a = _fcn_rows(0.2, 0.5, q)
            assert terms == f_CN(0.1, 0.2, 0.5, q).terms, q
            if jm is None:
                assert terms == head[0] == K and a is None, q
                assert q == 0 or sum(_split(q, 10**9, 5.0, 0.5)) >= K, q
            else:
                assert (head[0], len(a) - 1) == jm and sum(jm) < K, q
        assert _fcn_rows(0.2, 0.5, 0.0)[0] == 1
        # at high q, J + M well below K
        for q, J, M in ((0.99, 0, 45), (0.9, 11, 16), (-0.9, 11, 16)):
            terms, head, _, a = _fcn_rows(0.2, 0.5, q)
            assert (0 if head is None else head[0], len(a) - 1) == (J, M), q
            assert terms == J + M == f_CN(0.1, 0.2, 0.5, q).terms < _factors_needed(q, 32.0)

    def test_split_near_q_one_is_refused_at_once(self):
        # J and M each run into the millions here; the split must stop
        # counting once J + M passes the term budget, not count them all
        for rho, q in ((1 - 1e-7, 1 - 1e-12), (1 - 1e-8, 1 - 1e-13)):
            start = time.perf_counter()
            with pytest.raises(TruncationError, match="rho-part needs more than 10000 terms"):
                f_CN(0.1, 0.2, rho, q)
            assert time.perf_counter() - start < 0.1, (rho, q)

    def test_cached_entry_holds_no_long_row_at_high_q(self):
        q = 0.99
        entries = [
            _rows(_fcn_rows, 0.2, 0.9, q),
            _rows(_phi_rows, CondDensityParams(0.2, 0.9, 0.1, -0.95, q)),
        ]
        for terms, head, _, a in entries:
            J = 0 if head is None else head[0]
            assert terms == J + len(a) - 1 < 200
            arrays = [] if head is None else [head[1], head[2], *(c for w in head[3] for c in w)]
            assert all(len(row) <= terms for row in arrays if row is not None)

    def test_ratio_off_the_support_takes_the_product(self):
        # the log series need not converge for |x| above the half-width
        y, rho, q = 0.3, 0.9, 0.99
        half = 2 / math.sqrt(1 - q)
        xs = np.array([-1.05 * half, 0.5, half, 3 * half])
        got = cond_ratio_values(xs, y, rho, q)
        # both routes are cached: a second call builds nothing
        misses = _rows.cache_info().misses
        assert np.array_equal(cond_ratio_values(xs, y, rho, q), got)
        assert _rows.cache_info().misses == misses
        whole = _fcn_rows(y, rho, q, product=True)
        assert got[1] == _part_products(0.5, _rows(_fcn_rows, y, rho, q))
        for i in (0, 2, 3):
            assert got[i] == _part_products(xs[i : i + 1], whole)[0]


class TestSupportEdge:
    def test_product_route_stays_finite_inside_the_edge(self):
        # 4 - (1-q) x**2 rounds to 0 or below an ulp or so inside the edge
        q = -0.08512651498873702
        x = float(np.nextafter(2 / math.sqrt(1 - q), 0))
        ev = f_N(x, q)
        assert ev.terms == 14 and 0 <= ev.value < 1e-7
        for q in (0.0, q, -0.3, -0.5, -0.9):
            half = 2 / math.sqrt(1 - q)
            xs = [half]
            for _ in range(50):
                xs.append(float(np.nextafter(xs[-1], 0)))
            xs = np.array(xs[1:] + [-x for x in xs[1:]])
            for values in (f_N_values(xs, q), f_CN_values(xs, 0.3, 0.5, q)):
                assert np.all(np.isfinite(values)) and np.all(values >= 0), q
                assert np.all(values < 1e-6), q
            assert all(0 <= f_CN(float(x), 0.3, 0.5, q).value < 1e-6 for x in xs), q
