"""Askey-Wilson representations, parameter map, q=0 forms, series oracle."""

import decimal
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qaw import (
    AWComplexParams,
    CondDensityParams,
    DomainError,
    PoleError,
    TruncationError,
    asc_P,
    aw_A_free,
    aw_A_mixed,
    aw_A_sym,
    aw_A_sym_seq,
    aw_D,
    aw_D_free,
    aw_phi43_oracle,
    aw_prefactor,
    awpoly,
    map_params,
)
from helpers import leading_coefficient, seeded_bundles

BUNDLE = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.5)


def _phi43_reference(n, x, prm, q):
    """aw_D at x = cos(theta) by the plain terminating 4-phi-3, in mpmath at 1000 digits.

    pref * sum_k (q**-n, abcd q**(n-1), a e^{i theta}, a e^{-i theta}; q)_k
    / (ab, ac, ad, q; q)_k q**k, pref = (ab, ac, ad; q)_n / (a**n (abcd q**(n-1); q)_n),
    rounded once to a float.  The largest cancellation below, log10 of the
    largest term over the sum, is 539 digits (q = 0.99, n = 400), so 1000
    leave over 450 to spare.
    """
    with mp.workdps(1000):
        q = mp.mpf(q)
        a, b, c, d = (mp.mpc(t) for t in (prm.a, prm.b, prm.c, prm.d))
        theta = mp.acos(mp.mpf(x))
        tops = (q**-n, a * b * c * d * q ** (n - 1), a * mp.exp(1j * theta), a * mp.exp(-1j * theta))
        bots = (a * b, a * c, a * d, q)
        term = total = mp.mpc(1)
        for k in range(1, n + 1):
            qi = q ** (k - 1)  # the k-th factor of each (t; q)_k
            term *= mp.fprod(1 - t * qi for t in tops) / mp.fprod(1 - t * qi for t in bots) * q
            total += term
        pref = mp.fprod(mp.qp(t, q, n) for t in bots[:3]) / (a**n * mp.qp(tops[1], q, n))
        return float(mp.re(pref * total))


class TestParamMap:
    def test_rho_zero_gives_zero_pair(self):
        prm = map_params(CondDensityParams(0.4, 0.0, 0.0, 0.3, 0.5))
        assert prm.a == 0 and prm.b == 0

    def test_pinned_imaginary_pair(self):
        prm = map_params(CondDensityParams(0.0, 0.5, 0.3, 0.2, 0.0))
        assert prm.a == pytest.approx(-0.5j)
        assert prm.b == pytest.approx(0.5j)

    def test_modulus_and_product_invariants(self):
        for p in seeded_bundles(10):
            prm = map_params(p)
            assert abs(prm.a) == pytest.approx(abs(p.rho1), rel=1e-12)
            assert abs(prm.c) == pytest.approx(abs(p.rho2), rel=1e-12)
            assert prm.a * prm.b == pytest.approx(p.rho1**2, rel=1e-12)
            assert prm.c * prm.d == pytest.approx(p.rho2**2, rel=1e-12)

    def test_rejects_gaussian_case(self):
        with pytest.raises(DomainError):
            map_params(CondDensityParams(0.4, 0.5, -0.6, 0.7, 1))


class TestParamValidation:
    def test_conjugacy_enforced(self):
        with pytest.raises(DomainError):
            AWComplexParams(0.3 + 0.2j, 0.3 + 0.2j, 0.1j, -0.1j)

    def test_modulus_enforced(self):
        big = 1.1 * complex(math.cos(1.0), -math.sin(1.0))
        with pytest.raises(DomainError):
            AWComplexParams(big, big.conjugate(), 0.1j, -0.1j)

    def test_bundle_rejects_exterior_point(self):
        with pytest.raises(DomainError):
            CondDensityParams(5.0, 0.5, 0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            CondDensityParams(0.1, 0.3, math.nan, 0.4, 0.9)
        with pytest.raises(DomainError):
            CondDensityParams(math.inf, 0.3, 0.2, 0.4, 1.0)

    def test_bundle_rejects_large_rho(self):
        with pytest.raises(DomainError):
            CondDensityParams(0.4, 1.0, 0.0, 0.5, 0.5)

    def test_bundle_rejects_complex_rho_and_base(self):
        # complex values have no order; DomainError, not TypeError
        with pytest.raises(DomainError):
            CondDensityParams(0.1, 0.2j, 0.3, 0.4, 0.5)
        with pytest.raises(DomainError):
            CondDensityParams(0.1, 0.2, 0.3, 0.4, 0.5j)

    def test_bundle_allows_boundary_point(self):
        half = 2 / math.sqrt(1 - 0.5)
        CondDensityParams(half, 0.5, 0.0, 0.5, 0.5)

    def test_swapped_exchanges_roles(self):
        p = BUNDLE.swapped()
        assert (p.y, p.rho1, p.z, p.rho2) == (BUNDLE.z, BUNDLE.rho2, BUNDLE.y, BUNDLE.rho1)

    def test_prefactor_at_zero(self):
        assert aw_prefactor(0, 0.5, 0.7, 0.5) == 1

    def test_prefactor_pole(self):
        # (rho1^2 rho2^2 q**(n-1); q)_n = 0 at rho1 = rho2 = 1
        with pytest.raises(PoleError):
            aw_prefactor(1, 1, 1, 0.5)

    @pytest.mark.parametrize("q", [5, 1, -1])
    def test_D_rejects_base_outside_minus_one_one(self, q):
        prm = map_params(CondDensityParams(0.5, 0.4, -0.3, 0.6, 0.5))
        with pytest.raises(DomainError):
            aw_D(2, 0.1, prm, q)

    @pytest.mark.parametrize("q", [5, -1])
    def test_prefactor_rejects_base_outside_range(self, q):
        with pytest.raises(DomainError):
            aw_prefactor(2, 0.4, 0.6, q)

    def test_prefactor_gaussian_end(self):
        # q = 1 is in range: every factor is 1 - rho^2, and check_vnm reads it there
        want = ((1 - 0.4**2) * (1 - 0.6**2) / (1 - 0.4**2 * 0.6**2)) ** 2
        assert aw_prefactor(2, 0.4, 0.6, 1) == pytest.approx(want, rel=1e-14)


class TestRepresentations:
    def test_degree_zero(self):
        prm = map_params(BUNDLE)
        assert aw_D(0, 0.3, prm, BUNDLE.q) == 1.0
        assert aw_A_sym(0, 0.3, BUNDLE) == 1
        assert aw_A_mixed(0, 0.3, BUNDLE) == 1
        assert aw_phi43_oracle(0, 0.3, prm, BUNDLE.q) == 1.0

    def test_degree_zero_is_one_at_the_origin(self):
        # every order-0 form is the constant 1, x = 0 and arrays holding 0 included
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0)
        prm = map_params(p)
        forms = (
            lambda x: aw_A_free(0, x, p),
            lambda x: aw_A_mixed(0, x, p),
            lambda x: aw_A_sym(0, x, p),
            lambda x: aw_D_free(0, x, prm.a, prm.b, prm.c, prm.d),
            lambda x: aw_D(0, x, prm, p.q),
        )
        for form in forms:
            assert form(0.0) == 1
            values = form(np.array([-1.0, 0.0, 0.5]))
            assert values.shape == (3,) and np.all(values == 1)

    def test_sym_equals_mixed_pinned_grid(self):
        p = CondDensityParams(-0.5, 0.4, 0.7, 0.6, 0.5)
        for n in range(1, 7):
            u = aw_A_sym(n, 0.3, p)
            v = aw_A_mixed(n, 0.3, p)
            assert v == pytest.approx(u, rel=1e-12)

    def test_scaling_bridge_to_D(self):
        for p in seeded_bundles(6):
            prm = map_params(p)
            q = p.q
            for n in range(7):
                for x in (0.3, -0.9):
                    lhs = aw_A_sym(n, x, p)
                    rhs = (1 - q) ** (-n / 2) * aw_D(n, x * math.sqrt(1 - q) / 2, prm, q)
                    assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-10)

    def test_mixed_symmetry_under_swap(self):
        for p in seeded_bundles(6, seed=7):
            for n in range(1, 9):
                u = aw_A_mixed(n, 0.25, p)
                v = aw_A_mixed(n, 0.25, p.swapped())
                assert v == pytest.approx(u, rel=1e-10, abs=1e-10)

    def test_rho1_zero_collapses_to_asc(self):
        p = CondDensityParams(0.4, 0.0, -0.6, 0.7, 0.5)
        for n in range(7):
            for x in (0.3, -1.1):
                assert aw_A_sym(n, x, p) == pytest.approx(asc_P(n, x, -0.6, 0.7, 0.5), rel=1e-12)

    def test_monic_exactly(self):
        p = CondDensityParams(Fraction(2, 5), Fraction(1, 2), Fraction(-3, 5), Fraction(7, 10), Fraction(1, 2))
        for n in range(9):
            assert leading_coefficient(lambda x: aw_A_sym_seq(n, x, p)[n], n) == 1

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_D_near_pole_matches_sym(self, n):
        # (ab; q)_n is tiny but nonzero at rho = 0.95, q = 0.99: a regular point
        p = CondDensityParams(0.5, 0.95, -0.3, 0.95, 0.99)
        x = 0.3
        lhs = aw_A_sym(n, x, p)
        rhs = (1 - p.q) ** (-n / 2) * aw_D(n, x * math.sqrt(1 - p.q) / 2, map_params(p), p.q)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_returns_real_floats(self):
        prm = map_params(BUNDLE)
        value = aw_D(3, 0.4, prm, BUNDLE.q)
        assert isinstance(value, float)

    def test_float_array_gives_float_array(self):
        prm = map_params(BUNDLE)
        xs = np.array([0.3, -0.2])
        got = aw_D(3, xs, prm, BUNDLE.q)
        assert got.dtype == np.float64
        assert got.tolist() == [aw_D(3, float(x), prm, BUNDLE.q) for x in xs]
        assert aw_D(3, xs + 0.1j, prm, BUNDLE.q).dtype == np.complex128

    def test_degree_zero_keeps_the_shape_of_x(self):
        # as aw_A_sym's 1 + 0 * x; a scalar x still gives 1.0
        prm = map_params(BUNDLE)
        xs = np.array([[0.3, -0.2, 0.1]])
        for got in (aw_D(0, xs, prm, BUNDLE.q), aw_D_free(0, xs, prm.a, prm.b, prm.c, prm.d)):
            assert got.shape == xs.shape and got.dtype == np.float64
            assert got.tolist() == [[1.0, 1.0, 1.0]]
        assert aw_D(0, 0.3, prm, BUNDLE.q) == aw_D_free(0, 0.3, prm.a, prm.b, prm.c, prm.d) == 1.0
        assert aw_A_sym(0, xs, BUNDLE).shape == xs.shape


class TestFreeCaseClosedForms:
    def test_D1_display(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0)
        prm = map_params(p)
        a, b, c, d = prm.a, prm.b, prm.c, prm.d
        e1 = a + b + c + d
        e3 = a * b * c + a * b * d + a * c * d + b * c * d
        for x in (0.35, -0.8):
            want = (2 * x - (e1 - e3) / (1 - a * b * c * d)).real
            assert aw_D_free(1, x, a, b, c, d) == pytest.approx(want, rel=1e-14)
            assert aw_D(1, x, prm, 0.0) == pytest.approx(want, rel=1e-12)

    def test_D2_display(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0)
        prm = map_params(p)
        a, b, c, d = prm.a, prm.b, prm.c, prm.d
        e1 = a + b + c + d
        e2 = a * b + a * c + a * d + b * c + b * d + c * d
        for x in (0.35, -0.8):
            want = (4 * x * x - 2 * e1 * x + e2 - 1 - a * b * c * d).real
            assert aw_D_free(2, x, a, b, c, d) == pytest.approx(want, rel=1e-12)
            assert aw_D(2, x, prm, 0.0) == pytest.approx(want, rel=1e-12)

    def test_A1_display(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0)
        r1, r2 = p.rho1, p.rho2
        for x in (0.5, -1.4):
            want = x - (p.y * r1 * (1 - r2**2) + p.z * r2 * (1 - r1**2)) / (1 - r1**2 * r2**2)
            assert aw_A_free(1, x, p) == pytest.approx(want, rel=1e-14)
            assert aw_A_sym(1, x, p) == pytest.approx(want, rel=1e-12)

    def test_complex_x_keeps_complex_value_at_every_degree(self):
        prm = map_params(CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0))
        z = 0.3 + 0.2j
        for n in (1, 2, 3):
            free = aw_D_free(n, z, prm.a, prm.b, prm.c, prm.d)
            assert isinstance(free, complex) and abs(free.imag) > 1e-3
            assert free == pytest.approx(aw_D(n, z, prm, 0.0), rel=1e-12)

    def test_free_forms_match_general_code(self):
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0)
        prm = map_params(p)
        for n in range(7):
            for x in (0.35, -0.8):
                assert aw_D_free(n, x, prm.a, prm.b, prm.c, prm.d) == pytest.approx(
                    aw_D(n, x, prm, 0.0), rel=1e-12, abs=1e-12
                )
            for x in (0.5, -1.4):
                assert aw_A_free(n, x, p) == pytest.approx(aw_A_sym(n, x, p), rel=1e-12, abs=1e-12)


class TestSeriesOracle:
    def test_matches_D_at_cos_pi_third(self):
        x = math.cos(math.pi / 3)
        for p in (BUNDLE, CondDensityParams(0.4, 0.5, -0.6, 0.7, -0.5)):
            prm = map_params(p)
            for n in (1, 2, 5):
                want = aw_D(n, x, prm, p.q)
                got = aw_phi43_oracle(n, x, prm, p.q)
                assert got == pytest.approx(want, rel=1e-10)

    def test_free_case_limit_branch(self):
        # the q = 0 closed form over mpmath: in floats it loses 1.1e-14 of
        # D_10 = 0.056 to cancellation, while the oracle rounds correctly
        p = CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0)
        prm = map_params(p)
        for n in (2, 4, 6, 10, 12):
            with mp.workdps(40):
                exact = aw_D_free(n, mp.mpf(0.35), *(mp.mpc(t) for t in (prm.a, prm.b, prm.c, prm.d)))
                want = float(mp.re(exact))
            assert aw_phi43_oracle(n, 0.35, prm, 0.0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("q, n", [(1e-6, 30), (-1e-10, 30), (0.1, 45)])
    def test_no_precision_cap(self, q, n):
        # each needs more than 400 digits: 30 + C(n,2) log10(1/|q|)
        prm = map_params(CondDensityParams(0.4, 0.5, -0.6, 0.7, q))
        want = aw_D(n, 0.35, prm, q)
        assert aw_phi43_oracle(n, 0.35, prm, q) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize(
        "rho1, q, n",
        [(0.5, 0.99, 40), (0.5, 0.9, 60), (0.5, 0.95, 30), (0.01, 0.6, 40), (0.01, 0.9, 40)],
    )
    def test_measured_cancellation(self, rho1, q, n):
        # the first pass's 30 + C(n,2) log10(1/|q|) digits leave 0, 4 and
        # 11 digits after the cancellation of the first three cases (1.746e-12
        # for 1.2675e-12, an imaginary residue of 1.1e-11, 2e-13 relative
        # error).  At rho1 = 0.01, |a|**-n adds to the loss: 254 and 122
        # digits against 203 and 66, so the first pass keeps no digit and
        # neither does the rerun at its measured loss plus 30.
        prm = map_params(CondDensityParams(0.4, rho1, -0.6, 0.7, q))
        assert aw_phi43_oracle(n, 0.35, prm, q) == _phi43_reference(n, 0.35, prm, q)

    def test_passes_are_held_to_the_table_budget(self):
        # a pass costs about n terms times its digits, and the running total
        # is checked before each pass: q = 0.9, n = 400 asks 3682 digits at once
        prm = map_params(CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.9))
        with pytest.raises(TruncationError, match="order 400 .* need 1472800 entries, above the table budget"):
            aw_phi43_oracle(400, 0.35, prm, 0.9)

    @pytest.mark.parametrize("n, loads", [(300, [67800, 203400]), (400, [151600, 454800])])
    def test_a_pass_that_keeps_no_digit_doubles_the_digits(self, monkeypatch, n, loads):
        # at q = 0.99 the first pass (226 and 379 digits) keeps none of the sum,
        # so the rerun steps by its whole precision: two passes, where adding
        # 30 digits a rerun took six for n = 300 and was refused for n = 400
        seen = []

        def spy(load, what):
            seen.append(load)
            return check(load, what)

        check = awpoly._check_entries
        monkeypatch.setattr(awpoly, "_check_entries", spy)
        prm = map_params(CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.99))
        assert aw_phi43_oracle(n, 0.35, prm, 0.99) == _phi43_reference(n, 0.35, prm, 0.99)
        assert seen == loads

    def test_seeded_sweep_is_correctly_rounded(self):
        rng = random.Random(25)
        for _ in range(60):
            q = rng.choice((-1, 1)) * rng.uniform(0.3, 0.99)
            half = 2 / math.sqrt(1 - q)
            p = CondDensityParams(
                rng.uniform(-0.95, 0.95) * half, rng.uniform(-0.9, 0.9),
                rng.uniform(-0.95, 0.95) * half, rng.uniform(-0.9, 0.9), q,
            )
            n, x = rng.randint(1, 40), rng.uniform(-1, 1)
            prm = map_params(p)
            assert aw_phi43_oracle(n, x, prm, q) == _phi43_reference(n, x, prm, q), (p, n, x)

    @pytest.mark.parametrize("q", [0.5, -0.9, 0.99, 0.0])
    def test_root_by_symmetry_ends_at_the_noise_floor(self, q):
        # y = z = 0 makes a, c imaginary, so D_n is odd and D_n(0) = 0 for
        # odd n: no precision keeps a digit of the sum, and the reruns stop
        # once the rounding noise lies below every float
        prm = map_params(CondDensityParams(0.0, 0.5, 0.0, 0.7, q))
        for n in (1, 3, 7):
            assert aw_phi43_oracle(n, 0.0, prm, q) == 0.0

    def test_caller_decimal_context_does_not_reach_the_result(self):
        cases = [(BUNDLE, n, x) for n in (3, 12) for x in (0.35, -0.8)]
        cases.append((CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.99), 40, 0.35))
        cases.append((CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.0), 6, 0.35))

        def values():
            return [aw_phi43_oracle(n, x, map_params(p), p.q).hex() for p, n, x in cases]

        want = values()
        with decimal.localcontext() as ctx:
            ctx.prec = 6
            ctx.clear_traps()
            got = values()
        assert got == want

    def test_rejects_a_zero(self):
        prm = map_params(CondDensityParams(0.4, 0.0, -0.6, 0.7, 0.5))
        with pytest.raises(DomainError):
            aw_phi43_oracle(2, 0.3, prm, 0.5)

    def test_rejects_exterior_x(self):
        prm = map_params(BUNDLE)
        with pytest.raises(DomainError):
            aw_phi43_oracle(2, 1.5, prm, 0.5)

    def test_rejects_non_finite_or_complex_arguments(self):
        # a nan x once passed the range test and was clamped to x = -1
        prm = map_params(CondDensityParams(0.3, 0.5, -0.2, 0.4, 0.5))
        for x in (math.nan, math.inf, -math.inf, 0.3 + 0.1j):
            with pytest.raises(DomainError):
                aw_phi43_oracle(2, x, prm, 0.5)
        for q in (0.5j, 0.5 + 0j, math.nan, 1):
            with pytest.raises(DomainError):
                aw_phi43_oracle(2, 0.3, prm, q)

    def test_clamps_roundoff_boundary(self):
        prm = map_params(BUNDLE)
        value = aw_phi43_oracle(2, 1 + 1e-14, prm, 0.5)
        assert value == pytest.approx(aw_phi43_oracle(2, 1.0, prm, 0.5), rel=1e-12)
