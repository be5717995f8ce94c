"""Package-level acceptance gate.

Nine guarantees, one test each, every test printing a single scorecard line
(run with ``pytest -rP tests/test_acceptance.py`` to see the lines for
passing tests too).  Exact identities run in rational arithmetic with zero
tolerance; numeric ones pin the tolerance each is advertised at.
"""

import io
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from qaw import (
    CondDensityParams,
    asc_P,
    aw_A_free,
    aw_A_mixed,
    aw_A_sym,
    aw_D,
    aw_D_free,
    aw_phi43_oracle,
    b_big,
    b_big_seq,
    c_n_gaussian,
    c_n_main,
    c_n_via_P,
    hermite_H,
    hermite_H_seq,
    integrate_on_S,
    map_params,
    q_binomial,
    q_factorial,
    q_pochhammer,
    run_suite,
    s_n,
    SuiteConfig,
    support_half_width,
)
from qaw.cli import main as cli_main
from qaw.densities import (
    f_CN_q0,
    f_CN_values,
    f_N_q0,
    f_N_values,
    phi_cond_values,
    phi_q0,
)
from qaw.moments import alsalam_identity_residual
from qaw.polyfam import (
    bh_expand_B,
    connection_H_from_P,
    connection_P_from_BH,
    i_nm_closed,
    I_nm,
    product_HB,
)
from qaw.verify import (
    check_aw_orthogonality,
    check_chapman_kolmogorov,
    check_density_expansion,
    check_orthogonality_H,
    check_orthogonality_P,
    check_poisson_mehler,
    check_ratio_bounds,
    check_sn_series,
)

from helpers import seeded_bundles

Q_GRID = (-0.5, 0.0, 0.3, 0.7)


@contextmanager
def scorecard(label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"{'PASS' if ok else 'FAIL'} {label}")


def test_exact_rational_identities():
    a, b = Fraction(2, 5), Fraction(-1, 3)
    x, y, rho = Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2)
    p = CondDensityParams(
        Fraction(2, 5), Fraction(-3, 5), Fraction(1, 2), Fraction(7, 10), Fraction(1, 2)
    )
    with scorecard("exact identity suite in rational arithmetic"):
        for q in (Fraction(1, 2), Fraction(-2, 5)):
            for n in range(13):
                lhs = sum(
                    q_binomial(n, i, q) * a**i * q_pochhammer(a, q, n - i)
                    for i in range(n + 1)
                )
                assert lhs == 1
                lhs = sum(
                    (-1) ** i
                    * q ** math.comb(i, 2)
                    * q_binomial(n, i, q)
                    * q_pochhammer(a, q, i)
                    * b**i
                    * q_pochhammer(a * b * q**i, q, n - i)
                    for i in range(n + 1)
                )
                assert lhs == q_pochhammer(b, q, n)
                lhs = sum(
                    (-1) ** k * q_binomial(n, k, q) * q ** math.comb(k, 2) * a**k
                    for k in range(n + 1)
                )
                assert lhs == q_pochhammer(a, q, n)
            for n in range(11):
                assert connection_P_from_BH(n, x, y, rho, q) == asc_P(n, x, y, rho, q)
                assert connection_H_from_P(n, x, y, rho, q) == hermite_H(n, x, q)
                if n >= 1:
                    B = b_big_seq(n, x, q)
                    H = hermite_H_seq(n, x, q)
                    assert sum(
                        q_binomial(n, j, q) * B[n - j] * H[j] for j in range(n + 1)
                    ) == 0
            for n in range(9):
                coeffs = bh_expand_B(n, q)
                H = hermite_H_seq(n, x, q)
                assert b_big(n, x, q) == sum(
                    c * H[n - 2 * k] for k, c in enumerate(coeffs)
                )
                for m in range(9):
                    assert I_nm(n, m, x, q) == i_nm_closed(n, m, x, q)
                    if n >= 1:
                        rec = -sum(
                            q_binomial(m, k, q)
                            * q_binomial(n, k, q)
                            * q_factorial(k, q)
                            * I_nm(n - k, m - k, x, q)
                            for k in range(1, min(n, m) + 1)
                        )
                        assert I_nm(n, m, x, q) == rec
                    coeffs = product_HB(m, n, q)
                    H = hermite_H_seq(n + m, x, q)
                    assert hermite_H(m, x, q) * b_big(n, x, q) == sum(
                        c * H[n + m - 2 * i] for i, c in enumerate(coeffs)
                    )
            for m in range(9):
                assert alsalam_identity_residual(m, x, y, rho, q) == 0
        for n in range(9):
            assert aw_A_mixed(n, x, p) == aw_A_mixed(n, x, p.swapped())
        for n in range(11):
            assert c_n_main(n, p) == c_n_via_P(n, p)


def test_representation_cross_check():
    with scorecard("four-way Askey-Wilson representation agreement"):
        rng = random.Random(11)
        for p in seeded_bundles(20):
            q = p.q
            half = support_half_width(q)
            x = rng.uniform(-0.9, 0.9) * half
            xa = x * math.sqrt(1 - q) / 2
            params = map_params(p)
            for n in range(7):
                sym = aw_A_sym(n, x, p)
                mixed = aw_A_mixed(n, x, p)
                rescale = (1 - q) ** (-n / 2)
                rescaled = aw_D(n, xa, params, q) * rescale
                oracle = aw_phi43_oracle(n, xa, params, q) * rescale
                scale = max(1.0, abs(sym))
                assert abs(sym - mixed) <= 1e-10 * scale
                assert abs(sym - rescaled) <= 1e-10 * scale
                assert abs(sym - oracle) <= 1e-10 * scale
        for y, r1, z, r2 in ((0.4, 0.5, -0.6, 0.7), (-1.1, -0.35, 0.8, 0.6)):
            p0 = CondDensityParams(y, r1, z, r2, 0)
            params = map_params(p0)
            abcd = (params.a, params.b, params.c, params.d)
            for x in (-1.4, 0.2, 1.7):
                xa = x / 2
                a, b, c, d = abcd
                d1 = 2 * xa - (
                    a + b + c + d - a * b * c - b * c * d - a * c * d - a * b * d
                ) / (1 - a * b * c * d)
                d2 = (
                    4 * xa**2
                    - 2 * (a + b + c + d) * xa
                    + a * b + a * c + a * d + b * c + b * d + c * d
                    - 1
                    - a * b * c * d
                )
                assert abs(aw_D(1, xa, params, 0) - d1) <= 1e-12
                assert abs(aw_D(2, xa, params, 0) - d2) <= 1e-12
                a1 = x - (y * r1 * (1 - r2**2) + z * r2 * (1 - r1**2)) / (
                    1 - r1**2 * r2**2
                )
                assert abs(aw_A_sym(1, x, p0) - a1) <= 1e-12
                for n in range(7):
                    free = aw_D_free(n, xa, *abcd)
                    assert abs(aw_D(n, xa, params, 0) - free) <= 1e-12 * max(1, abs(free))
                    free = aw_A_free(n, x, p0)
                    assert abs(aw_A_sym(n, x, p0) - free) <= 1e-12 * max(1, abs(free))


def test_orthogonality_by_quadrature():
    with scorecard("orthogonality relations under quadrature"):
        for q in Q_GRID:
            assert all(r.passed for r in check_orthogonality_H(8, q, 1e-8))
            assert all(r.passed for r in check_orthogonality_P(8, 0.5, 0.6, q, 1e-8))
            p = CondDensityParams(0.5, 0.3, -0.5, 0.6, q)
            assert all(r.passed for r in check_aw_orthogonality(6, p, 1e-7))


def test_moment_formula_headline():
    with scorecard("closed-form conditional moments match quadrature"):
        reports = run_suite(SuiteConfig(checks=("moments",)))
        assert reports
        assert all(r.tolerance == 1e-7 for r in reports)
        assert all(r.passed for r in reports)


def test_degenerate_collapses():
    with scorecard("uncorrelated, free, and Gaussian collapses"):
        p = CondDensityParams(
            Fraction(1, 3), 0, Fraction(-2, 5), Fraction(1, 2), Fraction(3, 10)
        )
        for n in range(9):
            want = Fraction(1, 2) ** n * hermite_H(n, Fraction(-2, 5), Fraction(3, 10))
            assert c_n_main(n, p) == want

        xs = np.linspace(-1.95, 1.95, 41)
        assert np.max(np.abs(f_N_values(xs, 0) - [f_N_q0(x) for x in xs])) <= 1e-12
        got = f_CN_values(xs, 0.4, 0.5, 0)
        want = [f_CN_q0(x, 0.4, 0.5) for x in xs]
        assert np.max(np.abs(got - want)) <= 1e-12
        p0 = CondDensityParams(0.4, 0.5, -0.6, 0.3, 0)
        got = phi_cond_values(xs, p0)
        want = [phi_q0(x, p0) for x in xs]
        assert np.max(np.abs(got - want)) <= 1e-12

        p1 = CondDensityParams(0.4, 0.5, -0.6, 0.3, 1)

        def integrand(x):
            H = hermite_H_seq(6, x, 1)
            phi = phi_cond_values(x, p1)
            return np.stack([H[n] * phi for n in range(7)])

        est = integrate_on_S(integrand, 1, 1e-10)
        for n in range(7):
            want = c_n_gaussian(n, 0.4, -0.6, 0.5, 0.3)
            assert abs(est.value[n] - want) <= 1e-8


def test_expansion_convergence():
    with scorecard("kernel and density expansions converge within budget"):
        for q in (0.0, 0.5):
            for rho in (0.3, 0.6):
                for y in (0.5, 1.2 / math.sqrt(1 - q)):
                    assert check_poisson_mehler(y, rho, q, 1e-8).passed
            for rho1, rho2 in ((0.3, 0.6), (0.6, 0.6)):
                for y, z in ((0.0, 0.0), (0.5, -0.5)):
                    p = CondDensityParams(y, rho1, z, rho2, q)
                    assert check_density_expansion(p, 1e-6).passed


def test_markov_and_series_residuals():
    with scorecard("Chapman-Kolmogorov, series, and ratio-bound residuals"):
        points = [(x, z) for x in (-1.5, -0.75, 0.0, 0.75, 1.5) for z in (0.4, -0.8)]
        assert len(points) == 10
        for x, z in points:
            assert check_chapman_kolmogorov(x, z, 0.5, 0.6, 0.3, 1e-7).passed
        for q in Q_GRID:
            for t in (0.3, -0.4):
                assert check_sn_series(t, q, 1e-10).passed
            for rho in (0.3, 0.6):
                assert check_ratio_bounds(0.5, rho, q, 1e-12).passed


def test_polynomial_and_moment_bounds():
    with scorecard("growth bounds on polynomials and moments"):
        slack = 1 + 1e-12
        for q in Q_GRID:
            half = support_half_width(q)
            xs = np.linspace(-half, half, 201)
            H = hermite_H_seq(8, xs, q)
            for n in range(9):
                bound = float(s_n(n, q)) * (1 - q) ** (-n / 2)
                assert np.max(np.abs(H[n])) <= bound * slack
                for rho1, rho2 in ((0.3, 0.6), (0.6, 0.6)):
                    for y in np.linspace(-0.9 * half, 0.9 * half, 5):
                        for z in np.linspace(-0.9 * half, 0.9 * half, 5):
                            p = CondDensityParams(float(y), rho1, float(z), rho2, q)
                            assert abs(c_n_main(n, p)) <= bound * slack


def test_cli_full_suite_determinism():
    with scorecard("verification suite passes deterministically from the CLI"):
        start = time.monotonic()
        first = io.StringIO()
        code_first = cli_main(["verify", "--all"], out=first)
        elapsed = time.monotonic() - start
        second = io.StringIO()
        code_second = cli_main(["verify", "--all"], out=second)
        assert code_first == 0 and code_second == 0
        assert first.getvalue() == second.getvalue()
        assert elapsed < 300
