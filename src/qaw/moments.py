"""Conditional q-Hermite moments and the density expansion built from them.

For the Markov triple (Y, X, Z) whose law is assembled from the densities in
``densities`` (Y stationary, X given Y at correlation rho1, Z given X at
correlation rho2), the conditional moment

    c_n(y, z) = E[ H_n(X | q) | Y = y, Z = z ]

is a polynomial of total degree n in (y, z).  Three routes to it live here:

* ``c_n_main``      a double sum over q-Hermite products in y and z,
                    factored as

                        c_n = [n]_q! / (r1 r2; q)_n
                              * sum_k sigma_k sum_j a_{k,j} b_{k,n-2k-j},
                        sigma_k = (-1)**k q**C(k,2) (rho1 rho2)**(2k) / [k]_q!,
                        a_{k,j} = (r1; q)_{k+j} rho2**j H_j(z) / [j]_q!,
                        b_{k,i} = (r2; q)_{k+i} rho1**i H_i(y) / [i]_q!,

                    with r1 = rho1**2, r2 = rho2**2,
* ``c_n_via_P``     a single sum mixing q-Hermite and Al-Salam-Chihara
                    polynomials; shares no sub-expressions with c_n_main
                    beyond the ``qcore`` primitives, so agreement of the two
                    is a meaningful check,
* ``c_n_gaussian``  the q = 1 closed form via ordinary Hermite polynomials.

``c_n_seq(N, p)`` returns (c_0, ..., c_N) from one set of tables for the
double sum, built once per call: six O(N) prefix lists (H(y), H(z),
[.]_q!, (r1; q), (r2; q) and (r1 r2; q)) and, per k, the rows a_k and b_k,
so each inner term is one multiply.  ``c_n_main(n, p)`` reads the same
tables built for order n alone and evaluates only that order, so the two
agree bit for bit.  The one moment cache sits on ``c_n_seq``: it
is keyed by N, the bundle and the types of the bundle's five fields (a
float bundle and its Fraction twin compare and hash equal), and it keeps
only the returned tuple.  ``phi_expansion_partial`` and the suite's moment
check read ``c_n_seq``.

``alpha_coeff`` gives the coefficient of H_j(y) H_m(z) in c_n, and
``phi_expansion_partial`` sums the resulting expansion of the two-sided
conditional density phi_cond against H_i(x).  All the polynomial routines
run over a generic scalar field, so Fraction inputs give exact rationals.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qcore import (
    DomainError,
    TruncationError,
    _check_below_one,
    _check_entries,
    _check_factorial,
    _check_finite,
    _check_order,
    _check_pole,
    _check_real,
    _check_rho,
    _factorial_seq,
    _finite,
    _sn_series,
    q_binomial,
    q_binomial_row,
    q_bracket_seq,
    q_factorial,
    q_pochhammer,
    q_pochhammer_seq,
)
from .polyfam import asc_P_seq, hermite_H, hermite_H_seq
from .awpoly import CondDensityParams
from .densities import f_N, f_N_values

__all__ = [
    "c_n_main",
    "c_n_seq",
    "c_n_via_P",
    "c_n_gaussian",
    "gamma_mk_partial",
    "gamma_ratio_closed",
    "alsalam_identity_residual",
    "alpha_coeff",
    "phi_expansion_partial",
    "expansion_terms_needed",
]


_GENERAL_Q = "the general-q moment formulas (c_n_gaussian covers q = 1)"


def c_n_main(n, p: CondDensityParams):
    """Conditional moment via the double-sum form, factored.

        c_n = [n]_q! / (r1 r2; q)_n * sum_k sigma_k sum_j a_{k,j} b_{k,n-2k-j}

        sigma_k = (-1)**k q**C(k,2) (rho1 rho2)**(2k) / [k]_q!
        a_{k,j} = (r1; q)_{k+j} rho2**j H_j(z) / [j]_q!
        b_{k,i} = (r2; q)_{k+i} rho1**i H_i(y) / [i]_q!

    with r1 = rho1**2, r2 = rho2**2.  The unfactored (k, j) term carries
    [n,2k] [2k,k] [k]! [n-2k,j] (r1; q)_k (r2; q)_k (r1 q^k; q)_j
    (r2 q^k; q)_{n-2k-j}; the identities [n,2k] [2k,k] [k]! [n-2k,j] =
    [n]!/([k]! [j]! [n-2k-j]!) and (r; q)_k (r q^k; q)_j = (r; q)_{k+j}
    regroup it into the three factors above.  Exact over Fraction inputs.
    Only order n is evaluated, from the six prefix tables H(y), H(z),
    [.]_q!, (r1; q), (r2; q) and (r1 r2; q) built for n alone; c_n_seq
    gives every order up to N in one pass, with the same bits.
    """
    _check_order(n)
    _check_below_one(p.q, _GENERAL_Q)
    return _c_n_orders(n, p.y, p.rho1, p.z, p.rho2, p.q)(n)


def c_n_seq(N, p: CondDensityParams):
    """The tuple (c_0, ..., c_N) of c_n_main values, from tables built once.

    Cached on N, the bundle and the types of its five fields, so a float
    bundle and its equal Fraction twin never share an entry.  Only the
    returned tuple is kept.
    """
    _check_order(N)
    _check_below_one(p.q, _GENERAL_Q)
    return _c_n_seq(N, p.y, p.rho1, p.z, p.rho2, p.q)


@lru_cache(maxsize=256, typed=True)
def _c_n_seq(N, y, rho1, z, rho2, q):
    c_n = _c_n_orders(N, y, rho1, z, rho2, q)
    return tuple(c_n(n) for n in range(N + 1))


def _c_n_orders(N, y, rho1, z, rho2, q):
    """The map n -> c_n for n <= N, over the tables of the factored double sum.

    Six prefix lists: H(y), H(z), [.]_q!, (r1; q), (r2; q) and (r1 r2; q);
    then the weights rho2**j H_j(z) / [j]_q! and rho1**i H_i(y) / [i]_q!, and
    per k the rows a_k and b_k, one multiply an entry.  No entry depends on
    the length it was built for, so order n reads the same bits as tables
    built for n alone.  The sums run left to right in explicit loops.  The
    rows hold about N**2/2 entries, so N <= 1412 (the table budget).  A
    float [N]_q! out of the normal floats (overflow from N = 315 at q = 0.9,
    underflow from N = 1101 at q = -0.9) or c_n out of range raises
    TruncationError, the first before any table is built.
    """
    _check_entries((N + 1) * (N + 2) // 2, f"the c_n tables of order {N}")
    fact = _factorial_seq(N, q)
    _check_factorial(fact[N], N, q)
    Hy = hermite_H_seq(N, y, q)
    Hz = hermite_H_seq(N, z, q)
    r1, r2 = rho1 * rho1, rho2 * rho2
    poch_r1 = q_pochhammer_seq(r1, q, N)
    poch_r2 = q_pochhammer_seq(r2, q, N)
    poch_R = q_pochhammer_seq(r1 * r2, q, N)
    wz, wy = [], []
    pow1 = pow2 = 1
    for i in range(N + 1):
        wz.append(pow2 * Hz[i] / fact[i])
        wy.append(pow1 * Hy[i] / fact[i])
        pow1, pow2 = pow1 * rho1, pow2 * rho2
    ks = range(N // 2 + 1)
    sigma = [(-1) ** k * q ** math.comb(k, 2) * (r1 * r2) ** k / fact[k] for k in ks]
    a = [[poch_r1[k + j] * wz[j] for j in range(N - 2 * k + 1)] for k in ks]
    b = [[poch_r2[k + i] * wy[i] for i in range(N - 2 * k + 1)] for k in ks]

    def c_n(n):
        den = _check_pole(poch_R[n], "(rho1^2 rho2^2; q)_n")
        total = 0
        for k in range(n // 2 + 1):
            m = n - 2 * k
            inner = 0
            for left, right in zip(a[k], b[k][m::-1]):
                inner = inner + left * right
            total = total + sigma[k] * inner
        value = fact[n] * total / den
        if not _finite(value):
            raise TruncationError(f"c_{n} left the float range (got {value!r})")
        return value

    return c_n


def c_n_via_P(n, p: CondDensityParams):
    """Conditional moment via the single-sum Al-Salam-Chihara form.

        c_n = sum_s [n,s]_q rho1**(n-s) rho2**s (rho1^2; q)_s
              H_{n-s}(y) P_s(z | y, rho1 rho2, q) / (rho1^2 rho2^2; q)_s

    Equal to c_n_main; kept structurally independent as a cross-check.
    """
    _check_order(n)
    q = p.q
    _check_below_one(q, _GENERAL_Q)
    r1, r2 = p.rho1, p.rho2
    r1sq = r1 * r1
    R = r1sq * r2 * r2
    Hy = hermite_H_seq(n, p.y, q)
    Pz = asc_P_seq(n, p.z, p.y, r1 * r2, q)
    poch_r1 = q_pochhammer_seq(r1sq, q, n)
    poch_R = q_pochhammer_seq(R, q, n)
    _check_pole(poch_R[-1], "(rho1^2 rho2^2; q)_n")
    row = q_binomial_row(n, q)
    total = 0
    for s in range(n + 1):
        total = total + (
            row[s] * r1 ** (n - s) * r2**s * poch_r1[s] * Hy[n - s] * Pz[s]
            / poch_R[s]
        )
    return total


def c_n_gaussian(n, y, z, rho1, rho2):
    """Conditional moment at q = 1, through ordinary probabilistic Hermites.

    c_n = t**n H_n(u | 1) with t**2 = (rho1^2 + rho2^2 - 2 rho1^2 rho2^2) /
    (1 - rho1^2 rho2^2) and u the conditional mean divided by t.  When both
    correlations vanish the limit value is returned: 1 for n = 0, else 0.
    """
    _check_order(n)
    _check_rho(rho1, rho2)
    _check_real(y, z)
    if rho1 == 0 and rho2 == 0:
        return 1.0 if n == 0 else 0.0
    r1sq, r2sq = rho1 * rho1, rho2 * rho2
    den = 1 - r1sq * r2sq
    tsq = (r1sq + r2sq - 2 * r1sq * r2sq) / den
    mean = (y * rho1 * (1 - r2sq) + z * rho2 * (1 - r1sq)) / den
    t = math.sqrt(tsq)
    return t**n * hermite_H(n, mean / t, 1)


def gamma_mk_partial(m, k, x, y, rho, q, N):
    """N-term partial sum of the shifted q-Hermite kernel.

        gamma_{m,k}(x, y) = sum_{i >= 0} rho**i / [i]_q! * H_{i+m}(x) H_{i+k}(y)

    The unshifted case m = k = 0 is the Poisson-Mehler kernel, which resums
    to f_CN / f_N.
    """
    _check_order(m)
    _check_order(k)
    if N < 1:
        raise DomainError("the partial sum needs at least one term")
    _check_finite(rho)
    top = N - 1
    Hx = hermite_H_seq(top + m, x, q)
    Hy = hermite_H_seq(top + k, y, q)
    brackets = q_bracket_seq(top, q)
    total = 0
    weight = 1
    for i in range(N):
        if i > 0:
            weight = weight * rho / brackets[i]
        total = total + weight * Hx[i + m] * Hy[i + k]
    return total


def gamma_ratio_closed(m, k, x, y, rho, q):
    """Closed form of gamma_{m,k} / gamma_{0,0}.

        sum_{s=0}^{k} (-1)**s q**C(s,2) [k,s]_q rho**s H_{k-s}(y)
                      P_{m+s}(x | y, rho, q) / (rho^2; q)_{m+s}
    """
    _check_order(m)
    _check_order(k)
    Hy = hermite_H_seq(k, y, q)
    Px = asc_P_seq(m + k, x, y, rho, q)
    poch = q_pochhammer_seq(rho * rho, q, m + k)
    _check_pole(poch[-1], "(rho^2; q)_{m+k}")
    row = q_binomial_row(k, q)
    total = 0
    for s in range(k + 1):
        total = total + (
            (-1) ** s
            * q ** math.comb(s, 2)
            * row[s]
            * rho**s
            * Hy[k - s]
            * Px[m + s]
            / poch[m + s]
        )
    return total


def alsalam_identity_residual(m, x, y, rho, q):
    """Left minus right side of the Al-Salam-Chihara reflection identity.

        P_m(y | x, rho, q) / (rho^2; q)_m
          - sum_{s=0}^{m} (-1)**s [m,s]_q q**C(s,2) rho**s H_{m-s}(y)
                          P_s(x | y, rho, q) / (rho^2; q)_s

    Identically zero; returned as a residual so tests can assert exactness.
    The sum is gamma_ratio_closed(0, m, x, y, rho, q); the left side is not.
    """
    poch = _check_pole(q_pochhammer(rho * rho, q, m), "(rho^2; q)_m")
    lhs = asc_P_seq(m, y, x, rho, q)[m] / poch
    return lhs - gamma_ratio_closed(0, m, x, y, rho, q)


def alpha_coeff(n, j, m, rho1, rho2, q):
    """Coefficient of H_j(y) H_m(z) in the conditional moment c_n.

    Zero when j + m > n or n - j - m is odd; otherwise, with
    k = (n - j - m)/2,

        (-1)**k q**C(k,2) [n,2k]_q [2k,k]_q [k]_q! [j+m,m]_q
        rho1**(n-m) rho2**(n-j) (rho1^2; q)_{k+m} (rho2^2; q)_{k+j}
        / (rho1^2 rho2^2; q)_n

    so that sum_{j,m} alpha_coeff(n, j, m) H_j(y) H_m(z) = c_n(y, z).
    """
    _check_order(n)
    _check_order(j)
    _check_order(m)
    if j + m > n or (n - j - m) % 2 == 1:
        return 0
    k = (n - j - m) // 2
    r1sq, r2sq = rho1 * rho1, rho2 * rho2
    den = _check_pole(q_pochhammer(r1sq * r2sq, q, n), "(rho1^2 rho2^2; q)_n")
    return (
        (-1) ** k
        * q ** math.comb(k, 2)
        * q_binomial(n, 2 * k, q)
        * q_binomial(2 * k, k, q)
        * q_factorial(k, q)
        * q_binomial(j + m, m, q)
        * rho1 ** (n - m)
        * rho2 ** (n - j)
        * q_pochhammer(r1sq, q, k + m)
        * q_pochhammer(r2sq, q, k + j)
        / den
    )


def phi_expansion_partial(x, p: CondDensityParams, N):
    """N-term partial sum of the q-Hermite expansion of phi_cond.

        phi(x | y, z) = f_N(x) sum_{i >= 0} H_i(x) c_i(y, z) / [i]_q!

    x may be a scalar (float result, through the single-point f_N) or a
    numpy array of points (array result, through f_N_values).  Where f_N is
    0, off the open support, the result is 0.0 and H_i(x), which can
    overflow there, is not evaluated.  Converges to phi_cond(x, p) as N
    grows; the rate is geometric in max(|rho1|, |rho2|).  N - 1 above
    c_n_seq's term budget (10 000) or its table budget (1412), or a
    [i]_q!, c_i or H_i(x) beyond the floats raises TruncationError.
    """
    q = p.q
    _check_below_one(q, _GENERAL_Q)
    if N < 1:
        raise DomainError("the partial sum needs at least one term")
    c = c_n_seq(N - 1, p)  # its guards run first, and check [N - 1]_q! for the fact below
    fact = _factorial_seq(N - 1, q)
    scalar = np.ndim(x) == 0
    if scalar:
        density = f_N(x, q).value
        if density == 0:
            return 0.0
    else:
        out = f_N_values(x, q)
        inside = out != 0
        density, x = out[inside], np.asarray(x, dtype=float)[inside]
    Hx = hermite_H_seq(N - 1, x, q)
    total = 0
    for i in range(N):
        total = total + Hx[i] * c[i] / fact[i]
    if scalar:
        return density * total
    out[inside] = density * total
    return out


def expansion_terms_needed(p: CondDensityParams, rel_tol=1e-8):
    """A priori series length for phi_expansion_partial.

    Uses the bounds |H_i| <= s_i(q) (1-q)**(-i/2) on the support and
    |c_i| <= s_i(q) (1-q)**(-i/2) t**i, t = max(|rho1|, |rho2|): term i is
    at most s_i(q)**2 t**i / (q; q)_i, term i of the second sn_series sum.
    Returns the first i where that is below rel_tol, which lies in (0, 1);
    a bound that needs more terms than the series' term budget raises
    TruncationError.
    """
    _check_real(rel_tol)
    if not 0 < rel_tol < 1:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    _check_below_one(p.q, _GENERAL_Q)
    t = float(max(abs(p.rho1), abs(p.rho2)))
    for i, (s, weight) in enumerate(_sn_series(t, float(p.q))):
        if s * s * weight < rel_tol:  # never at i = 0, where the bound is 1
            return i
