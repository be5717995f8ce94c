"""Orthogonal polynomial families defined by three-term recurrences.

Two scalings of each family live side by side.  The "continuous" scaling
(lowercase names: ``hermite_h``, ``asc_Q``, ``b_small``) keeps the variable
in [-1, 1]-type intervals and is the classical convention; the
"probabilistic" scaling (uppercase: ``hermite_H``, ``asc_P``, ``b_big``)
absorbs a factor sqrt(1-q)/2 into the variable so the q -> 1 limit lands on
the monic Hermite polynomials without renormalizing.  The bridge between the
two scalings is exercised by the test suite.

All seven families run one forward loop, ``_forward``, on the recurrence
p_{k+1} = (alpha[k] x + beta[k]) p_k - gamma[k] p_{k-1} from p_{-1} = 0,
p_0 = 1.  Each family checks its degree against the term budget before
any list is built (``qcore._check_order``), and its base, parameters and
x finite in one call, then builds its three coefficient lists once;
gamma[0] multiplies p_{-1} and is never read, so gamma lists start at
k = 1 behind a placeholder.  A float iterate may overflow to +-inf, which
is kept as a value; a nan raises TruncationError.  Closed forms are used
only as cross-checks.  Like the rest of the package, everything is generic over
the scalar field, so Fraction inputs give exact values.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import (
    DomainError,
    TruncationError,
    _bracket_seq,
    _check_factorial,
    _check_finite,
    _check_order,
    _check_pole,
    _factorial_seq,
    _finite,
    q_binomial_row,
)

__all__ = [
    "hermite_h", "hermite_h_seq",
    "hermite_H", "hermite_H_seq",
    "asc_Q", "asc_Q_seq",
    "asc_P", "asc_P_seq",
    "b_big", "b_big_seq",
    "b_small", "b_small_seq",
    "chebyshev_U", "chebyshev_U_seq",
    "linearize_HH",
    "bh_expand_B",
    "product_HB",
    "I_nm", "i_nm_closed",
    "connection_P_from_BH",
    "connection_H_from_P",
]

def _forward(n, x, alpha, beta, gamma):
    """[p_0(x), ..., p_n(x)] for p_{k+1} = (alpha[k] x + beta[k]) p_k - gamma[k] p_{k-1}.

    p_{-1} = 0 and p_0 = 1, so gamma[0] is never read; that keeps a
    q**(k-1) factor from being formed at q = 0.  x is a scalar or an array,
    checked finite by the family together with its parameters.  A nan
    propagates to every later entry, so the last one alone is tested:
    TruncationError names the first degree that was not finite.
    """
    out = [1 + 0 * x]
    for k in range(n):
        nxt = (alpha[k] * x + beta[k]) * out[k]
        out.append(nxt - gamma[k] * out[k - 1] if k else nxt)
    last = out[-1]
    if np.count_nonzero(last != last) if isinstance(last, np.ndarray) else last != last:
        first = next(k for k, value in enumerate(out) if not _finite(value))
        raise TruncationError(f"the degree-{n} recurrence left the float range at degree {first}")
    return out


def hermite_h_seq(n, x, q):
    """Continuous q-Hermite values [h_0(x), ..., h_n(x)].

    h_{k+1} = 2 x h_k - (1 - q**k) h_{k-1}.  The base is not range checked,
    so the recurrence can be run formally (for instance at base 1/q, which
    the b_small inversion identity needs).
    """
    _check_order(n)
    _check_finite(q, x)
    return _forward(n, x, [2] * n, [0] * n, [None] + [1 - q**k for k in range(1, n)])


def hermite_h(n, x, q):
    """Continuous q-Hermite polynomial h_n(x | q)."""
    return hermite_h_seq(n, x, q)[-1]


def hermite_H_seq(n, x, q):
    """Rescaled q-Hermite values; H_{k+1} = x H_k - [k]_q H_{k-1}.

    At q = 1 the bracket is k and these are the monic (probabilistic)
    Hermite polynomials.
    """
    _check_order(n)
    _check_finite(q, x)
    return _forward(n, x, [1] * n, [0] * n, _bracket_seq(n, q))


def hermite_H(n, x, q):
    """Rescaled q-Hermite polynomial H_n(x | q), monic."""
    return hermite_H_seq(n, x, q)[-1]


def asc_Q_seq(n, x, a, b, q):
    """Al-Salam-Chihara values in the continuous scaling.

    Q_{k+1} = (2x - (a+b) q**k) Q_k - (1 - a b q**(k-1))(1 - q**k) Q_{k-1}.
    Complex parameter pairs are evaluated in complex arithmetic; see asc_Q
    for the conjugate-pair collapse to real values.
    """
    _check_order(n)
    _check_finite(a, b, q, x)
    beta = [-(a + b) * q**k for k in range(n)]
    gamma = [None] + [(1 - a * b * q ** (k - 1)) * (1 - q**k) for k in range(1, n)]
    return _forward(n, x, [2] * n, beta, gamma)


def asc_Q(n, x, a, b, q):
    """Al-Salam-Chihara polynomial Q_n(x | a, b, q).

    For b = conj(a) and real x the value is real (a float array for a
    float array x); the imaginary roundoff residue is checked against
    1e-12 * (1 + |value|) and truncated.
    """
    val = asc_Q_seq(n, x, a, b, q)[-1]
    if _is_complex(val) and not _is_complex(x) and _is_conjugate_pair(a, b):
        return real_part(val)
    return val


def asc_P_seq(n, x, y, rho, q):
    """Al-Salam-Chihara values in the probabilistic scaling.

    P_{k+1} = (x - rho y q**k) P_k - (1 - rho**2 q**(k-1)) [k]_q P_{k-1}.
    At q = 1 this family is (1-rho^2)^{n/2} H_n((x - rho y)/sqrt(1-rho^2)),
    the conditional-normal Hermite polynomials.
    """
    _check_order(n)
    _check_finite(q, y, rho, x)
    brackets = _bracket_seq(n, q)
    beta = [-rho * y * q**k for k in range(n)]
    gamma = [None] + [(1 - rho * rho * q ** (k - 1)) * brackets[k] for k in range(1, n)]
    return _forward(n, x, [1] * n, beta, gamma)


def asc_P(n, x, y, rho, q):
    """Rescaled Al-Salam-Chihara polynomial P_n(x | y, rho, q), monic."""
    return asc_P_seq(n, x, y, rho, q)[-1]


def b_big_seq(n, y, q):
    """Values of the auxiliary family B_n in the probabilistic scaling.

    B_{k+1} = -q**k y B_k + q**(k-1) [k]_q B_{k-1}.  These are, up to an
    explicit sign and power of q, q^{-1}-Hermite polynomials; they appear as
    connection coefficients between the P and H families.
    """
    _check_order(n)
    _check_finite(q, y)
    brackets = _bracket_seq(n, q)
    gamma = [None] + [-(q ** (k - 1)) * brackets[k] for k in range(1, n)]
    return _forward(n, y, [-(q**k) for k in range(n)], [0] * n, gamma)


def b_big(n, y, q):
    """Auxiliary polynomial B_n(y | q)."""
    return b_big_seq(n, y, q)[-1]


def b_small_seq(n, y, q):
    """Continuous-scaling values of the auxiliary family.

    b_{k+1} = -2 q**k y b_k + q**(k-1) (1 - q**k) b_{k-1}, so that
    (-1)**n q**(-C(n,2)) b_n(y | q) = h_n(y | 1/q).
    """
    _check_order(n)
    _check_finite(q, y)
    gamma = [None] + [-(q ** (k - 1)) * (1 - q**k) for k in range(1, n)]
    return _forward(n, y, [-2 * q**k for k in range(n)], [0] * n, gamma)


def b_small(n, y, q):
    """Auxiliary polynomial b_n(y | q) in the continuous scaling."""
    return b_small_seq(n, y, q)[-1]


def chebyshev_U_seq(n, x):
    """Chebyshev polynomials of the second kind, U_{k+1} = 2x U_k - U_{k-1}."""
    _check_order(n)
    _check_finite(x)
    return _forward(n, x, [2] * n, [0] * n, [1] * n)


def chebyshev_U(n, x):
    """Chebyshev polynomial of the second kind U_n(x)."""
    return chebyshev_U_seq(n, x)[-1]


def _is_conjugate_pair(a, b):
    a = complex(a)
    b = complex(b)
    return abs(b - a.conjugate()) <= 1e-14 * (1 + abs(a))


def _is_complex(v):
    """True for a complex scalar or a complex numpy array."""
    return isinstance(v, complex) or isinstance(v, np.ndarray) and v.dtype.kind == "c"


_IMAG_TOL = 1e-12  # real_part's bound on an imaginary residue, relative to 1 + |value|


def real_part(value):
    """Collapse a complex value, or a complex array, that must be real analytically.

    The imaginary part has to be roundoff noise: anything above
    _IMAG_TOL * (1 + |value|) raises DomainError instead of being dropped.
    An array is held to the rule entry by entry and collapses to a float
    array.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind != "c":
            return value
        if np.count_nonzero(np.abs(value.imag) > _IMAG_TOL * (1 + np.abs(value))):
            raise DomainError(
                f"values expected to be real have imaginary residues {value.imag!r}"
            )
        return value.real.copy()
    if not isinstance(value, complex):
        return value
    if abs(value.imag) > _IMAG_TOL * (1 + abs(value)):
        raise DomainError(
            f"value expected to be real has imaginary residue {value.imag!r}"
        )
    return value.real


def linearize_HH(n, m, q):
    """Coefficients of the product formula for two H polynomials.

    Returns [c_0, ..., c_min(n,m)] with
    H_n H_m = sum_j c_j H_{n+m-2j} and c_j = [m,j]_q [n,j]_q [j]_q!.
    A float [min(n,m)]_q! out of the normal floats: TruncationError.
    """
    _check_order(n)
    _check_order(m)
    row_m = q_binomial_row(m, q)
    row_n = q_binomial_row(n, q)
    fact = _factorial_seq(min(n, m), q)
    _check_factorial(fact[-1], min(n, m), q)
    return [row_m[j] * row_n[j] * fact[j] for j in range(min(n, m) + 1)]


def bh_expand_B(n, q):
    """Coefficients of B_n in the H basis.

    Returns [c_0, ..., c_floor(n/2)] with B_n = sum_k c_k H_{n-2k}.  Since
    H_0 = 1 this is the product H_0 B_n, so product_HB(0, n, q).
    """
    return product_HB(0, n, q)


def product_HB(m, n, q):
    """Coefficients of the product H_m B_n in the H basis.

    Returns [c_0, ..., c_floor((n+m)/2)] with
    H_m B_n = sum_i c_i H_{n+m-2i} and, for i <= n,
    c_i = (-1)**n [n,i]_q [n+m-i,i]_q [i]_q! q**(C(n,2) - i(n-i)); terms with
    i > n vanish and are emitted as exact zeros.  One Gaussian-binomial row
    and one q-factorial prefix give every term, through
    [n+m-i,i]_q [i]_q! = [n+m-i]_q! / [n+m-2i]_q!.  The q exponent is
    nonnegative, so q = 0 is safe.  Where a divisor [k]_q! vanishes (q = -1,
    [2]_q = 0) the product still exists, but this quotient cannot reach it:
    PoleError.  A float [n+m]_q! out of the normal floats: TruncationError.
    """
    _check_order(n)
    _check_order(m)
    sign = (-1) ** n
    top = min(n, (n + m) // 2)
    row = q_binomial_row(n, q)
    fact = _factorial_seq(n + m, q)
    # the i = 0 divisor [n+m]_q! is the last of the prefix: the extreme, and 0 if any is
    _check_factorial(fact[n + m], n + m, q)
    _check_pole(fact[n + m], "[n+m]_q!")
    out = [
        sign * row[i] * fact[n + m - i] / fact[n + m - 2 * i] * q ** (math.comb(n, 2) - i * (n - i))
        for i in range(top + 1)
    ]
    return out + [0] * ((n + m) // 2 - top)


def I_nm(n, m, x, q):
    """Binomial convolution of the B and H families at a single point.

    Evaluates sum_i [n,i]_q B_{n-i}(x) H_{i+m}(x) directly from the defining
    sum; the closed form lives in i_nm_closed so the two stay independent.
    """
    _check_order(n)
    _check_order(m)
    B = b_big_seq(n, x, q)
    H = hermite_H_seq(n + m, x, q)
    row = q_binomial_row(n, q)
    total = 0
    for i in range(n + 1):
        total = total + row[i] * B[n - i] * H[i + m]
    return total


def i_nm_closed(n, m, x, q):
    """Closed form of the B/H binomial convolution.

    Zero when n > m; otherwise (-1)**n q**C(n,2) [m]_q!/[m-n]_q! H_{m-n}(x).
    PoleError where [m-n]_q! vanishes (q = -1, m - n >= 2), although the
    falling product [m]_q ... [m-n+1]_q exists there.  A float [m]_q! out
    of the normal floats: TruncationError.
    """
    _check_order(n)
    _check_order(m)
    if n > m:
        return 0
    fact = _factorial_seq(m, q)
    _check_factorial(fact[m], m, q)
    ratio = fact[m] / _check_pole(fact[m - n], "[m-n]_q!")
    return (-1) ** n * q ** math.comb(n, 2) * ratio * hermite_H(m - n, x, q)


def connection_P_from_BH(n, x, y, rho, q):
    """P_n(x | y, rho, q) assembled from the B and H families.

    Evaluates sum_j [n,j]_q rho**(n-j) B_{n-j}(y) H_j(x), which must agree
    with asc_P pointwise.
    """
    _check_order(n)
    _check_finite(rho)
    B = b_big_seq(n, y, q)
    H = hermite_H_seq(n, x, q)
    row = q_binomial_row(n, q)
    total = 0
    for j in range(n + 1):
        total = total + row[j] * rho ** (n - j) * B[n - j] * H[j]
    return total


def connection_H_from_P(n, x, y, rho, q):
    """H_n(x | q) assembled from the P family with parameter roles reversed.

    Evaluates sum_j [n,j]_q rho**(n-j) H_{n-j}(y) P_j(x | y, rho, q).
    """
    _check_order(n)
    H = hermite_H_seq(n, y, q)
    P = asc_P_seq(n, x, y, rho, q)
    row = q_binomial_row(n, q)
    total = 0
    for j in range(n + 1):
        total = total + row[j] * rho ** (n - j) * H[n - j] * P[j]
    return total
