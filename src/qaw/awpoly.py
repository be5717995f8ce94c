"""Askey-Wilson polynomials for conjugate complex parameter pairs.

The parameter regime handled here takes a = conj(b) and c = conj(d) with
|a|, |c| < 1, which is the regime where all four Askey-Wilson parameters are
produced from five real numbers (two conditioning points y and z, two
correlation-like numbers rho1 and rho2, and the base q) by ``map_params``.
In that regime the polynomials have real coefficients even though the
parameters are complex.

Three independent evaluation paths are provided and cross-checked by the
test suite:

* ``aw_D``            the continuous-scaling polynomial assembled from
                      Al-Salam-Chihara and auxiliary families,
* ``aw_A_sym``        the probabilistic-scaling analogue (monic),
* ``aw_A_mixed``      a single-sum form mixing the two conditioning points.

``aw_phi43_oracle`` evaluates the classical terminating basic hypergeometric
series for the same polynomial in stdlib decimal; it exists purely as a
test oracle.  Its first pass runs at 30 + C(n,2) log10(1/|q|) digits; a
pass that keeps fewer than 20 digits after the cancellation it measures
reruns at the measured loss plus 30, until the rounding noise lies below
every float, each pass held to the table budget.  At q = 0 it runs the
same series at base 1e-20.
``aw_D_free`` and ``aw_A_free`` are the q = 0 closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qcore import (
    DomainError,
    _check_base,
    _check_below_one,
    _check_entries,
    _check_order,
    _check_pole,
    _check_real,
    _check_rho,
    q_binomial_row,
    q_pochhammer,
    q_pochhammer_seq,
)
from .polyfam import (
    _is_complex,
    asc_P_seq,
    asc_Q_seq,
    b_big_seq,
    b_small_seq,
    real_part,
)

__all__ = [
    "AWComplexParams",
    "CondDensityParams",
    "map_params",
    "aw_prefactor",
    "aw_D",
    "aw_A_sym",
    "aw_A_sym_seq",
    "aw_A_mixed",
    "aw_D_free",
    "aw_A_free",
    "aw_phi43_oracle",
]


@dataclass(frozen=True)
class AWComplexParams:
    """The four Askey-Wilson parameters in the conjugate-pair regime.

    Requires b = conj(a), d = conj(c), |a| < 1, |c| < 1; the pairwise
    products then all have modulus below one, which keeps every Pochhammer
    denominator of the representation formulas away from zero.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(v) for v in (self.a, self.b, self.c, self.d))
        if abs(b - a.conjugate()) > 1e-12 * (1 + abs(a)):
            raise DomainError("second parameter must be the conjugate of the first")
        if abs(d - c.conjugate()) > 1e-12 * (1 + abs(c)):
            raise DomainError("fourth parameter must be the conjugate of the third")
        if not (abs(a) < 1 and abs(c) < 1):
            raise DomainError("parameter moduli must be below one")
        pairs = (a * b, a * c, a * d, b * c, b * d, c * d)
        if not all(abs(p) < 1 for p in pairs):
            raise DomainError("all pairwise parameter products must have modulus below one")


@dataclass(frozen=True)
class CondDensityParams:
    """Real parameter bundle (y, rho1, z, rho2, q) for the conditional laws.

    y and z must lie in the closed orthogonality interval for the base q,
    i.e. (1-q) y**2 <= 4, and the correlations must satisfy |rho| < 1.
    Density evaluation additionally demands strict interior membership; the
    closed interval is allowed here so that boundary parameter studies can
    at least be represented.
    """

    y: float
    rho1: float
    z: float
    rho2: float
    q: float

    def __post_init__(self):
        _check_base(self.q)
        _check_rho(self.rho1, self.rho2)
        one_minus_q = 1 - self.q
        for name in ("y", "z"):
            t = getattr(self, name)
            try:
                inside = one_minus_q * t * t <= 4
            except TypeError:  # a complex point has no order
                inside = False
            if not inside:
                raise DomainError(
                    f"{name}={t!r} lies outside the orthogonality interval for q={self.q!r}"
                )

    def swapped(self):
        """The same bundle with the roles of (y, rho1) and (z, rho2) exchanged."""
        return CondDensityParams(self.z, self.rho2, self.y, self.rho1, self.q)


def map_params(p: CondDensityParams) -> AWComplexParams:
    """Build the conjugate-pair Askey-Wilson parameters from a real bundle.

    a = (sqrt(1-q)/2) rho1 (y - i sqrt(4/(1-q) - y**2)) and b = conj(a),
    with c, d built the same way from (z, rho2).  Then |a| = |rho1| and
    a b = rho1**2, and similarly for the second pair.  q = 1 is rejected.
    """
    q = p.q
    _check_below_one(q, "the parameter map")
    scale = math.sqrt(1 - q) / 2

    def half(t, rho):
        inner = 4 / (1 - q) - t * t
        # roundoff can push a boundary point a hair negative
        root = math.sqrt(max(0.0, inner))
        return scale * rho * complex(t, -root)

    a = half(p.y, p.rho1)
    c = half(p.z, p.rho2)
    return AWComplexParams(a, a.conjugate(), c, c.conjugate())


def aw_prefactor(n, rho1, rho2, q):
    """(rho1^2; q)_n (rho2^2; q)_n / (rho1^2 rho2^2 q**(n-1); q)_n.

    The normalizing constant shared by all probabilistic-scaling
    representations; equals 1 at n = 0, where no q**-1 is formed.  q = 1 is
    allowed: the Gaussian end's ((1-rho1^2)(1-rho2^2)/(1-rho1^2 rho2^2))**n.
    """
    _check_base(q)
    r1sq = rho1 * rho1
    r2sq = rho2 * rho2
    return _prefactor(n, q_pochhammer(r1sq, q, n), q_pochhammer(r2sq, q, n), r1sq * r2sq, q)


def _prefactor(n, poch1_n, poch2_n, R, q):
    # aw_prefactor from its numerators (rho1^2; q)_n, (rho2^2; q)_n and R = rho1^2 rho2^2
    den = q_pochhammer(R * q ** max(n - 1, 0), q, n)
    return poch1_n * poch2_n / _check_pole(den, "(rho1^2 rho2^2 q**(n-1); q)_n")


def aw_D(n, x, params: AWComplexParams, q):
    """Askey-Wilson polynomial in the continuous scaling, leading coefficient 2**n.

    Assembled from the auxiliary family and two Al-Salam-Chihara families:

        D_n = pref * sum_j [n,j]_q b_{n-j}(x) *
              sum_i [j,i]_q Q_i(x|a,b) Q_{j-i}(x|c,d) / ((ab)_i (cd)_{j-i})

    with pref = (ab)_n (cd)_n / (abcd q**(n-1))_n.  For conjugate-pair
    parameters and real x the value is real and is returned as a float, or
    as a float array for a float array x.  Requires -1 < q < 1 and, for the
    n + 1 Gaussian-binomial rows, n <= 1412 (the table budget).
    """
    _check_base(q)
    _check_below_one(q, "the Askey-Wilson representations")
    _check_order(n)
    _check_entries((n + 1) * (n + 2) // 2, f"the Gaussian-binomial rows of order {n}")
    if n == 0:
        return 1 + 0 * x
    a, b, c, d = params.a, params.b, params.c, params.d
    ab = a * b
    cd = c * d
    b_vals = b_small_seq(n, x, q)
    Q1 = asc_Q_seq(n, x, a, b, q)
    Q2 = asc_Q_seq(n, x, c, d, q)
    poch_ab = q_pochhammer_seq(ab, q, n)
    poch_cd = q_pochhammer_seq(cd, q, n)
    # a vanishing factor zeroes every later entry, so the last ones decide
    _check_pole(poch_ab[n], "(ab; q)_n")
    _check_pole(poch_cd[n], "(cd; q)_n")
    den = _check_pole(q_pochhammer(ab * cd * q ** (n - 1), q, n), "(abcd q**(n-1); q)_n")
    pref = poch_ab[n] * poch_cd[n] / den
    rows = [q_binomial_row(j, q) for j in range(n + 1)]
    total = 0
    for j in range(n + 1):
        inner = 0
        for i in range(j + 1):
            inner = inner + rows[j][i] * Q1[i] * Q2[j - i] / (
                poch_ab[i] * poch_cd[j - i]
            )
        total = total + rows[n][j] * b_vals[n - j] * inner
    value = pref * total
    return value if _is_complex(x) else real_part(value)


def aw_A_sym_seq(nmax, x, p: CondDensityParams):
    """Values [A_0(x), ..., A_nmax(x)] of the monic probabilistic-scaling family.

    Shares the per-degree prefactor structure of aw_D but runs entirely over
    the real parameter bundle, so Fraction inputs give exact values.
    """
    q = p.q
    _check_below_one(q, "the Askey-Wilson representations")
    _check_order(nmax)
    _check_entries((nmax + 1) * (nmax + 2) // 2, f"the Gaussian-binomial rows of order {nmax}")
    r1sq = p.rho1 * p.rho1
    r2sq = p.rho2 * p.rho2
    B = b_big_seq(nmax, x, q)
    P1 = asc_P_seq(nmax, x, p.y, p.rho1, q)
    P2 = asc_P_seq(nmax, x, p.z, p.rho2, q)
    poch1 = q_pochhammer_seq(r1sq, q, nmax)
    poch2 = q_pochhammer_seq(r2sq, q, nmax)
    rows = [q_binomial_row(j, q) for j in range(nmax + 1)]
    # inner[j] = sum_i [j,i]_q P1[i] P2[j-i] / ((r1^2)_i (r2^2)_{j-i})
    inner = []
    for j in range(nmax + 1):
        acc = 0
        for i in range(j + 1):
            acc = acc + rows[j][i] * P1[i] * P2[j - i] / (
                poch1[i] * poch2[j - i]
            )
        inner.append(acc)
    out = []
    for n in range(nmax + 1):
        if n == 0:
            out.append(1 + 0 * x)
            continue
        total = 0
        for j in range(n + 1):
            total = total + rows[n][j] * B[n - j] * inner[j]
        out.append(_prefactor(n, poch1[n], poch2[n], r1sq * r2sq, q) * total)
    return out


def aw_A_sym(n, x, p: CondDensityParams):
    """Monic Askey-Wilson polynomial A_n in the probabilistic scaling."""
    return aw_A_sym_seq(n, x, p)[-1]


def aw_A_mixed(n, x, p: CondDensityParams):
    """The same polynomial as aw_A_sym through a single mixed sum.

    A_n = pref * sum_m (-1)**m q**C(m,2) [n,m]_q rho1**m
          P_{n-m}(x | z, rho2) P_m(y | x, rho1) / ((rho2^2)_{n-m} (rho1^2)_m)

    Note the role reversal in the second factor: the polynomial is taken at
    the conditioning point y with the running variable x as its parameter.
    Kept free of shared code with aw_A_sym so the two can cross-check.
    """
    q = p.q
    _check_below_one(q, "the Askey-Wilson representations")
    if n == 0:
        return 1 + 0 * x
    r1sq = p.rho1 * p.rho1
    r2sq = p.rho2 * p.rho2
    P_xz = asc_P_seq(n, x, p.z, p.rho2, q)
    P_yx = asc_P_seq(n, p.y, x, p.rho1, q)
    poch1 = q_pochhammer_seq(r1sq, q, n)
    poch2 = q_pochhammer_seq(r2sq, q, n)
    pref = poch1[n] * poch2[n] / q_pochhammer(r1sq * r2sq * q ** (n - 1), q, n)
    row = q_binomial_row(n, q)
    total = 0
    for m in range(n + 1):
        sign = (-1) ** m
        total = total + (
            sign
            * q ** math.comb(m, 2)
            * row[m]
            * p.rho1**m
            * P_xz[n - m]
            * P_yx[m]
            / (poch2[n - m] * poch1[m])
        )
    return pref * total


def _poch0(t, n):
    """(t; 0)_n: equals 1 for n = 0 and 1 - t otherwise."""
    return 1 if n == 0 else 1 - t


def aw_D_free(n, x, a, b, c, d):
    """Closed form of aw_D at q = 0.

    D_1 = 2x - (a+b+c+d - abc - abd - acd - bcd)/(1 - abcd); for n >= 2 the
    polynomial is (1-ab)(1-cd) times a three-sum combination of q = 0
    Al-Salam-Chihara values.  Used as an independent cross-check of the
    q = 0 branch of aw_D, and like aw_D real for real x and complex for
    complex x.
    """
    if n == 0:
        return 1 + 0 * x
    ab = a * b
    cd = c * d
    if n == 1:
        e1 = a + b + c + d
        e3 = a * b * c + a * b * d + a * c * d + b * c * d
        value = 2 * x - (e1 - e3) / _check_pole(1 - ab * cd, "1 - abcd")
        return value if _is_complex(x) else real_part(value)
    Q1 = asc_Q_seq(n, x, a, b, 0)
    Q2 = asc_Q_seq(n, x, c, d, 0)

    def block(total_degree):
        acc = 0
        for i in range(total_degree + 1):
            acc = acc + Q1[i] * Q2[total_degree - i] / (
                _poch0(ab, i) * _poch0(cd, total_degree - i)
            )
        return acc

    # the per-degree prefactor survives the q -> 0 limit as (1-ab)(1-cd)
    value = (1 - ab) * (1 - cd) * (block(n) - 2 * x * block(n - 1) + block(n - 2))
    return value if _is_complex(x) else real_part(value)


def aw_A_free(n, x, p: CondDensityParams):
    """Closed form of the monic family at q = 0.

    A_1 = x - (y rho1 (1 - rho2^2) + z rho2 (1 - rho1^2)) / (1 - rho1^2 rho2^2).
    For n >= 2 only the m = 0 and m = 1 terms of the mixed-sum representation
    survive the q -> 0 limit, which leaves

        A_n = (1 - rho1^2) P_n(x|z, rho2, 0) - rho1 (y - rho1 x) P_{n-1}(x|z, rho2, 0).
    """
    r1sq = p.rho1 * p.rho1
    r2sq = p.rho2 * p.rho2
    if n == 0:
        return 1 + 0 * x
    if n == 1:
        num = p.y * p.rho1 * (1 - r2sq) + p.z * p.rho2 * (1 - r1sq)
        return x - num / (1 - r1sq * r2sq)
    P_xz = asc_P_seq(n, x, p.z, p.rho2, 0)
    return (1 - r1sq) * P_xz[n] - p.rho1 * (p.y - p.rho1 * x) * P_xz[n - 1]


# --- terminating basic hypergeometric oracle ---------------------------------


def _cmul(u, v):
    """The product of two complex numbers held as (re, im) pairs."""
    (ur, ui), (vr, vi) = u, v
    return ur * vr - ui * vi, ur * vi + ui * vr


def aw_phi43_oracle(n, x, params: AWComplexParams, q):
    """Terminating basic hypergeometric evaluation of aw_D, as a test oracle.

    Evaluates the classical 4-phi-3 series for the Askey-Wilson polynomial
    at x = cos(theta) in [-1, 1]:

        pref * sum_k ((q**-n, abcd q**(n-1), a e^{-i theta}, a e^{i theta}; q)_k
                      / (ab, ac, ad, q; q)_k) q**k

    with pref = (ab, ac, ad; q)_n / (a**n (abcd q**(n-1); q)_n).  It runs in
    stdlib decimal, each complex number an (re, im) pair, under a fresh
    context, so the caller's decimal context does not reach the result.
    The pair (a e^{-i theta}, a e^{i theta}; q) enters as the real-x factors
    1 - 2ax q**i + a**2 q**(2i), each term comes from the one before by one
    division, and pref's products are taken in the same loop.

    The series suffers cancellation of order q**(-C(n,2)), and of |a|**-n
    at small |a|.  The first pass runs at 30 + C(n,2) log10(1/|q|) digits
    and measures the digits lost: log10 of the largest term over the sum.
    A pass that keeps fewer than 20 digits reruns at the measured loss plus
    30, and so on, until 20 are kept or the rounding noise, |pref| times
    the largest term times 10**-digits, falls below 1e-340, under every
    float.  A pass that keeps no digit measures only a lower bound on the
    loss, so its rerun at least doubles the digits; a sum that cancels
    exactly, as at a root of D_n by symmetry, ends at the noise floor and
    returns 0.0.
    Before each pass, the passes' total of n times digits is held to the
    table budget of 10**6 (q = 0.9, n = 400 asks 1.5e6 at once).

    The series form degenerates at q = 0, but D_n is analytic in q there: a
    base with |q| < 1e-20, q = 0 included, is evaluated at base +-1e-20
    (+1e-20 at q = 0), which moves the value by O(1e-20) and bounds the
    first pass's precision by n alone.

    Requires a != 0 and -1 < q < 1.
    """
    _check_order(n)
    _check_base(q)
    _check_below_one(q, "the terminating series form")
    if params.a == 0:
        raise DomainError("the series prefactor divides by a**n; a must be nonzero")
    _check_real(x)
    if abs(x) > 1 + 1e-12:
        raise DomainError(f"x must lie in [-1, 1], got {x!r}")
    x = min(1.0, max(-1.0, float(x)))
    if n == 0:
        return 1.0
    if abs(q) < 1e-20:
        q = -1e-20 if q < 0 else 1e-20

    import decimal

    D = decimal.Decimal

    def series(prec):
        """(value as a pair of floats, spare digits, exponent of the rounding noise)."""
        context = decimal.Context(
            prec, decimal.ROUND_HALF_EVEN, decimal.MIN_EMIN, decimal.MAX_EMAX
        )
        with decimal.localcontext(context):
            one, zero, qd = D(1), D(0), D(q)
            a, b, c, d = (
                (D(t.real), D(t.imag))
                for t in map(complex, (params.a, params.b, params.c, params.d))
            )
            ab, ac, ad = _cmul(a, b), _cmul(a, c), _cmul(a, d)
            abcd, q_n1 = _cmul(ab, _cmul(c, d)), qd ** (n - 1)
            lam = (abcd[0] * q_n1, abcd[1] * q_n1)
            q_minus_n = one / qd**n
            two_x = 2 * D(x)
            ax2 = (two_x * a[0], two_x * a[1])
            a_sq = _cmul(a, a)
            qi = one
            term = total = num_pref = den_pref = (one, zero)
            largest = one
            for _ in range(n):
                qi2 = qi * qi
                lam_f = (one - lam[0] * qi, -lam[1] * qi)
                pair_f = (one - ax2[0] * qi + a_sq[0] * qi2, a_sq[1] * qi2 - ax2[1] * qi)
                top = _cmul(lam_f, pair_f)
                scale = (one - q_minus_n * qi) * qd
                bottom = _cmul(
                    _cmul((one - ab[0] * qi, -ab[1] * qi), (one - ac[0] * qi, -ac[1] * qi)),
                    (one - ad[0] * qi, -ad[1] * qi),
                )
                num_pref = _cmul(num_pref, bottom)
                den_pref = _cmul(den_pref, _cmul(a, lam_f))
                qi *= qd
                den = (bottom[0] * (one - qi), bottom[1] * (one - qi))
                inv = scale / _check_pole(
                    den[0] * den[0] + den[1] * den[1],
                    "a Pochhammer denominator of the series",
                )
                term = _cmul(term, _cmul(top, (den[0] * inv, -den[1] * inv)))
                total = (total[0] + term[0], total[1] + term[1])
                largest = max(largest, abs(term[0]), abs(term[1]))
            size = max(abs(total[0]), abs(total[1]))
            spare = prec - (largest.adjusted() - size.adjusted() + 1) if size else 0
            inv = one / (den_pref[0] * den_pref[0] + den_pref[1] * den_pref[1])
            pref = _cmul(num_pref, (den_pref[0] * inv, -den_pref[1] * inv))
            noise = largest.adjusted() + max(abs(pref[0]), abs(pref[1])).adjusted() + 3 - prec
            value = _cmul(pref, total)
            return (float(value[0]), float(value[1])), spare, noise

    prec, load = 30 + int(math.ceil(math.comb(n, 2) * -math.log10(abs(q)))), 0
    while True:
        load += n * prec
        _check_entries(load, f"the 4phi3 passes of order {n} (terms times digits)")
        value, spare, noise = series(prec)
        if spare >= 20 or noise < -340:
            return real_part(complex(*value))
        step = 30 - spare if spare > 0 else max(30 - spare, prec)
        prec += min(step, noise + 341)
