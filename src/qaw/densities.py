"""Orthogonality densities for the q-Hermite ladder of processes.

Three densities live here, each supported on the interval
S(q) = [-2/sqrt(1-q), 2/sqrt(1-q)] (the whole real line when q = 1):

* ``f_N``       the stationary law; orthogonalizes the probabilistic
                q-Hermite family, interpolating between the semicircle
                law at q = 0 and the standard Gaussian at q = 1.
* ``f_CN``      the one-step conditional law given a value y of a
                neighboring coordinate with correlation rho; it
                orthogonalizes the Al-Salam-Chihara family and reduces to
                N(rho y, 1 - rho**2) at q = 1.
* ``phi_cond``  the law of a middle coordinate given both neighbors,
                which orthogonalizes the Askey-Wilson family of
                ``awpoly``.

Every density is f_N times at most one product of quadratic rho-factors,
and one private evaluator runs them all.  f_N is a theta function,

    f_N(x) = sqrt(1-q) theta_1(theta | sqrt(q)) / (2 pi q**(1/8)),
    x = 2 cos(theta) / sqrt(1-q),

summed for 0 < q < 1 by Jacobi's imaginary transformation: with
L = -ln(q) / 2 it is a wrapped Gaussian whose n-th term is smaller than
the first by about e**(-n**2 pi**2 / L), so M = 1 term serves from q = 0.9
up, 2 at q = 0.1 and 0.5, 3 at q = 0.01.  For q <= 0, and for 0 < q
below about 2e-4, where the series is the longer, f_N is its product.
Products are cut after K factors where K is chosen so the dropped tail
perturbs the value by less than the relative tolerance _REL_TOL = 1e-14:
each factor is 1 + O(C q**k), so K solves C |q|**K / (1 - |q|) <= _REL_TOL
with a conservative per-density constant C; past the term budget of 10 000
factors (from |q| of about 0.997) a product raises TruncationError.

A rho-part multiplies the factors (1 - rho**2 q**k) / w_k(x, y), one per
neighbor y (phi_cond's also carry w_k(y, z) / (1 - rho1**2 rho2**2 q**k)).
With u = x sqrt(1-q) / 2 and v = y sqrt(1-q) / 2, -log w_k(x, y) is
sum_m 4 (rho q**k)**m T_m(u) T_m(v) / m (DLMF 20.7(viii); Gasper & Rahman
1.6), so the factors k >= J multiply to

    exp sum_{m=1}^{M} q**(J m) (4 rho**m T_m(u) T_m(v) - rho**(2m)) / (m (1 - q**m)),

one Chebyshev series in u whose terms shrink like (rho q**J)**m whatever
q is.  A rho-part is J exact head factors times exp of that series' first
M terms, summed by Clenshaw, with (J, M) chosen per parameter set to make
J + M least at every base (J = 0 and M = 45 at q = 0.99, rho = 0.5; J = 11
and M = 16 at q = 0.9; J = 6 and M = 6 at q = 0.5), where K would be 4011,
361 and 53.  The whole product, J = K, runs only where J + M would not be
below K, at q = 0 and at some |q| below about 1e-5.  The series runs at
every 0 < q < 1 (372 terms for phi_cond at q = 0.999999), but its weights
reach 1 / (1 - q), so its rounding grows like eps / (1 - q): 3.8e-13 for
f_CN / f_N at q = 0.999 against a 50-digit product.  Head rows are built
in Python floats, and the series' weights come from a cache of 32 rows
per (q, J, M) (``_series_weights``).  f_N's product and the ratio bounds
read their row q**k from one cache of 32 read-only rows (``_powers``),
``_theta`` caches f_N's route for 32 bases (the series' M decay rates, or
the product's (1 + q**k)**2 row), and ``_rows`` the routes of the last
four rho-parts, their head rows and series coefficients: a few kilobytes
each.

A point call hands the evaluator a float: a Python comparison tests the
support, f_N's series runs its ufuncs on numpy scalars, a rho-part's head
factors reduce one (1, J) row, its Clenshaw sum runs in Python floats and
np.exp takes the tail.  An array is masked once, gathered and scattered
only if a point is off the support, and its products run over blocks of
at most 16384 elements: memory is O(points) whatever K is.  Terms add
and factors multiply in order either way, so for q < 1 a grid value
equals the point call bit for bit (f_N's q = 1 call uses math.exp).

Scalar entry points return a ``DensityEval``, whose ``terms`` counts the
terms or factors of the last series or product run (the rho-part's J + M
if there is one, else f_N's M or K), 0 off the open support and at q = 1;
the ``*_values`` companions take numpy arrays and return bare arrays.
Points on or outside the support boundary get density exactly 0; a nan,
infinite or complex point raises ``DomainError``, as does an array given
to a point call.  Conditioning points must be strictly interior.  The
products are float-only: an exact fraction (say a ``Fraction`` base or
correlation) or a numpy array parameter raises ``DomainError``; integers
and floats are accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Rational, Real

import numpy as np

from .qcore import (
    DomainError,
    _REL_TOL,
    _check_base,
    _check_below_one,
    _check_finite,
    _check_rho,
    _check_terms,
    q_pochhammer_inf,
)
from .awpoly import CondDensityParams

__all__ = [
    "support_half_width",
    "DensityEval",
    "w_factor",
    "f_N",
    "f_N_values",
    "f_CN",
    "f_CN_values",
    "cond_ratio_values",
    "phi_cond",
    "phi_cond_values",
    "phi_cond_via_ratio",
    "f_N_q0",
    "f_CN_q0",
    "phi_q0",
    "fcn_ratio_bounds",
]

_TWO_PI = 2 * math.pi


def support_half_width(q):
    """Half-width of the orthogonality interval S(q): 2/sqrt(1-q), inf at q = 1."""
    _check_base(q)
    return _half_width(q)


def _half_width(q):
    return math.inf if q == 1 else 2 / math.sqrt(1 - q)


@dataclass(frozen=True)
class DensityEval:
    """A density value and the count of terms summed or factors multiplied for it.

    terms is the rho-part's J head factors plus M log-series terms when
    the density has one (J = K and M = 0 where the whole product runs),
    else f_N's: the M terms of its theta series or the K factors of its
    product.  0 where nothing ran: off the open support and at q = 1.
    """

    value: float
    terms: int


def w_factor(x, y, rho, q, k=0):
    """The k-th quadratic product factor coupling x and y at correlation rho.

    Equals the k = 0 factor with rho replaced by rho * q**k:

        (1 - r**2)**2 - (1-q) r (1 + r**2) x y + (1-q) r**2 (x**2 + y**2)

    with r = rho * q**k.  Positive whenever |rho| < 1 and both points lie in
    the closed support interval; exact over Fraction inputs.
    """
    _check_finite(x, y, rho, q)
    r = rho * q**k
    rsq = r * r
    return (1 - rsq) ** 2 - (1 - q) * r * (1 + rsq) * x * y + (1 - q) * rsq * (x * x + y * y)


def _factors_needed(q, scale):
    """Smallest K with scale * |q|**K / (1 - |q|) below the relative tolerance."""
    aq = abs(q)
    if aq == 0:
        return 1
    target = _REL_TOL * (1 - aq) / scale
    if target >= 1:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(aq)))


# C per product: f_N, fcn_ratio_bounds' lower bound, f_CN / f_N, phi_cond / f_N
_FN_SCALE, _BOUND_SCALE, _FCN_SCALE, _PHI_SCALE = 8.0, 16.0, 32.0, 96.0


@lru_cache(maxsize=32)
def _powers(q, scale):
    """(K, the read-only row q**k for k < K) of the product with constant scale."""
    K = _factors_needed(q, scale)
    _check_terms(K, "the density product")
    qk = np.power(float(q), np.arange(K))
    qk.flags.writeable = False
    return K, qk


def _theta_series(q):
    """(coef, M, (s, L), rates) of f_N's wrapped-Gaussian series at 0 < q < 1.

    s = sqrt(1-q) / 2, L = -ln(q) / 2, coef = sqrt(1-q) sqrt(pi/L) /
    (2 pi q**(1/8)) and rates[n] = 2 pi (2n + 1) / L; M is the smallest n with
    (2n + 1) e**(-n**2 pi**2 / L) below the relative tolerance, which bounds
    the first dropped term against the n = 0 one.
    """
    L = -math.log(q) / 2
    M = 1
    while (2 * M + 1) * math.exp(-M * M * math.pi * math.pi / L) > _REL_TOL:
        M += 1
    coef = math.sqrt(1 - q) * math.sqrt(math.pi / L) / (_TWO_PI * q**0.125)
    rates = _TWO_PI * (2 * np.arange(M) + 1) / L
    rates.flags.writeable = False
    return coef, M, (math.sqrt(1 - q) / 2, L), rates


def _theta_product(q):
    """(coef, K, qk, head) of f_N's product: its constant, K, q**k and (1 + q**k)**2 for 0 < k < K."""
    coef = math.sqrt(1 - q) * q_pochhammer_inf(q, q) / _TWO_PI
    K, qk = _powers(q, _FN_SCALE)
    head = (1 + qk[1:]) ** 2
    head.flags.writeable = False
    return coef, K, qk[1:], head


@lru_cache(maxsize=32)
def _theta(q):
    """f_N's route at q < 1, read by _f_N_inside: its series or its product.

    The series for q > 0 wherever it needs fewer terms than the product
    needs factors (M = 1 to 4 from q = 0.99 down to about 2e-4); the
    product for q <= 0 and near 0.  Only the product meets the term
    budget: the series is chosen only below the product's count.
    """
    if q > 0:
        series = _theta_series(q)
        if series[1] < _factors_needed(q, _FN_SCALE):
            return series
    return _theta_product(q)


# Elements per (points, K) buffer, 128 KB of float64: the fastest, or tied
# for fastest, of 2**13 .. 2**16 on the density_grid benchmark mix.
_BLOCK_ELEMENTS = 16384


def _point_products(block_factors, xs, K, nbuf):
    """For every point of xs, the product over k of its K factors.

    block_factors(t, *bufs) writes the (points, K) factors of a (points, 1)
    column t into the first of nbuf buffers of that shape, using the others
    as scratch, and returns it.  Points go through in blocks of
    _BLOCK_ELEMENTS // K (at least one), so memory does not grow with K
    times the point count.  Every block reuses the same buffers: fresh
    block-sized temporaries made malloc hand heap pages back and fault them
    in again, at a rate that varied with the heap layout.  The
    multiply-reduce runs along k in order, as on one (K, points) array, so
    every product keeps its bits.  The result has the shape of xs; a float
    xs is its own t, makes one (1, K) row and gives a numpy scalar.
    """
    if isinstance(xs, float):
        return np.multiply.reduce(block_factors(xs, *np.empty((nbuf, 1, K))), axis=1)[0]
    col = xs.reshape(-1, 1)
    n = xs.size
    step = max(1, _BLOCK_ELEMENTS // K)
    if n <= step:
        factors = block_factors(col, *np.empty((nbuf, n, K)))
        return np.multiply.reduce(factors, axis=1).reshape(xs.shape)
    bufs = np.empty((nbuf, step, K))
    out = np.empty(n)
    for start in range(0, n, step):
        t = col[start : start + step]
        factors = block_factors(t, *bufs[:, : len(t)])
        np.multiply.reduce(factors, axis=1, out=out[start : start + len(t)])
    return out.reshape(xs.shape)


def _check_params(q, *rhos, **points):
    """DomainError unless q, each |rho| < 1 and each named conditioning point suit a density.

    An exact fraction (a Rational but not an integer) or a numpy array is
    refused: the products are float-only, and _rows hashes the parameters.
    Plain type tests, so a point call does no numpy work here.
    """
    _check_base(q)
    for v in (q, *rhos, *points.values()):
        if type(v) is not float and (
            isinstance(v, np.ndarray) or isinstance(v, Rational) and not isinstance(v, Integral)
        ):
            raise DomainError(f"the densities take float parameters, got {v!r}")
    _check_rho(*rhos)
    half = _half_width(q)
    for name, value in points.items():
        try:
            inside = -half < value < half
        except TypeError:  # a complex point has no order
            inside = False
        if not inside:
            raise DomainError(
                f"{name}={value!r} must lie strictly inside the support interval for q={q!r}"
            )


def _point(x):
    """x as a Python float; DomainError unless x is one finite real number."""
    if isinstance(x, np.ndarray) and x.ndim == 0:
        x = x[()]
    if not isinstance(x, Real) or not math.isfinite(x):
        raise DomainError(f"an evaluation point must be one finite real number, got {x!r}")
    return float(x)


def _finite_points(x):
    """x as a float array; DomainError if any point is complex, nan or infinite."""
    xa = np.asarray(x)
    if xa.dtype.kind == "c":
        raise DomainError("evaluation points must be real")
    xa = np.asarray(xa, dtype=float)
    _check_finite(xa)
    return xa


@lru_cache(maxsize=4, typed=True)
def _rows(build, *key):
    """build(*key), a rho-part's route; key is (y, rho, q) or (bundle,).

    cond_ratio_values appends True to f_CN's key for the whole product it
    takes off the support, so that route is cached beside the split one.

    The route's arrays are read-only: _head builds them so.
    """
    return build(*key)


# |coefficient m| of a rho-part's log series is at most C R**m / (m (1 - |q|**m))
# times |q|**(J m), R the largest |rho|: C = 4 + 1 for f_CN / f_N and
# 4 + 4 + 4 + 1 + 1 + 1 for phi_cond / f_N
_FCN_TAIL, _PHI_TAIL = 5.0, 15.0


@lru_cache(maxsize=32)
def _series_weights(q, J, M):
    """g_1 .. g_M, g_m = q**(J m) / (m (1 - q**m)), of a rho-part's log series.

    They depend on the base and the route alone, so one row per (q, J, M)
    serves every correlation and conditioning point.  1 - q**m comes from
    expm1, which keeps its digits near q = 1.
    """
    lq, qJ, odd_sign = math.log(abs(q)), q**J, q < 0
    weights, g = [], 1.0
    for m in range(1, M + 1):
        g *= qJ
        d = -math.expm1(m * lq)  # 1 - |q|**m
        weights.append(g / (m * (2 - d if odd_sign and m & 1 else d)))
    return tuple(weights)


def _split(q, K, scale, r, product=False):
    """(J, M): J exact factors, then M log-series terms, of a rho-part; (K, 0) for the product.

    After M terms the series' tail is at most scale r'**(M+1) /
    ((M+1) (1 - |q|**(M+1)) (1 - r')), r' = r |q|**J, and M is the smallest
    count that puts it below the relative tolerance.  With A = ln(scale /
    _REL_TOL), B = ln(1/r) and lam = ln(1/|q|), M is about A / (B + lam J),
    so J + M is least at J* = (sqrt(A lam) - B) / lam, clipped at 0, and
    it is about 2 sqrt(A / lam), well below K ~ A / lam.  The whole
    product, J = K and M = 0, where J + M is not below K (only for |q|
    below about 1e-5; at q = 0, K = 1) or when product asks for it.  M is
    counted only while J + M is below K and within the term budget.
    """
    J, M = K, 0
    if K > 1 and not product:
        aq = abs(q)
        lam = -math.log(aq)
        A = math.log(scale / _REL_TOL)
        j = max(0, round((math.sqrt(A * lam) + math.log(r)) / lam))
        rJ = r * aq**j
        target = _REL_TOL * (1 - rJ) / scale
        m, tail, qm = 1, rJ * rJ, aq * aq
        while j + m < K and tail > target * (m + 1) * (1 - qm):
            m, tail, qm = m + 1, tail * rJ, qm * aq
            _check_terms(j + m, "the rho-part")
        if j + m < K:
            J, M = j, m
    _check_terms(J + M, "the rho-part")
    return J, M


def _head(q, J, pairs, cross):
    """The x-free coefficients of a rho-part's factors k < J, as read-only rows.

    A neighbor's factor w_k(x, y) is written (c x - B) x + A, with r = rho
    q**k, c = (1-q) r**2, B = (1-q) r (1 + r**2) y and A = (1 - r**2)**2 +
    c y**2.  pairs holds (y, rho) per neighbor, each putting 1 - rho**2
    q**k into the numerator; cross, phi_cond's rho1 rho2 or None, puts
    w_k(y, z) at cross there too and gives den = 1 - cross**2 q**k.
    Returns (J, num, den or None, (A, B, c) per neighbor), built in Python
    floats and copied into one array: up to |q| = 0.9 the series route has
    J <= 18, where that costs no more than numpy's dozen or more calls.
    """
    p = 1 - q
    qk = [q**k for k in range(J)]
    (y, r1), *rest = pairs
    cols = [1 - r1 * r1 * t for t in qk]  # num, then den, then A, B, c per neighbor
    if cross is not None:
        ((z, r2),) = rest
        s2 = r2 * r2
        A, B, C = _w_coeffs(qk, p, cross, y)
        cols = [n * ((1 - s2 * t) * ((c * z - b) * z + a)) for n, t, a, b, c in zip(cols, qk, A, B, C)]
        cols += [1 - (r1 * r1) * s2 * t for t in qk]
    for y, rho in pairs:
        for col in _w_coeffs(qk, p, rho, y):
            cols += col
    rows = np.array(cols).reshape(-1, J)
    rows.flags.writeable = False
    i = 1 if cross is None else 2
    coeffs = tuple((rows[j], rows[j + 1], rows[j + 2]) for j in range(i, len(rows), 3))
    return J, rows[0], None if cross is None else rows[1], coeffs


def _w_coeffs(qk, p, rho, y):
    """Lists A, B, c of the factors w_k(x, y) = (c x - B) x + A, k < len(qk); p = 1 - q."""
    A, B, C = [], [], []
    ysq, py = y * y, p * y
    for t in qk:
        r = rho * t
        rsq = r * r
        c = p * rsq
        d = 1 - rsq
        A.append(d * d + c * ysq)
        B.append(py * r * (1 + rsq))
        C.append(c)
    return A, B, C


def _log_series(q, J, M, v1, r1, v2=0.0, r2=0.0, cross=0.0):
    """a_0 .. a_M with sum_m a_m T_m(u) the log of a rho-part's factors k >= J.

    A neighbor at v = s * y, s = sqrt(1-q) / 2, with correlation rho has
    factors (1 - rho**2 q**k) / w_k(x, y) whose log, summed over k >= J, is

        sum_m g_m (4 rho**m T_m(u) T_m(v) - rho**(2m)),  u = s * x,

    with g_m from _series_weights.  (v1, r1) and (v2, r2) add; cross =
    rho1 rho2 subtracts the same x-free sum for the neighbors' own two
    points, phi_cond's w(y, z, rho1 rho2) / (rho1**2 rho2**2; q).  Python
    floats, O(M).
    """
    a, a0 = [0.0], 0.0
    p1 = p2 = sm = s1 = s2 = 1.0
    t1, t2, w1, w2 = v1, v2, v1 + v1, v2 + v2  # T_m, and 2 T_1, at v1 and v2
    for c in _series_weights(q, J, M):
        p1 *= r1
        p2 *= r2
        sm *= cross
        a.append(4 * c * (p1 * t1 + p2 * t2))
        a0 -= c * (p1 * p1 + p2 * p2 + sm * (4 * t1 * t2 - sm))
        s1, t1 = t1, w1 * t1 - s1
        s2, t2 = t2, w2 * t2 - s2
    a[0] = a0
    return tuple(a)


def _head_products(xs, head):
    """The product over k < J of num / (w(x, y1) den w(x, y2)) at xs, a float or an array.

    head is _head's tuple; _point_products reduces the factors, so a point
    and a grid agree bit for bit.
    """
    J, num, den, (w1, *rest) = head

    def w_block(t, w, out):
        A, B, c = w
        np.multiply(c, t, out=out)
        out -= B
        out *= t
        out += A
        return out

    def factors(t, f, *more):
        w_block(t, w1, f)
        if den is not None:
            f *= den
        for w, g in zip(rest, more):
            f *= w_block(t, w, g)
        return np.divide(num, f, out=f)

    return _point_products(factors, xs, J, 1 + len(rest))


def _chebyshev(u, a):
    """sum_m a[m] T_m(u) by Clenshaw's recurrence, u a Python float or a float array.

    The same statements run on a float and on an array, one IEEE operation
    at a time, so a point and a grid agree bit for bit; an array is updated
    in place after one point-sized product per term.
    """
    b1, b2 = a[-1], 0.0
    u2 = u + u
    for am in a[-2:0:-1]:
        b = u2 * b1
        b -= b2
        b += am
        b1, b2 = b, b1
    b = u * b1
    b -= b2
    b += a[0]
    return b


def _part_products(xs, part):
    """The rho-part at xs, a float or an array: its J factors times exp of its log-series tail.

    part is (J + M, _head's tuple or None, s, a_0 .. a_M or None), u = s * x;
    np.exp on both a float and an array.
    """
    _, head, s, a = part
    if a is None:
        return _head_products(xs, head)
    tail = np.exp(_chebyshev(xs * s, a))
    return tail if head is None else _head_products(xs, head) * tail


def _series_sum(xs, q, s, L, rates):
    """sum_n (-1)**n e**(-(phi + n pi)**2 / L) (1 - e**(-rates[n] theta)) at xs.

    Jacobi's imaginary transformation of f_N's theta function.  With
    u = |x| s = cos(theta), s = sqrt(1-q) / 2, and w = sin(theta) from
    4 - (1-q) x**2, as in the product, both angles come from atan2:
    phi = pi/2 - theta, the n = 0 exponent's, keeps its digits near the
    centre and theta near the edge, where arcsin(u) and arccos(u) lose
    them.  Within an ulp of the edge 4 - (1-q) x**2 can round below 0, by
    about its own size; abs keeps w real there.  A float runs the same
    ufuncs on numpy scalars as an array does on its points, with no out=
    (which costs a scalar call more than the ufunc itself), and terms are
    added in order, so a point and a grid agree bit for bit.  Temporaries
    are point-sized.
    """
    u = abs(xs) * s
    w = np.sqrt(abs(4 - (1 - q) * xs * xs)) / 2
    phi, theta = np.arctan2(u, w), np.arctan2(w, u)
    total = 0.0
    for n, rate in enumerate(rates.tolist()):
        a = phi + n * math.pi if n else phi
        term = np.exp(a * a / -L) * np.expm1(theta * -rate)
        if n % 2:
            total += term
        else:
            total -= term
    return total


def _f_N_inside(xs, q, theta):
    """f_N at xs, a float or a float array strictly inside the support, by the route theta.

    theta is _theta_series's tuple, whose third entry is the pair (s, L),
    or _theta_product's, whose third entry is the row q**k, 0 < k < K.
    """
    coef, terms, consts, row = theta
    if isinstance(consts, tuple):
        return coef * _series_sum(xs, q, *consts, row)

    # the k = 0 factor, 4 - (1-q) x**2, comes divided by its square root: the
    # root remains, of abs as in _series_sum, for within an ulp or so of the
    # edge 4 - (1-q) x**2 rounds to 0 or below
    edge = abs(4 - (1 - q) * xs * xs)
    value = coef * (math.sqrt(edge) if isinstance(xs, float) else np.sqrt(edge))
    if terms == 1:
        return value

    def factors(t, f):
        np.multiply((1 - q) * t * t, consts, out=f)
        return np.subtract(row, f, out=f)

    return value * _point_products(factors, xs, terms - 1, 1)


def _density(x, q, mu, var, part=None):
    """(value, terms) of a density at x, a Python float or a float array.

    N(mu, var) at q = 1; else f_N times the product of the rho-part whose
    rows _rows(*part) looks up once a point lies strictly inside the
    support.  terms is the count of the last series or product run, 0 if
    none ran.
    """
    if q == 1:
        return np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(_TWO_PI * var), 0
    theta = _theta(q)
    half = _half_width(q)

    def inside(xs):
        value = _f_N_inside(xs, q, theta)
        if part is None:
            return value, theta[1]
        rho_part = _rows(*part)
        return value * _part_products(xs, rho_part), rho_part[0]

    if isinstance(x, float):
        return inside(x) if abs(x) < half else (0.0, 0)
    mask = np.abs(x) < half
    if x.ndim and np.count_nonzero(mask) == x.size:
        return inside(x)
    out, terms = np.zeros(x.shape), 0
    if np.count_nonzero(mask):
        out[mask], terms = inside(x[mask])
    return out, terms


def f_N_values(x, q):
    """Stationary density on a numpy array of points."""
    _check_params(q)
    return _density(_finite_points(x), q, 0, 1)[0]


def f_N(x, q) -> DensityEval:
    """Stationary density at a single point."""
    _check_params(q)
    x = _point(x)
    if q == 1:
        return DensityEval(math.exp(-0.5 * x * x) / math.sqrt(_TWO_PI), 0)
    value, terms = _density(x, q, 0, 1)
    return DensityEval(float(value), terms)


def _fcn_rows(y, rho, q, product=False):
    """f_CN / f_N's route (J + M, head, s, a); product forces J = K, M = 0."""
    K = _factors_needed(q, _FCN_SCALE)
    J, M = _split(q, K, _FCN_TAIL, abs(rho), product)
    s = math.sqrt(1 - q) / 2
    head = _head(q, J, ((y, rho),), None) if J else None
    return J + M, head, s, _log_series(q, J, M, s * y, rho) if M else None


def _fcn_plan(y, rho, q):
    """f_CN's mean and variance at q = 1 and its rho-part's _rows key, None at rho = 0."""
    return rho * y, 1 - rho * rho, None if rho == 0 else (_fcn_rows, y, rho, q)


def f_CN_values(x, y, rho, q):
    """Conditional density given a neighbor value y, on a numpy array of points."""
    _check_params(q, rho, y=y)
    return _density(_finite_points(x), q, *_fcn_plan(y, rho, q))[0]


def f_CN(x, y, rho, q) -> DensityEval:
    """Conditional density at a single point given neighbor value y."""
    _check_params(q, rho, y=y)
    value, terms = _density(_point(x), q, *_fcn_plan(y, rho, q))
    return DensityEval(float(value), terms)


def cond_ratio_values(x, y, rho, q):
    """Vectorized ratio f_CN(x | y, rho, q) / f_N(x), symmetric in x and y.

    Requires q < 1 and a strictly interior conditioning point y; under those
    conditions every product factor is positive for all real x, so the ratio
    is well defined even where the densities themselves vanish.  Points on
    or outside the support, where the log series need not converge, take
    the full product, J = K, whose route _rows caches beside the split one.
    """
    _check_params(q, rho, y=y)
    _check_below_one(q, "the product-form ratio")
    xa = _finite_points(x)
    if rho == 0:
        return np.ones_like(xa)
    route = _rows(_fcn_rows, y, rho, q)
    if route[3] is None:
        return _part_products(xa, route)
    inside = np.abs(xa) < _half_width(q)
    if np.count_nonzero(inside) == xa.size:
        return _part_products(xa, route)
    out = np.empty(xa.shape)
    out[inside] = _part_products(xa[inside], route)
    outside = ~inside
    out[outside] = _part_products(xa[outside], _rows(_fcn_rows, y, rho, q, True))
    return out


def _phi_rows(p, product=False):
    """phi_cond / f_N's route, as _fcn_rows's; both neighbors add into one series in u."""
    q, r1, r2 = p.q, p.rho1, p.rho2
    K = _factors_needed(q, _PHI_SCALE)
    J, M = _split(q, K, _PHI_TAIL, max(abs(r1), abs(r2)), product)
    s = math.sqrt(1 - q) / 2
    head = _head(q, J, ((p.y, r1), (p.z, r2)), r1 * r2) if J else None
    a = _log_series(q, J, M, s * p.y, r1, s * p.z, r2, r1 * r2) if M else None
    return J + M, head, s, a


def _phi_plan(p):
    """phi_cond's mean and variance at q = 1 and its rho-part's _rows key, None if uncorrelated."""
    r1sq, r2sq = p.rho1 * p.rho1, p.rho2 * p.rho2
    den = 1 - r1sq * r2sq
    mu = (p.y * p.rho1 * (1 - r2sq) + p.z * p.rho2 * (1 - r1sq)) / den
    rows = None if p.rho1 == 0 and p.rho2 == 0 else (_phi_rows, p)
    return mu, (1 - r1sq) * (1 - r2sq) / den, rows


def phi_cond_values(x, p: CondDensityParams):
    """Two-sided conditional density on a numpy array of points.

    The law of a coordinate given neighbor values y (correlation rho1) and
    z (correlation rho2).  This is the orthogonality density of the
    Askey-Wilson family built by ``map_params`` from the same bundle.
    """
    _check_params(p.q, p.rho1, p.rho2, y=p.y, z=p.z)
    return _density(_finite_points(x), p.q, *_phi_plan(p))[0]


def phi_cond(x, p: CondDensityParams) -> DensityEval:
    """Two-sided conditional density at a single point."""
    _check_params(p.q, p.rho1, p.rho2, y=p.y, z=p.z)
    value, terms = _density(_point(x), p.q, *_phi_plan(p))
    return DensityEval(float(value), terms)


def phi_cond_via_ratio(x, p: CondDensityParams):
    """phi_cond through its Markov factorization, as an independent cross-check.

    phi(x | y, z) = f_CN(x | y, rho1) f_CN(z | x, rho2) / f_CN(z | y, rho1 rho2).
    The middle point x becomes a conditioning value in the second factor, so
    points on or outside the support boundary return 0 directly.
    """
    q = p.q
    _check_params(q, p.rho1, p.rho2, y=p.y, z=p.z)
    x = _point(x)
    if not abs(x) < _half_width(q):
        return 0.0
    num1 = f_CN(x, p.y, p.rho1, q).value
    num2 = f_CN(p.z, x, p.rho2, q).value
    den = f_CN(p.z, p.y, p.rho1 * p.rho2, q).value
    # num1 * num2 can underflow where the quotient is still a normal float
    return num1 * (num2 / den)


def f_N_q0(x):
    """Semicircle closed form of f_N at q = 0."""
    x = _point(x)
    if not -2 < x < 2:
        return 0.0
    return math.sqrt(4 - x * x) / _TWO_PI


def f_CN_q0(x, y, rho):
    """Closed form of f_CN at q = 0: one quadratic factor against the semicircle."""
    _check_params(0, rho, y=y)
    base = f_N_q0(x)
    if not -2 < x < 2:
        return 0.0
    return base * (1 - rho * rho) / w_factor(x, y, rho, 0)


def phi_q0(x, p: CondDensityParams):
    """Closed form of phi_cond at q = 0."""
    if p.q != 0:
        raise DomainError("phi_q0 is the q = 0 closed form; build the bundle with q = 0")
    _check_params(0, p.rho1, p.rho2, y=p.y, z=p.z)
    base = f_N_q0(x)
    if not -2 < x < 2:
        return 0.0
    r1sq = p.rho1 * p.rho1
    r2sq = p.rho2 * p.rho2
    pref = (1 - r1sq) * (1 - r2sq) / (1 - r1sq * r2sq)
    return (
        base
        * pref
        * w_factor(p.y, p.z, p.rho1 * p.rho2, 0)
        / (w_factor(x, p.y, p.rho1, 0) * w_factor(x, p.z, p.rho2, 0))
    )


def fcn_ratio_bounds(y, rho, q):
    """Uniform-in-x bounds (lower, upper) for the ratio f_CN(x|y,rho,q) / f_N(x).

    The upper bound (rho**2; q)_inf / (|rho|; q)_inf**4 comes from the
    pointwise factor bound w_k >= (1 - |rho| q**k)**4 on the closed support.
    The lower bound maximizes each w_k over the support interval instead;
    each factor is convex in x, so the maximum sits at an endpoint, where
    w_k collapses to the perfect square

        ((1 + rho**2 q**(2k)) + sqrt(1-q) |rho q**k y|)**2.

    Both bounds hold for every x strictly inside the support, up to the
    truncation tolerance _REL_TOL.
    """
    _check_params(q, rho, y=y)
    _check_below_one(q, "the ratio bounds")
    if rho == 0:
        return 1.0, 1.0
    num = q_pochhammer_inf(rho * rho, q)
    upper = num / q_pochhammer_inf(abs(rho), q) ** 4
    rk = rho * _powers(q, _BOUND_SCALE)[1]
    den = ((1 + rk * rk) + math.sqrt(1 - q) * np.abs(rk) * abs(y)) ** 2
    lower = num / float(np.prod(den))
    return float(lower), float(upper)
