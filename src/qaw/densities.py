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

summed for 0 < q <= 0.99 by Jacobi's imaginary transformation: with
L = -ln(q) / 2 it is a wrapped Gaussian whose n-th term is smaller than
the first by about e**(-n**2 pi**2 / L), so M = 1 term serves at q = 0.9
and 0.99, 2 at q = 0.1 and 0.5, 3 at q = 0.01.  For q <= 0, and for
0 < q below about 2e-4, where the series is the longer, f_N is its
product, like the rho-parts.  Products are cut after K factors where K
is chosen so the dropped tail perturbs the value by less than the
policy's relative tolerance: each factor is 1 + O(C q**k), so K solves
C |q|**K / (1 - |q|) <= rel_tol with a conservative per-density constant
C.  Each product reads its row q**k, k < K, from one cache of 32
read-only rows (``_powers``), ``_theta`` caches f_N's route for 32 bases
(the series' M decay rates, or the product's (1 + q**k)**2 row), and
``_rows`` the x-free rows of the last four rho-parts, at most about
1.3 MB (K = 10000, the default term cap).

A point call hands the evaluator a float: a Python comparison tests the
support, the series runs its ufuncs on numpy scalars and each product
reduces one (1, K) row.  An array is masked once, gathered and scattered
only if a point is off the support, and its products run over blocks of
at most 16384 elements: memory is O(points) whatever K is.  Terms add and
factors multiply in order either way, so for q < 1 a grid value equals
the point call bit for bit (f_N's q = 1 call uses math.exp).

Scalar entry points return a ``DensityEval``, whose ``terms`` counts the
terms or factors of the last series or product run (the rho-part's K if
there is one, else f_N's M or K), 0 off the open support and at q = 1;
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
    DEFAULT_POLICY,
    DomainError,
    QParam,
    TruncationError,
    TruncationPolicy,
    _check_below_one,
    _check_finite,
    _check_product_base,
    _check_rho,
    q_pochhammer_inf,
)
from .awpoly import CondDensityParams

__all__ = [
    "SupportInterval",
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


@dataclass(frozen=True)
class SupportInterval:
    lo: float
    hi: float

    @classmethod
    def for_q(cls, q):
        """Orthogonality interval for base q: +-2/sqrt(1-q), all of R at q = 1."""
        QParam(q)
        return cls(-_half_width(q), _half_width(q))

    @property
    def half_width(self):
        return self.hi

    def contains(self, x):
        return self.lo <= x <= self.hi

    def strictly_contains(self, x):
        return self.lo < x < self.hi


def _half_width(q):
    return math.inf if q == 1 else 2 / math.sqrt(1 - q)


@dataclass(frozen=True)
class DensityEval:
    """A density value and the count of terms summed or factors multiplied for it.

    terms is the rho-part's product length K when the density has one,
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


def _factors_needed(q, policy, scale):
    """Smallest K with scale * |q|**K / (1 - |q|) below the relative tolerance."""
    aq = abs(q)
    if aq == 0:
        return 1
    target = policy.rel_tol * (1 - aq) / scale
    if target >= 1:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(aq)))


def _check_cap(needed, policy, what):
    """TruncationError naming what if needed terms exceed the policy's term cap."""
    if needed > policy.max_terms:
        raise TruncationError(f"{what}, above the cap {policy.max_terms}")


# C per product: f_N, fcn_ratio_bounds' lower bound, f_CN / f_N, phi_cond / f_N
_FN_SCALE, _BOUND_SCALE, _FCN_SCALE, _PHI_SCALE = 8.0, 16.0, 32.0, 96.0


@lru_cache(maxsize=32)
def _powers(q, policy, scale):
    """(K, the read-only row q**k for k < K) of the product with constant scale."""
    K = _factors_needed(q, policy, scale)
    _check_cap(K, policy, f"density product needs {K} factors")
    qk = np.power(float(q), np.arange(K))
    qk.flags.writeable = False
    return K, qk


def _theta_series(q, policy):
    """(coef, M, (s, L), rates) of f_N's wrapped-Gaussian series at 0 < q <= 0.99.

    s = sqrt(1-q) / 2, L = -ln(q) / 2, coef = sqrt(1-q) sqrt(pi/L) /
    (2 pi q**(1/8)) and rates[n] = 2 pi (2n + 1) / L; M is the smallest n with
    (2n + 1) e**(-n**2 pi**2 / L) below the relative tolerance, which bounds
    the first dropped term against the n = 0 one.
    """
    _check_product_base(q)  # f_N keeps the product's domain for now
    L = -math.log(q) / 2
    M = 1
    while (2 * M + 1) * math.exp(-M * M * math.pi * math.pi / L) > policy.rel_tol:
        M += 1
    coef = math.sqrt(1 - q) * math.sqrt(math.pi / L) / (_TWO_PI * q**0.125)
    rates = _TWO_PI * (2 * np.arange(M) + 1) / L
    rates.flags.writeable = False
    return coef, M, (math.sqrt(1 - q) / 2, L), rates


def _theta_product(q, policy):
    """(coef, K, qk, head) of f_N's product: its constant, K, the q**k row and (1 + q**k)**2."""
    coef = math.sqrt(1 - q) * q_pochhammer_inf(q, q, policy) / _TWO_PI
    K, qk = _powers(q, policy, _FN_SCALE)
    head = (1 + qk) ** 2
    head.flags.writeable = False
    return coef, K, qk, head


@lru_cache(maxsize=32)
def _theta(q, policy):
    """f_N's route at q < 1, read by _f_N_inside: its series or its product.

    The series for q > 0 wherever it needs fewer terms than the product
    needs factors (M = 1 to 4 from q = 0.99 down to about 2e-4); the
    product for q <= 0 and near 0.  Only the chosen count meets the cap.
    """
    if q > 0:
        series = _theta_series(q, policy)
        M = series[1]
        if M < _factors_needed(q, policy, _FN_SCALE):
            _check_cap(M, policy, f"the theta series needs {M} terms")
            return series
    return _theta_product(q, policy)


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


def _w_coeffs(rho, q, qk):
    # the parts of w_factor(x, y, rho, q, k) free of x and y, one entry per
    # power qk = q**k; _w_block combines them in w_factor's order of operations
    r = rho * qk
    rsq = r * r
    return (1 - rsq) ** 2, (1 - q) * r * (1 + rsq), (1 - q) * rsq


def _w_block(x, y, coeffs, out, scratch):
    # a - b * x * y + c * (x * x + y * y), written into out
    a, b, c = coeffs
    np.multiply(b, x, out=out)
    np.multiply(out, y, out=out)
    np.subtract(a, out, out=out)
    out += np.multiply(c, x * x + y * y, out=scratch)
    return out


def _check_params(q, *rhos, **points):
    """DomainError unless q, each |rho| < 1 and each named conditioning point suit a density.

    An exact fraction (a Rational but not an integer) or a numpy array is
    refused: the products are float-only, and _rows hashes the parameters.
    Plain type tests, so a point call does no numpy work here.
    """
    QParam(q)
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
    """build(*key) with every array read-only; key is (y, rho, q, policy) or (bundle, policy)."""
    part = _, num, den, pairs = build(*key)
    for row in (num, den, *(c for _, w in pairs for c in w)):
        if row is not None:
            row.flags.writeable = False
    return part


def _part_products(xs, part):
    """The product over k of num / (w(x, y1) den w(x, y2)) at xs, a float or an array.

    part is (K, num, den or None, one (y, _w_coeffs) pair per neighbor).
    """
    K, num, den, ((y1, w1), *rest) = part

    def factors(t, f, scratch, *more):
        _w_block(t, y1, w1, f, scratch)
        if den is not None:
            f *= den
        for (y, w), g in zip(rest, more):
            f *= _w_block(t, y, w, g, scratch)
        return np.divide(num, f, out=f)

    return _point_products(factors, xs, K, 2 + len(rest))


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
    or _theta_product's, whose third entry is the q**k row.
    """
    coef, terms, consts, row = theta
    if isinstance(consts, tuple):
        return coef * _series_sum(xs, q, *consts, row)

    def factors(t, f):
        np.multiply((1 - q) * t * t, consts, out=f)
        return np.subtract(row, f, out=f)

    return coef * _point_products(factors, xs, terms, 1) / np.sqrt(4 - (1 - q) * xs * xs)


def _density(x, q, policy, mu, var, part=None):
    """(value, terms) of a density at x, a Python float or a float array.

    N(mu, var) at q = 1; else f_N times the product of the rho-part whose
    rows _rows(*part) looks up once a point lies strictly inside the
    support.  terms is the count of the last series or product run, 0 if
    none ran.
    """
    if q == 1:
        return np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(_TWO_PI * var), 0
    theta = _theta(q, policy)
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


def f_N_values(x, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Stationary density on a numpy array of points."""
    _check_params(q)
    return _density(_finite_points(x), q, policy, 0, 1)[0]


def f_N(x, q, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:
    """Stationary density at a single point."""
    _check_params(q)
    x = _point(x)
    if q == 1:
        return DensityEval(math.exp(-0.5 * x * x) / math.sqrt(_TWO_PI), 0)
    value, terms = _density(x, q, policy, 0, 1)
    return DensityEval(float(value), terms)


def _fcn_rows(y, rho, q, policy):
    K, qk = _powers(q, policy, _FCN_SCALE)
    return K, 1 - rho * rho * qk, None, ((y, _w_coeffs(rho, q, qk)),)


def _fcn_plan(y, rho, q, policy):
    """f_CN's mean and variance at q = 1 and its rho-part's _rows key, None at rho = 0."""
    return rho * y, 1 - rho * rho, None if rho == 0 else (_fcn_rows, y, rho, q, policy)


def f_CN_values(x, y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Conditional density given a neighbor value y, on a numpy array of points."""
    _check_params(q, rho, y=y)
    return _density(_finite_points(x), q, policy, *_fcn_plan(y, rho, q, policy))[0]


def f_CN(x, y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:
    """Conditional density at a single point given neighbor value y."""
    _check_params(q, rho, y=y)
    value, terms = _density(_point(x), q, policy, *_fcn_plan(y, rho, q, policy))
    return DensityEval(float(value), terms)


def cond_ratio_values(x, y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Vectorized ratio f_CN(x | y, rho, q) / f_N(x), symmetric in x and y.

    Requires q < 1 and a strictly interior conditioning point y; under those
    conditions every product factor is positive for all real x, so the ratio
    is well defined even where the densities themselves vanish.
    """
    _check_params(q, rho, y=y)
    _check_below_one(q, "the product-form ratio")
    xa = _finite_points(x)
    if rho == 0:
        return np.ones_like(xa)
    return _part_products(xa, _rows(_fcn_rows, y, rho, q, policy))


def _phi_rows(p, policy):
    r1sq, r2sq = p.rho1 * p.rho1, p.rho2 * p.rho2
    K, qk = _powers(p.q, policy, _PHI_SCALE)
    w12 = _w_block(p.y, p.z, _w_coeffs(p.rho1 * p.rho2, p.q, qk), np.empty(K), np.empty(K))
    num = (1 - r1sq * qk) * (1 - r2sq * qk) * w12
    pairs = ((p.y, _w_coeffs(p.rho1, p.q, qk)), (p.z, _w_coeffs(p.rho2, p.q, qk)))
    return K, num, 1 - r1sq * r2sq * qk, pairs


def _phi_plan(p, policy):
    """phi_cond's mean and variance at q = 1 and its rho-part's _rows key, None if uncorrelated."""
    r1sq, r2sq = p.rho1 * p.rho1, p.rho2 * p.rho2
    den = 1 - r1sq * r2sq
    mu = (p.y * p.rho1 * (1 - r2sq) + p.z * p.rho2 * (1 - r1sq)) / den
    rows = None if p.rho1 == 0 and p.rho2 == 0 else (_phi_rows, p, policy)
    return mu, (1 - r1sq) * (1 - r2sq) / den, rows


def phi_cond_values(x, p: CondDensityParams, policy: TruncationPolicy = DEFAULT_POLICY):
    """Two-sided conditional density on a numpy array of points.

    The law of a coordinate given neighbor values y (correlation rho1) and
    z (correlation rho2).  This is the orthogonality density of the
    Askey-Wilson family built by ``map_params`` from the same bundle.
    """
    _check_params(p.q, p.rho1, p.rho2, y=p.y, z=p.z)
    return _density(_finite_points(x), p.q, policy, *_phi_plan(p, policy))[0]


def phi_cond(x, p: CondDensityParams, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:
    """Two-sided conditional density at a single point."""
    _check_params(p.q, p.rho1, p.rho2, y=p.y, z=p.z)
    value, terms = _density(_point(x), p.q, policy, *_phi_plan(p, policy))
    return DensityEval(float(value), terms)


def phi_cond_via_ratio(x, p: CondDensityParams, policy: TruncationPolicy = DEFAULT_POLICY):
    """phi_cond through its Markov factorization, as an independent cross-check.

    phi(x | y, z) = f_CN(x | y, rho1) f_CN(z | x, rho2) / f_CN(z | y, rho1 rho2).
    The middle point x becomes a conditioning value in the second factor, so
    points on or outside the support boundary return 0 directly.
    """
    q = p.q
    _check_params(q, p.rho1, p.rho2, y=p.y, z=p.z)
    x = _point(x)
    if not SupportInterval.for_q(q).strictly_contains(x):
        return 0.0
    num1 = f_CN(x, p.y, p.rho1, q, policy).value
    num2 = f_CN(p.z, x, p.rho2, q, policy).value
    den = f_CN(p.z, p.y, p.rho1 * p.rho2, q, policy).value
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


def fcn_ratio_bounds(y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Uniform-in-x bounds (lower, upper) for the ratio f_CN(x|y,rho,q) / f_N(x).

    The upper bound (rho**2; q)_inf / (|rho|; q)_inf**4 comes from the
    pointwise factor bound w_k >= (1 - |rho| q**k)**4 on the closed support.
    The lower bound maximizes each w_k over the support interval instead;
    each factor is convex in x, so the maximum sits at an endpoint, where
    w_k collapses to the perfect square

        ((1 + rho**2 q**(2k)) + sqrt(1-q) |rho q**k y|)**2.

    Both bounds hold for every x strictly inside the support, up to the
    truncation tolerance of the policy.
    """
    _check_params(q, rho, y=y)
    _check_below_one(q, "the ratio bounds")
    if rho == 0:
        return 1.0, 1.0
    num = q_pochhammer_inf(rho * rho, q, policy)
    upper = num / q_pochhammer_inf(abs(rho), q, policy) ** 4
    rk = rho * _powers(q, policy, _BOUND_SCALE)[1]
    den = ((1 + rk * rk) + math.sqrt(1 - q) * np.abs(rk) * abs(y)) ** 2
    lower = num / float(np.prod(den))
    return float(lower), float(upper)
