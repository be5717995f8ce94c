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

Every density is an infinite product over powers of q.  Products are cut
after K factors where K is chosen so the dropped tail perturbs the value
by less than the policy's relative tolerance: each factor is
1 + O(C q**k), so K solves C |q|**K / (1 - |q|) <= rel_tol with a
conservative per-density constant C.  Evaluations report the K they used.
Each product reads its row q**k, k < K, from one cache of 32 read-only
rows (``_powers``), at most about 1.05 MB at |q| <= 0.99.

Array evaluations form the products over blocks of points, writing each
block's factors into the same few (points, K) buffers of at most 16384
elements, so memory is O(points) and does not grow with K times the point
count.  Each product still multiplies its K factors in order, so a value
does not depend on the block it fell in: for q < 1 a grid value equals
the single-point value bit for bit (f_N's q = 1 point call uses math.exp).

Scalar entry points return a ``DensityEval``; the ``*_values`` companions
evaluate on numpy arrays and return bare arrays (used heavily by the
quadrature suite).  Points on or outside the support boundary get density
exactly 0; a nan or infinite point raises ``DomainError``.  Conditioning
points must be strictly interior.  The products run in float arithmetic
only: an exact fraction (say a ``Fraction`` base or correlation) raises
``DomainError``; integers and floats are accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Rational

import numpy as np

from .qcore import (
    DEFAULT_POLICY,
    DomainError,
    QParam,
    TruncationError,
    TruncationPolicy,
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
        if q == 1:
            return cls(-math.inf, math.inf)
        half = 2 / math.sqrt(1 - q)
        return cls(-half, half)

    @property
    def half_width(self):
        return self.hi

    def contains(self, x):
        return self.lo <= x <= self.hi

    def strictly_contains(self, x):
        return self.lo < x < self.hi


@dataclass(frozen=True)
class DensityEval:
    """A density value together with the product length that produced it."""

    value: float
    terms: int


def w_factor(x, y, rho, q, k=0):
    """The k-th quadratic product factor coupling x and y at correlation rho.

    Equals the k = 0 factor with rho replaced by rho * q**k:

        (1 - r**2)**2 - (1-q) r (1 + r**2) x y + (1-q) r**2 (x**2 + y**2)

    with r = rho * q**k.  Positive whenever |rho| < 1 and both points lie in
    the closed support interval; exact over Fraction inputs.
    """
    r = rho * q**k
    rsq = r * r
    return (1 - rsq) ** 2 - (1 - q) * r * (1 + rsq) * x * y + (1 - q) * rsq * (x * x + y * y)


def _product_length(q, policy, scale):
    """Smallest K with scale * |q|**K / (1 - |q|) below the relative tolerance."""
    aq = abs(q)
    if aq == 0:
        return 1
    target = policy.rel_tol * (1 - aq) / scale
    if target >= 1:
        return 1
    needed = max(1, math.ceil(math.log(target) / math.log(aq)))
    if needed > policy.max_terms:
        raise TruncationError(
            f"density product needs {needed} factors, above the cap {policy.max_terms}"
        )
    return needed


# C per product: f_N, fcn_ratio_bounds' lower bound, f_CN / f_N, phi_cond / f_N
_FN_SCALE, _BOUND_SCALE, _FCN_SCALE, _PHI_SCALE = 8.0, 16.0, 32.0, 96.0


@lru_cache(maxsize=128)
def _fn_coef(q, policy):
    return math.sqrt(1 - q) * q_pochhammer_inf(q, q, policy) / _TWO_PI


@lru_cache(maxsize=32)
def _powers(q, policy, scale):
    """(K, the read-only row q**k for k < K) of the product with constant scale."""
    K = _product_length(q, policy, scale)
    qk = np.power(float(q), np.arange(K))
    qk.flags.writeable = False
    return K, qk


def _terms(x, q, policy, scale):
    """DensityEval.terms: 0 at q = 1 or off the open support, else the product's K."""
    if q == 1 or not SupportInterval.for_q(q).strictly_contains(x):
        return 0
    return _powers(q, policy, scale)[0]


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
    every product keeps its bits.  The result has the shape of xs.
    """
    col = xs.reshape(-1, 1)
    n = len(col)
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


def _check_interior(name, value, q):
    if q == 1:
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
        return
    if not SupportInterval.for_q(q).strictly_contains(value):
        raise DomainError(
            f"{name}={value!r} must lie strictly inside the support interval for q={q!r}"
        )


def _finite_points(x):
    """x as a float array; DomainError if any point is nan or infinite."""
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise DomainError("evaluation points must be finite")
    return xa


def _check_float(*values):
    """DomainError if a value is an exact fraction, a Rational but not an integer.

    The densities are float-only infinite products, and numpy cannot mix a
    Fraction into them.  Plain type tests, so a point call does no numpy
    work here.
    """
    for v in values:
        if type(v) is not float and isinstance(v, Rational) and not isinstance(v, Integral):
            raise DomainError(f"the densities take float parameters, got the exact value {v!r}")


def _check_rho(name, value):
    if not -1 < value < 1:
        raise DomainError(f"{name} must satisfy |rho| < 1, got {value!r}")


def _f_N_masked(xa, q, policy):
    """(values, inside_mask) for a float array xa, with 0 outside the support."""
    coef = _fn_coef(q, policy)
    K, qk = _powers(q, policy, _FN_SCALE)
    half = 2 / math.sqrt(1 - q)
    inside = (xa > -half) & (xa < half)
    out = np.zeros_like(xa)
    if np.any(inside):
        xs = xa[inside]
        head = (1 + qk) ** 2

        def factors(t, f):
            np.multiply((1 - q) * t * t, qk, out=f)
            return np.subtract(head, f, out=f)

        prod = _point_products(factors, xs, K, 1)
        out[inside] = coef * prod / np.sqrt(4 - (1 - q) * xs * xs)
    return out, inside


def f_N_values(x, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Stationary density on a numpy array of points."""
    QParam(q)
    _check_float(q)
    xa = _finite_points(x)
    if q == 1:
        return np.exp(-0.5 * xa * xa) / math.sqrt(_TWO_PI)
    return _f_N_masked(xa, q, policy)[0]


def f_N(x, q, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:
    """Stationary density at a single point."""
    QParam(q)
    _check_float(q)
    xa = _finite_points(float(x))
    if q == 1:
        return DensityEval(math.exp(-0.5 * x * x) / math.sqrt(_TWO_PI), 0)
    return DensityEval(float(_f_N_masked(xa, q, policy)[0]), _terms(x, q, policy, _FN_SCALE))


def f_CN_values(x, y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Conditional density given a neighbor value y, on a numpy array of points."""
    QParam(q)
    _check_float(y, rho, q)
    _check_rho("rho", rho)
    _check_interior("y", y, q)
    xa = _finite_points(x)
    if q == 1:
        var = 1 - rho * rho
        return np.exp(-0.5 * (xa - rho * y) ** 2 / var) / math.sqrt(_TWO_PI * var)
    base, inside = _f_N_masked(xa, q, policy)
    if rho == 0 or not np.any(inside):
        return base
    base[inside] *= _ratio_product(xa[inside], y, rho, q, policy)
    return base


def _ratio_product(xa, y, rho, q, policy):
    K, qk = _powers(q, policy, _FCN_SCALE)
    head = 1 - rho * rho * qk
    w = _w_coeffs(rho, q, qk)

    def factors(t, f, scratch):
        return np.divide(head, _w_block(t, y, w, f, scratch), out=f)

    return _point_products(factors, xa, K, 2)


def cond_ratio_values(x, y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY):
    """Vectorized ratio f_CN(x | y, rho, q) / f_N(x), symmetric in x and y.

    Requires q < 1 and a strictly interior conditioning point y; under those
    conditions every product factor is positive for all real x, so the ratio
    is well defined even where the densities themselves vanish.
    """
    QParam(q)
    _check_float(y, rho, q)
    if q == 1:
        raise DomainError("the product-form ratio is defined for q < 1 only")
    _check_rho("rho", rho)
    _check_interior("y", y, q)
    xa = _finite_points(x)
    if rho == 0:
        return np.ones_like(xa)
    return _ratio_product(xa, y, rho, q, policy)


def f_CN(x, y, rho, q, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:
    """Conditional density at a single point given neighbor value y."""
    value = float(f_CN_values(np.asarray(float(x)), y, rho, q, policy))
    return DensityEval(value, _terms(x, q, policy, _FN_SCALE if rho == 0 else _FCN_SCALE))


def phi_cond_values(x, p: CondDensityParams, policy: TruncationPolicy = DEFAULT_POLICY):
    """Two-sided conditional density on a numpy array of points.

    The law of a coordinate given neighbor values y (correlation rho1) and
    z (correlation rho2).  This is the orthogonality density of the
    Askey-Wilson family built by ``map_params`` from the same bundle.
    """
    q = p.q
    _check_float(p.y, p.rho1, p.z, p.rho2, q)
    _check_interior("y", p.y, q)
    _check_interior("z", p.z, q)
    xa = _finite_points(x)
    if q == 1:
        mu, var = _phi_gaussian_moments(p)
        return np.exp(-0.5 * (xa - mu) ** 2 / var) / math.sqrt(_TWO_PI * var)
    base, inside = _f_N_masked(xa, q, policy)
    if (p.rho1 == 0 and p.rho2 == 0) or not np.any(inside):
        return base
    K, qk = _powers(q, policy, _PHI_SCALE)
    r1sq = p.rho1 * p.rho1
    r2sq = p.rho2 * p.rho2
    w12 = _w_block(p.y, p.z, _w_coeffs(p.rho1 * p.rho2, q, qk), np.empty(K), np.empty(K))
    num = (1 - r1sq * qk) * (1 - r2sq * qk) * w12
    head = 1 - r1sq * r2sq * qk
    w1 = _w_coeffs(p.rho1, q, qk)
    w2 = _w_coeffs(p.rho2, q, qk)

    def factors(t, f, g, scratch):
        np.multiply(head, _w_block(t, p.y, w1, f, scratch), out=f)
        np.multiply(f, _w_block(t, p.z, w2, g, scratch), out=f)
        return np.divide(num, f, out=f)

    base[inside] *= _point_products(factors, xa[inside], K, 3)
    return base


def phi_cond(x, p: CondDensityParams, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:
    """Two-sided conditional density at a single point."""
    value = float(phi_cond_values(np.asarray(float(x)), p, policy))
    scale = _FN_SCALE if p.rho1 == 0 and p.rho2 == 0 else _PHI_SCALE
    return DensityEval(value, _terms(x, p.q, policy, scale))


def _phi_gaussian_moments(p: CondDensityParams):
    r1sq = p.rho1 * p.rho1
    r2sq = p.rho2 * p.rho2
    den = 1 - r1sq * r2sq
    mu = (p.y * p.rho1 * (1 - r2sq) + p.z * p.rho2 * (1 - r1sq)) / den
    var = (1 - r1sq) * (1 - r2sq) / den
    return mu, var


def phi_cond_via_ratio(x, p: CondDensityParams, policy: TruncationPolicy = DEFAULT_POLICY):
    """phi_cond through its Markov factorization, as an independent cross-check.

    phi(x | y, z) = f_CN(x | y, rho1) f_CN(z | x, rho2) / f_CN(z | y, rho1 rho2).
    The middle point x becomes a conditioning value in the second factor, so
    points on or outside the support boundary return 0 directly.
    """
    q = p.q
    _check_interior("y", p.y, q)
    _check_interior("z", p.z, q)
    _finite_points(x)
    if q != 1 and not SupportInterval.for_q(q).strictly_contains(x):
        return 0.0
    num1 = f_CN(x, p.y, p.rho1, q, policy).value
    num2 = f_CN(p.z, x, p.rho2, q, policy).value
    den = f_CN(p.z, p.y, p.rho1 * p.rho2, q, policy).value
    # num1 * num2 can underflow where the quotient is still a normal float
    return num1 * (num2 / den)


def f_N_q0(x):
    """Semicircle closed form of f_N at q = 0."""
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    if not -2 < x < 2:
        return 0.0
    return math.sqrt(4 - x * x) / _TWO_PI


def f_CN_q0(x, y, rho):
    """Closed form of f_CN at q = 0: one quadratic factor against the semicircle."""
    _check_rho("rho", rho)
    _check_interior("y", y, 0)
    base = f_N_q0(x)
    if not -2 < x < 2:
        return 0.0
    return base * (1 - rho * rho) / w_factor(x, y, rho, 0)


def phi_q0(x, p: CondDensityParams):
    """Closed form of phi_cond at q = 0."""
    if p.q != 0:
        raise DomainError("phi_q0 is the q = 0 closed form; build the bundle with q = 0")
    _check_interior("y", p.y, 0)
    _check_interior("z", p.z, 0)
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
    QParam(q)
    if q == 1:
        raise DomainError("the ratio bounds are defined for q < 1 only")
    _check_rho("rho", rho)
    _check_interior("y", y, q)
    if rho == 0:
        return 1.0, 1.0
    num = q_pochhammer_inf(rho * rho, q, policy)
    upper = num / q_pochhammer_inf(abs(rho), q, policy) ** 4
    rk = rho * _powers(q, policy, _BOUND_SCALE)[1]
    den = ((1 + rk * rk) + math.sqrt(1 - q) * np.abs(rk) * abs(y)) ** 2
    lower = num / float(np.prod(den))
    return float(lower), float(upper)
