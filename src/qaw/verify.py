"""Quadrature on the q-Hermite support and the executable check suite.

``integrate_on_S`` integrates over the orthogonality interval S(q) after
the substitution x = (2/sqrt(1-q)) cos(theta).  The square-root factor in
the stationary density cancels against the Jacobian, so every integrand
this package produces becomes periodic and analytic in theta and a
doubling trapezoid rule converges geometrically.  Integrands may be
vector valued (return shape (k, npoints) for simultaneous integration of
k components); the error control then applies to the worst component.

The ``check_*`` functions each verify one identity by quadrature or by
series/grid comparison and return ``CheckReport`` rows.  ``run_suite``
executes a configured selection over deterministic parameter grids and
returns an ordered report; serialize it with ``report_to_json`` or
``report_to_text``.  Identical configurations produce byte-identical
serialized reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    DomainError,
    _check_base,
    _check_below_one,
    _check_entries,
    _check_order,
    _check_real,
    _sn_series,
    q_binomial_row,
    q_factorial,
    q_pochhammer,
    q_pochhammer_inf,
    q_pochhammer_seq,
)
from .polyfam import asc_P_seq, hermite_H_seq
from .awpoly import CondDensityParams, aw_A_sym_seq, aw_prefactor
from .densities import (
    _half_width,
    cond_ratio_values,
    f_CN,
    f_CN_values,
    f_N,
    f_N_values,
    fcn_ratio_bounds,
    phi_cond_values,
    support_half_width,
)
from .moments import c_n_seq, gamma_mk_partial, phi_expansion_partial

__all__ = [
    "QuadratureEstimate",
    "CheckReport",
    "integrate_on_S",
    "check_normalization",
    "check_orthogonality_H",
    "check_cond_expectation",
    "check_orthogonality_P",
    "check_chapman_kolmogorov",
    "check_sn_series",
    "check_aw_orthogonality",
    "check_moments",
    "check_vnm",
    "check_ratio_bounds",
    "check_poisson_mehler",
    "check_density_expansion",
    "SuiteConfig",
    "CHECK_NAMES",
    "run_suite",
    "report_to_json",
    "report_to_text",
]

_GAUSSIAN_CUTOFF = 12.0


@dataclass(frozen=True)
class QuadratureEstimate:
    value: object
    abs_error_estimate: float
    evaluations: int


@dataclass
class CheckReport:
    name: str
    params: dict
    residual: float
    tolerance: float
    passed: bool


def _report(name, params, residual, tolerance):
    residual = float(residual)
    return CheckReport(name, params, residual, float(tolerance), residual <= tolerance)


def _quadrature(name, q, tol, integrand, rows):
    """Integrate a stacked integrand once; one report per (params, target) row.

    Component i of the integrand is held to the target of rows[i]; the
    integral runs at a twentieth of the check tolerance.  A level of points
    x whose stacked values, one a row and point, would pass the table budget
    raises TruncationError before the integrand runs.
    """

    def level(x):
        _check_entries(len(rows) * np.size(x), f"the {name} values of {np.size(x)} points")
        return integrand(x)

    value = integrate_on_S(level, q, tol / 20).value
    return [
        _report(name, params, abs(v - target), tol)
        for v, (params, target) in zip(np.atleast_1d(value), rows, strict=True)
    ]


def integrate_on_S(f, q, target_tol=1e-10):
    """Trapezoid-rule integral of f over the support interval.

    For q < 1 the substitution x = (2/sqrt(1-q)) cos(theta) maps S(q) to
    theta in [0, pi], where every integrand this package builds is even,
    2pi-periodic and analytic, and vanishes at both ends: the trapezoid
    rule converges geometrically.  At q = 1 the rule is uniform on
    |x| <= 12, where the Gaussian tails are below exp(-72).  f is evaluated
    at interior nodes only.

    The first call of f takes the 63 interior nodes of 64 intervals: the
    odd-indexed ones are the 31 of 32 intervals, the even-indexed ones
    their midpoints, so both levels come from one call.  From there the
    rule doubles, one call a level for its new midpoints, until two levels
    differ by at most target_tol or by a roundoff floor growing like
    sqrt(N); target_tol <= 0 asks for the floor.  Each later level's new
    points are held to the table budget before f runs, so N = 2**20 is
    the last level.  DomainError on a non-finite or complex target_tol;
    TruncationError past the last level.
    """
    _check_base(q)
    _check_real(target_tol)
    if q == 1:
        lo, width = -_GAUSSIAN_CUTOFF, 2 * _GAUSSIAN_CUTOFF

        def g(t):
            return np.asarray(f(t), dtype=float)

    else:
        half = _half_width(q)
        lo, width = 0.0, math.pi

        def g(t):
            return np.asarray(f(half * np.cos(t)), dtype=float) * (half * np.sin(t))

    n, h = 32, width / 32
    nodes = g(lo + (h / 2) * np.arange(1, 2 * n))  # the 63 interior nodes of 64 intervals
    total = nodes[..., 1::2].sum(axis=-1)
    value = h * total
    new = nodes[..., 0::2]
    while True:
        total = total + new.sum(axis=-1)
        n, h = 2 * n, h / 2
        coarse, value = value, h * total
        delta = float(np.max(np.abs(value - coarse)))
        scale = 1.0 + float(np.max(np.abs(value)))
        if delta <= max(target_tol, 4e-16 * scale * math.sqrt(n)):
            break
        _check_entries(n, f"the new points of {2 * n} trapezoid intervals")
        new = g(lo + h * (np.arange(n) + 0.5))
    return QuadratureEstimate(float(value) if value.ndim == 0 else value, delta, n - 1)


def _bundle_dict(p: CondDensityParams):
    return {"y": p.y, "rho1": p.rho1, "z": p.z, "rho2": p.rho2, "q": p.q}


# --- individual checks --------------------------------------------------------


def check_normalization(p: CondDensityParams, tol):
    """All three densities integrate to 1 over the support."""
    q = p.q

    def integrand(x):
        return np.stack(
            [
                f_N_values(x, q),
                f_CN_values(x, p.y, p.rho1, q),
                phi_cond_values(x, p),
            ]
        )

    rows = [
        ({"density": "f_N", "q": q}, 1),
        ({"density": "f_CN", "y": p.y, "rho": p.rho1, "q": q}, 1),
        ({"density": "phi", **_bundle_dict(p)}, 1),
    ]
    return _quadrature("normalization", q, tol, integrand, rows)


def _pair_indices(nmax):
    _check_order(nmax)  # then the first quadrature call's 63 points a pair, before the pairs
    _check_entries(63 * (nmax + 1) * (nmax + 2) // 2, f"63 points of each order pair up to {nmax}")
    return [(n, m) for n in range(nmax + 1) for m in range(n, nmax + 1)]


def check_orthogonality_H(nmax, q, tol):
    """Pairwise q-Hermite integrals against f_N: diagonal [n]_q!, zero off it."""
    pairs = _pair_indices(nmax)

    def integrand(x):
        H = hermite_H_seq(nmax, x, q)
        fn = f_N_values(x, q)
        return np.stack([H[n] * H[m] * fn for n, m in pairs])

    rows = [({"n": n, "m": m, "q": q}, q_factorial(n, q) if n == m else 0.0) for n, m in pairs]
    return _quadrature("orthogonality_H", q, tol, integrand, rows)


def check_cond_expectation(nmax, y, rho, q, tol):
    """Integrals of H_n against f_CN equal rho**n H_n at the conditioning point."""

    def integrand(x):
        H = hermite_H_seq(nmax, x, q)
        fcn = f_CN_values(x, y, rho, q)
        return np.stack([H[n] * fcn for n in range(nmax + 1)])

    Hy = hermite_H_seq(nmax, y, q)
    rows = [({"n": n, "y": y, "rho": rho, "q": q}, rho**n * Hy[n]) for n in range(nmax + 1)]
    return _quadrature("cond_expectation", q, tol, integrand, rows)


def check_orthogonality_P(nmax, y, rho, q, tol):
    """Al-Salam-Chihara orthogonality against f_CN: diagonal (rho^2; q)_n [n]_q!."""
    pairs = _pair_indices(nmax)

    def integrand(x):
        P = asc_P_seq(nmax, x, y, rho, q)
        fcn = f_CN_values(x, y, rho, q)
        return np.stack([P[n] * P[m] * fcn for n, m in pairs])

    rows = [
        (
            {"n": n, "m": m, "y": y, "rho": rho, "q": q},
            q_pochhammer(rho * rho, q, n) * q_factorial(n, q) if n == m else 0.0,
        )
        for n, m in pairs
    ]
    return _quadrature("orthogonality_P", q, tol, integrand, rows)


def check_chapman_kolmogorov(x, z, rho1, rho2, q, tol):
    """One-step transition densities compose: correlations multiply."""
    fnx = f_N(x, q).value

    def integrand(ys):
        # f_CN(x | y) = f_N(x) * ratio(y, x) by symmetry of the product ratio
        return fnx * cond_ratio_values(ys, x, rho1, q) * f_CN_values(ys, z, rho2, q)

    target = f_CN(x, z, rho1 * rho2, q).value
    params = {"x": x, "z": z, "rho1": rho1, "rho2": rho2, "q": q}
    return _quadrature("chapman_kolmogorov", q, tol, integrand, [(params, target)])[0]


def check_sn_series(t, q, tol):
    """Generating-function identities for the binomial sums s_n.

        sum_i s_i(q) t**i / (q; q)_i   = 1 / (t; q)_inf**2
        sum_i s_i(q)^2 t**i / (q; q)_i = (t**2; q)_inf / (t; q)_inf**4

    Both read qcore's float s_n series, as expansion_terms_needed does.
    """
    _check_real(t)
    if not -1 < t < 1:
        raise DomainError(f"the series identities need |t| < 1, got {t!r}")
    _check_base(q)
    _check_below_one(q, "the series identities")
    S1 = S2 = 0.0
    for i, (s, weight) in enumerate(_sn_series(float(t), float(q))):
        term1, term2 = s * weight, s * s * weight
        S1 += term1
        S2 += term2
        if i >= 4 and abs(term1) < 1e-17 * (1 + abs(S1)) and abs(term2) < 1e-17 * (1 + abs(S2)):
            break
    pt = q_pochhammer_inf(t, q)
    rhs1 = 1 / pt**2
    rhs2 = q_pochhammer_inf(t * t, q) / pt**4
    residual = max(abs(S1 - rhs1), abs(S2 - rhs2))
    return _report("sn_series", {"t": t, "q": q}, residual, tol)


def check_aw_orthogonality(nmax, p: CondDensityParams, tol):
    """Askey-Wilson orthogonality against the two-sided conditional density."""
    pairs = [(n, m) for n, m in _pair_indices(nmax) if m > n]

    def integrand(x):
        A = aw_A_sym_seq(nmax, x, p)
        phi = phi_cond_values(x, p)
        return np.stack([A[n] * A[m] * phi for n, m in pairs])

    rows = [({"n": n, "m": m, **_bundle_dict(p)}, 0) for n, m in pairs]
    return _quadrature("aw_orthogonality", p.q, tol, integrand, rows)


def check_moments(nmax, p: CondDensityParams, tol):
    """Quadrature moments of phi_cond against the closed-form c_n."""

    def integrand(x):
        H = hermite_H_seq(nmax, x, p.q)
        phi = phi_cond_values(x, p)
        return np.stack([H[n] * phi for n in range(nmax + 1)])

    c = c_n_seq(nmax, p)
    rows = [({"n": n, **_bundle_dict(p)}, c[n]) for n in range(nmax + 1)]
    return _quadrature("moments", p.q, tol, integrand, rows)


def check_vnm(n, m, x, z, rho1, rho2, q, tol):
    """Projection of the Askey-Wilson polynomial on an Al-Salam-Chihara level.

    Integrating A_n(x | y, rho1, z, rho2, q) P_m(y | x, rho1, q) against
    f_CN(y | x, rho1, q) over the first conditioning point y gives

        pref(n) (-1)**m q**C(m,2) rho1**m [n]_q!/[n-m]_q!
        P_{n-m}(x | z, rho2, q) / (rho2^2; q)_{n-m}

    for m <= n and 0 for m > n.
    """
    top = max(n, m)
    r1sq = rho1 * rho1
    r2sq = rho2 * rho2
    pref = aw_prefactor(n, rho1, rho2, q)
    Pxz = asc_P_seq(n, x, z, rho2, q)
    poch1 = q_pochhammer_seq(r1sq, q, n)
    poch2 = q_pochhammer_seq(r2sq, q, n)
    row = q_binomial_row(n, q)
    coeff = [
        (-1) ** j
        * q ** math.comb(j, 2)
        * row[j]
        * rho1**j
        * Pxz[n - j]
        / (poch2[n - j] * poch1[j])
        for j in range(n + 1)
    ]

    def integrand(ys):
        Pyx = asc_P_seq(top, ys, x, rho1, q)
        A = pref * sum(c * Pyx[j] for j, c in enumerate(coeff))
        return A * Pyx[m] * f_CN_values(ys, x, rho1, q)

    if m > n:
        target = 0.0
    else:
        target = (
            pref
            * (-1) ** m
            * q ** math.comb(m, 2)
            * rho1**m
            * q_factorial(n, q)
            / q_factorial(n - m, q)
            * Pxz[n - m]
            / poch2[n - m]
        )
    params = {"n": n, "m": m, "x": x, "z": z, "rho1": rho1, "rho2": rho2, "q": q}
    return _quadrature("vnm", q, tol, integrand, [(params, target)])[0]


_RATIO_POINTS = 101
_KERNEL_TERMS = 60
_EXPANSION_TERMS = 40


def check_ratio_bounds(y, rho, q, tol):
    """The f_CN / f_N ratio stays inside its closed-form bounds on a grid."""
    lower, upper = fcn_ratio_bounds(y, rho, q)
    half = support_half_width(q)
    xs = np.linspace(-half, half, _RATIO_POINTS + 2)[1:-1]
    ratio = cond_ratio_values(xs, y, rho, q)
    violation = max(
        0.0,
        float(np.max(lower - ratio)),
        float(np.max(ratio - upper)),
    )
    return _report(
        "ratio_bounds",
        {"y": y, "rho": rho, "q": q, "points": _RATIO_POINTS},
        violation,
        tol,
    )


def check_poisson_mehler(y, rho, q, tol):
    """Partial sums of the Poisson-Mehler kernel converge to f_CN / f_N."""
    half = support_half_width(q)
    xs = np.linspace(-0.9 * half, 0.9 * half, 21)
    partial = f_N_values(xs, q) * gamma_mk_partial(0, 0, xs, y, rho, q, _KERNEL_TERMS)
    target = f_CN_values(xs, y, rho, q)
    residual = float(np.max(np.abs(partial - target)))
    return _report(
        "poisson_mehler",
        {"y": y, "rho": rho, "q": q, "terms": _KERNEL_TERMS},
        residual,
        tol,
    )


def check_density_expansion(p: CondDensityParams, tol):
    """Partial sums of the q-Hermite moment expansion converge to phi_cond."""
    half = support_half_width(p.q)
    xs = np.linspace(-0.9 * half, 0.9 * half, 21)
    partial = phi_expansion_partial(xs, p, _EXPANSION_TERMS)
    target = phi_cond_values(xs, p)
    residual = float(np.max(np.abs(partial - target)))
    return _report(
        "density_expansion",
        {**_bundle_dict(p), "terms": _EXPANSION_TERMS},
        residual,
        tol,
    )


# --- suite --------------------------------------------------------------------


def _scaled_point(q):
    # 0.6 half-widths of S(q), 1.2 at q = 1; 0.6 * _half_width(q) is an ulp off at q = 0.9
    return 1.2 / math.sqrt(1 - q) if q != 1 else 1.2


def _bases(config, max_abs_q):
    return (q for q in config.q_grid if abs(q) <= max_abs_q)


def _bundles(config, max_abs_q=math.inf):
    """Every bundle of the grid whose base satisfies |q| <= max_abs_q."""
    for q in _bases(config, max_abs_q):
        scaled = _scaled_point(q)
        for rho1, rho2 in ((0.3, 0.6), (0.6, 0.6)):
            for y, z in ((0.0, 0.0), (0.5, -0.5), (scaled, -scaled)):
                yield CondDensityParams(y, rho1, z, rho2, q)


_RHO_GRID = (0.0, 0.3, 0.6)


def _conditioned(config, max_abs_q=math.inf, skip_rho0=True):
    """(y, rho, q) rows: strictly interior conditioning values, one fixed and
    one q-scaled, over the correlations _RHO_GRID."""
    for q in _bases(config, max_abs_q):
        for rho in _RHO_GRID:
            if rho != 0 or not skip_rho0:
                for y in (0.5, _scaled_point(q)):
                    yield y, rho, q


def _chapman_kolmogorov_grid(config):
    for q in config.q_grid:
        yield 0.3, -0.5, 0.5, 0.6, q
        yield 0.3, -0.5, 0.3, 0.0, q
    for q in (0.0, 0.3):
        yield 0.8, 0.4, 0.6, 0.3, q


_VNM_ORDERS = ((1, 0), (1, 1), (2, 1), (3, 2), (1, 2))

# check name -> (default tolerance, grid); grid(config) yields the positional
# arguments of check_<name> that precede the tolerance.  run_suite looks the
# check up by name on every run, so a rebound module attribute is honoured.
_SUITE = {
    "normalization": (
        1e-8,
        lambda c: ((CondDensityParams(0.5, 0.3, -0.5, 0.6, q),) for q in c.q_grid),
    ),
    "orthogonality_H": (1e-8, lambda c: ((c.nmax, q) for q in c.q_grid)),
    "cond_expectation": (
        1e-8,
        lambda c: ((c.nmax, *r) for r in _conditioned(c, skip_rho0=False)),
    ),
    # rho = 0 collapses to orthogonality_H, checked separately
    "orthogonality_P": (1e-8, lambda c: ((c.nmax, *r) for r in _conditioned(c))),
    "chapman_kolmogorov": (1e-7, _chapman_kolmogorov_grid),
    "sn_series": (1e-10, lambda c: ((t, q) for q in c.q_grid for t in (0.3, -0.4))),
    "aw_orthogonality": (1e-7, lambda c: ((min(c.nmax, 6), p) for p in _bundles(c))),
    "moments": (1e-7, lambda c: ((c.nmax, p) for p in _bundles(c))),
    "vnm": (
        1e-6,
        lambda c: ((n, m, 0.3, -0.5, 0.5, 0.6, q) for q in c.q_grid for n, m in _VNM_ORDERS),
    ),
    # rho = 0 makes the bounds trivially 1 <= 1 <= 1
    "ratio_bounds": (1e-12, _conditioned),
    "poisson_mehler": (1e-8, lambda c: _conditioned(c, max_abs_q=0.5)),
    "density_expansion": (1e-6, lambda c: ((p,) for p in _bundles(c, max_abs_q=0.5))),
}

CHECK_NAMES = tuple(_SUITE)


@dataclass(frozen=True)
class SuiteConfig:
    """The checks run_suite runs, their q grid, their highest order and one tolerance.

    The default q grid and the fixed _RHO_GRID keep |q| <= 0.7 and
    |rho| <= 0.6, where product truncation lengths stay short and the
    whole suite runs in desk time.
    The series-convergence checks restrict q further to |q| <= 0.5, where
    their a priori term bounds guarantee the documented accuracy within the
    default term budgets.  ``nmax`` is the highest polynomial order of the
    orthogonality and moment checks; the Askey-Wilson pairs stop at
    min(nmax, 6).  ``tol`` None holds each check to its default tolerance;
    a number replaces the tolerance of every selected check.
    """

    checks: tuple = CHECK_NAMES
    q_grid: tuple = (-0.5, 0.0, 0.3, 0.7)
    nmax: int = 8
    tol: float = None


def run_suite(config: SuiteConfig = SuiteConfig()):
    """Run the configured checks over their deterministic grids, in order.

    DomainError before any check runs on an unknown check name, a base q outside
    (-1, 1], a negative or non-integer nmax, or a nan, infinite or complex tol."""
    for name in config.checks:
        if name not in _SUITE:
            raise DomainError(f"unknown check name {name!r}; known: {', '.join(CHECK_NAMES)}")
    for q in config.q_grid:
        _check_base(q)
    _check_order(config.nmax)
    if config.tol is not None:
        _check_real(config.tol)
    reports = []
    for name in config.checks:
        default_tol, grid = _SUITE[name]
        tol = default_tol if config.tol is None else config.tol
        check = globals()[f"check_{name}"]
        for args in grid(config):
            rows = check(*args, tol)
            reports.extend([rows] if isinstance(rows, CheckReport) else rows)
    return reports


def _strict(value):
    """value for strict JSON, which has no nan or inf: a non-finite float becomes None."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def report_to_json(reports):
    rows = [
        {
            "name": r.name,
            "params": r.params,
            "residual": _strict(r.residual),  # a non-finite residual has failed
            "tolerance": r.tolerance,
            "pass": r.passed,
        }
        for r in reports
    ]
    return json.dumps(rows, separators=(",", ":"))


def report_to_text(reports):
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        params = " ".join(f"{k}={v!r}" for k, v in r.params.items())
        lines.append(f"{status} {r.name} [{params}] residual={r.residual!r} tol={r.tolerance!r}")
    npass = sum(1 for r in reports if r.passed)
    lines.append(f"{npass}/{len(reports)} checks passed")
    return "\n".join(lines) + "\n"
