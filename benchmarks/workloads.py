"""The benchmark's three workloads: seeded inputs, a timed body, correctness gates.

Each workload is split in three so that only library work is timed:

* ``inputs(rng)`` draws everything the library receives from the seed;
* ``run(inputs, tracer, detail)`` makes the library calls, one operation at
  a time, and keeps their outputs; an operation that raises keeps its
  exception.  Indicative sub-timings go into ``detail``;
* ``check(inputs, outputs)`` compares the outputs against the gates and
  returns ``(attempted, failed, facts)``.  No gate aborts the run.

Costs do not depend on the seed: the seed moves parameter values (points,
correlations, signs of q), while orders, product lengths, series lengths,
grid sizes and repetition counts are fixed here.  That keeps runs with
different seeds comparable.

Why these three workloads:

* ``verify_suite`` is the headline user action, ``qaw verify --all``, with
  the CLI's own fixed grid.  Every layer works; ``moments.c_n_main`` and the
  scalar q-arithmetic under it take most of the time.
* ``density_grid`` is densities alone at q = 0.5, 0.9 and 0.99 (product
  lengths 55, 372 and 4120), vectorised grids and single-point calls.
  Memory grows with K times points here, and the q-arithmetic is idle.
* ``moment_series`` is scalar q-algebra: exact and float conditional
  moments, the cached density expansion and the Askey-Wilson
  representations.  Densities and the suite are nearly idle.
"""

from __future__ import annotations

import io
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import qaw
from qaw import CondDensityParams, map_params

HERE = Path(__file__).resolve().parent

# --- verify_suite --------------------------------------------------------------

VERIFY_ARGV = ["verify", "--all", "--format", "json"]
# (name, params) of every row of the reference suite output, in order; the
# suite's grid is fixed, so a row that goes missing or moves counts as failed
VERIFY_ROWS = HERE / "verify_rows.json"


def verify_inputs(rng):
    return None


def verify_run(inputs, tracer, detail):
    import qaw.cli

    out = io.StringIO()
    tracer.begin_op()
    try:
        code = qaw.cli.main(VERIFY_ARGV, out=out)
    except Exception as exc:  # counted by the gate
        code = exc
    return code, out.getvalue()


def verify_check(inputs, outputs):
    code, text = outputs
    expected = json.loads(VERIFY_ROWS.read_text())
    try:
        rows = json.loads(text)
    except ValueError:
        rows = []
    failed = 0
    for i in range(max(len(expected), len(rows))):
        if i >= len(rows) or i >= len(expected):
            failed += 1
            continue
        row = rows[i]
        if [row["name"], row["params"]] != expected[i] or row["pass"] is not True:
            failed += 1
    attempted = max(len(expected), len(rows))
    if code != 0 and failed == 0:
        failed = 1
    rows_failed = sum(1 for row in rows if row.get("pass") is not True)
    return attempted, failed, {"rows": len(rows), "rows_failed": rows_failed}


# --- density_grid --------------------------------------------------------------

GRID_POINTS = 2000
# vectorised repetitions per q, sized so that each q takes a similar share
GRID_REPS = {0.5: 88, 0.9: 17, 0.99: 1}
POINT_CALLS = 300  # single-point calls per density and q
RATIO_SAMPLES = 4  # points per phi grid checked against phi_cond_via_ratio
RATIO_TOL = 1e-12  # about 3e-14 is seen at q = 0.99
MATCH_TOL = 1e-12  # single-point call against the grid value at the same x


def _interior(rng, q, frac, sds):
    """A point inside the support: |t| < frac of its half-width and < sds.

    The stationary law has unit variance for every q, so its mass sits
    within a few units of 0 even where the support is much wider (half-width
    20 at q = 0.99).  Points drawn further out give densities that underflow
    to 0 in floating point.
    """
    half = 2 / math.sqrt(1 - q)
    return rng.uniform(-1, 1) * min(frac * half, sds)


def _rho(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.uniform(lo, hi)


def _float_bundle(rng, q, rho_lo=0.1, rho_hi=0.7):
    return CondDensityParams(
        _interior(rng, q, 0.9, 3), _rho(rng, rho_lo, rho_hi),
        _interior(rng, q, 0.9, 3), _rho(rng, rho_lo, rho_hi), q,
    )


def grid_inputs(rng):
    regimes = []
    for q, reps in GRID_REPS.items():
        xs = np.array(sorted(_interior(rng, q, 0.995, 6) for _ in range(GRID_POINTS)))
        bundles = [_float_bundle(rng, q) for _ in range(reps)]
        point_idx = np.linspace(0, GRID_POINTS - 1, POINT_CALLS).astype(int)
        regimes.append((q, xs, bundles, point_idx))
    return regimes


def _guard(tracer, fn, *args):
    tracer.begin_op()
    try:
        return fn(*args)
    except Exception as exc:  # counted by the gate
        return exc


def grid_run(regimes, tracer, detail):
    d = qaw.densities
    out = []
    for q, xs, bundles, point_idx in regimes:
        grids = [
            (
                _guard(tracer, d.f_N_values, xs, q),
                _guard(tracer, d.f_CN_values, xs, p.y, p.rho1, q),
                _guard(tracer, d.phi_cond_values, xs, p),
            )
            for p in bundles
        ]
        p = bundles[0]
        xp = [float(x) for x in xs[point_idx]]
        points = (
            [_guard(tracer, d.f_N, x, q) for x in xp],
            [_guard(tracer, d.f_CN, x, p.y, p.rho1, q) for x in xp],
            [_guard(tracer, d.phi_cond, x, p) for x in xp],
        )
        out.append((grids, points))
    return out


def _close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def grid_check(regimes, outputs):
    attempted = failed = 0
    for (q, xs, bundles, point_idx), (grids, points) in zip(regimes, outputs):
        for p, triple in zip(bundles, grids):
            for k, values in enumerate(triple):
                attempted += 1
                ok = (isinstance(values, np.ndarray) and values.shape == xs.shape
                      and bool(np.all(np.isfinite(values))) and bool(np.all(values > 0)))
                if ok and k == 2:
                    for j in np.linspace(0, GRID_POINTS - 1, RATIO_SAMPLES).astype(int):
                        ref = qaw.phi_cond_via_ratio(float(xs[j]), p)
                        ok = ok and _close(float(values[j]), ref, RATIO_TOL)
                failed += not ok
        for k, evals in enumerate(points):
            grid = grids[0][k]
            for j, ev in zip(point_idx, evals):
                attempted += 1
                ok = (isinstance(ev, qaw.DensityEval) and ev.value > 0 and ev.terms > 0
                      and isinstance(grid, np.ndarray)
                      and _close(ev.value, float(grid[j]), MATCH_TOL))
                failed += not ok
    return attempted, failed, {}


# --- moment_series -------------------------------------------------------------

EXACT_ORDERS = (20, 28)  # part (a): c_n_main against c_n_via_P in Fractions
EXACT_BUNDLES = 2
FLOAT_ORDER = 64  # part (b): c_0..c_64 on one fresh float bundle
FLOAT_TOL = 1e-12  # relative to max(1, |c_n|); about 2e-14 is seen
EXPANSION_QS = (0.5, -0.3)  # part (c): shared bundles, N from expansion_terms_needed
EXPANSION_RHO = 0.5  # the larger |rho| of each part (c) bundle; fixes N
EXPANSION_POINTS = 65
EXPANSION_TOL = 1e-8  # the rel_tol handed to expansion_terms_needed
AW_QS = (0.3, 0.45, 0.6)  # part (d): |q| of each bundle, sign drawn
AW_POINTS = 3
AW_ORDER = 12
AW_TOL = 1e-10  # as in the acceptance test of the four representations


def _exact_bundle(rng):
    q = rng.choice((-1, 1)) * Fraction(rng.choice((3, 5)), 8)
    half2 = 4 / (1 - q)  # support: (1 - q) t**2 < 4

    def point():
        while True:
            t = Fraction(rng.randrange(-63, 64, 2), 16)
            if t * t < half2 * Fraction(81, 100):
                return t

    def rho():
        return rng.choice((-1, 1)) * Fraction(rng.randrange(3, 12, 2), 16)

    return CondDensityParams(point(), rho(), point(), rho(), q)


def moment_inputs(rng):
    exact = [_exact_bundle(rng) for _ in range(EXACT_BUNDLES)]
    fresh = _float_bundle(rng, _rho(rng, 0.3, 0.7), rho_lo=0.2)
    expansion = []
    for q in EXPANSION_QS:
        rhos = [rng.choice((-1, 1)) * EXPANSION_RHO, _rho(rng, 0.1, EXPANSION_RHO)]
        rng.shuffle(rhos)
        p = CondDensityParams(_interior(rng, q, 0.9, 3), rhos[0],
                              _interior(rng, q, 0.9, 3), rhos[1], q)
        xs = np.array(sorted(_interior(rng, q, 0.9, 6) for _ in range(EXPANSION_POINTS)))
        expansion.append((p, xs))
    aw = []
    for aq in AW_QS:
        p = _float_bundle(rng, rng.choice((-1, 1)) * aq, rho_lo=0.15)
        aw.append((p, [_interior(rng, p.q, 0.9, 6) for _ in range(AW_POINTS)]))
    return exact, fresh, expansion, aw


def _aw_four(n, x, p):
    q = p.q
    xa = x * math.sqrt(1 - q) / 2
    params = map_params(p)
    rescale = (1 - q) ** (-n / 2)
    return (
        qaw.aw_A_sym(n, x, p),
        qaw.aw_A_mixed(n, x, p),
        qaw.aw_D(n, xa, params, q) * rescale,
        qaw.aw_phi43_oracle(n, xa, params, q) * rescale,
    )


def _pair(tracer, f, g, *args):
    """(f(*args), g(*args), seconds spent in f), or the exception raised."""
    tracer.begin_op()
    try:
        t0 = time.perf_counter()
        first = f(*args)
        seconds = time.perf_counter() - t0
        return first, g(*args), seconds
    except Exception as exc:  # counted by the gate
        return exc


def moment_run(inputs, tracer, detail):
    exact, fresh, expansion, aw = inputs
    m = qaw.moments
    t0 = time.perf_counter()
    a = [[_pair(tracer, m.c_n_main, m.c_n_via_P, n, p) for n in EXACT_ORDERS] for p in exact]
    t1 = time.perf_counter()
    b = [_pair(tracer, m.c_n_main, m.c_n_via_P, n, fresh) for n in range(FLOAT_ORDER + 1)]
    t2 = time.perf_counter()
    c = []
    for p, xs in expansion:
        N = _guard(tracer, m.expansion_terms_needed, p, EXPANSION_TOL)
        if isinstance(N, Exception):
            c.append((N, [], None))
            continue
        rows = [
            (_guard(tracer, m.phi_expansion_partial, float(x), p, N),
             _guard(tracer, qaw.densities.phi_cond, float(x), p))
            for x in xs
        ]
        c.append((N, rows, _guard(tracer, qaw.densities.phi_cond_values, xs, p)))
    t3 = time.perf_counter()
    d = [[_guard(tracer, _aw_four, n, x, p) for x in xs for n in range(AW_ORDER + 1)]
         for p, xs in aw]
    t4 = time.perf_counter()
    detail.update({"part_a_exact_s": t1 - t0, "part_b_float_s": t2 - t1,
                   "part_c_expansion_s": t3 - t2, "part_d_aw_s": t4 - t3})
    if isinstance(b[-1], tuple):
        detail[f"c_n_main_{FLOAT_ORDER}_ms"] = b[-1][2] * 1e3
    return a, b, c, d


def moment_check(inputs, outputs):
    a, b, c, d = outputs
    attempted = failed = 0
    for bundle in a:
        for pair in bundle:
            attempted += 1
            failed += not (isinstance(pair, tuple) and pair[0] - pair[1] == 0)
    for pair in b:
        attempted += 1
        failed += not (isinstance(pair, tuple) and abs(pair[0] - pair[1])
                       <= FLOAT_TOL * max(1.0, abs(pair[0]), abs(pair[1])))
    for N, rows, grid in c:
        attempted += 2 + EXPANSION_POINTS  # the series length, the grid, each x
        if isinstance(N, Exception):
            failed += 2 + EXPANSION_POINTS
            continue
        ok_grid = isinstance(grid, np.ndarray) and len(grid) == len(rows)
        failed += not ok_grid
        for j, (partial, closed) in enumerate(rows):
            ok = (not isinstance(partial, Exception) and isinstance(closed, qaw.DensityEval)
                  and abs(partial - closed.value) <= EXPANSION_TOL * max(1.0, closed.value)
                  and ok_grid and _close(float(grid[j]), closed.value, MATCH_TOL))
            failed += not ok
    for bundle in d:
        for four in bundle:
            attempted += 1
            if isinstance(four, Exception):
                failed += 1
                continue
            sym = four[0]
            failed += not all(abs(sym - v) <= AW_TOL * max(1.0, abs(sym)) for v in four[1:])
    return attempted, failed, {}


WORKLOADS = {
    "verify_suite": (verify_inputs, verify_run, verify_check),
    "density_grid": (grid_inputs, grid_run, grid_check),
    "moment_series": (moment_inputs, moment_run, moment_check),
}
