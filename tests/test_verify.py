"""Quadrature engine and check-suite plumbing."""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from qaw import verify
from qaw import (
    CondDensityParams,
    DomainError,
    SuiteConfig,
    TruncationError,
    hermite_H,
    hermite_H_seq,
    integrate_on_S,
    q_factorial,
    report_to_json,
    report_to_text,
    run_suite,
)
from qaw.densities import f_CN_values, f_N_values
from qaw.verify import (
    CHECK_NAMES,
    CheckReport,
    check_aw_orthogonality,
    check_chapman_kolmogorov,
    check_cond_expectation,
    check_moments,
    check_normalization,
    check_orthogonality_H,
    check_orthogonality_P,
    check_poisson_mehler,
    check_ratio_bounds,
    check_sn_series,
    check_vnm,
)


class TestIntegrateOnS:
    def test_density_normalization(self):
        est = integrate_on_S(lambda x: f_N_values(x, 0.0), 0.0)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_hermite_square_norm(self):
        est = integrate_on_S(lambda x: hermite_H(1, x, 0.5) ** 2 * f_N_values(x, 0.5), 0.5)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_odd_integrand_vanishes(self):
        est = integrate_on_S(lambda x: x * f_N_values(x, 0.3), 0.3)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_branch(self):
        est = integrate_on_S(lambda x: np.exp(-x * x / 2) / math.sqrt(2 * math.pi), 1)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_vector_integrand(self):
        def f(x):
            fn = f_N_values(x, 0.5)
            return np.stack([fn, x * fn])

        est = integrate_on_S(f, 0.5)
        assert est.value.shape == (2,)
        assert est.value[0] == pytest.approx(1.0, abs=1e-10)
        assert est.value[1] == pytest.approx(0.0, abs=1e-10)

    def test_estimate_fields(self):
        est = integrate_on_S(lambda x: f_N_values(x, 0.0), 0.0)
        assert est.abs_error_estimate >= 0
        # interior nodes of a doubled trapezoid rule on N >= 64 intervals;
        # the first call of f already takes the 63 of 64 intervals
        n = est.evaluations + 1
        assert n >= 64 and n & (n - 1) == 0

    def test_tighter_tolerance_consistency(self):
        f = lambda x: hermite_H(4, x, 0.3) ** 2 * f_N_values(x, 0.3)
        coarse = integrate_on_S(f, 0.3, target_tol=1e-8)
        fine = integrate_on_S(f, 0.3, target_tol=1e-10)
        assert abs(coarse.value - fine.value) <= 1e-8

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            integrate_on_S(lambda x: x, 1.5)

    def test_panel_budget_exhaustion(self):
        # a jump keeps the two-level difference O(h) at every level; the new
        # points of 2**21 intervals are the first level past the table budget
        step = lambda x: np.where(x > 0.1, 1.0, 0.0)
        start = time.perf_counter()
        with pytest.raises(TruncationError, match="1048576 entries, above the table budget"):
            integrate_on_S(step, 0.0, target_tol=1e-12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "f, q, sizes",
        [
            (lambda x: f_N_values(x, 0.0), 0.0, [63]),
            (lambda x: f_CN_values(x, 0.5, 0.6, 0.9), 0.9, [63, 64]),
            (lambda x: f_CN_values(x, 0.5, 0.9, 0.9), 0.9, [63, 64, 128]),
        ],
        ids=["64 intervals", "128 intervals", "256 intervals"],
    )
    def test_one_call_for_the_first_two_levels(self, f, q, sizes):
        seen = []

        def spy(x):
            seen.append(np.size(x))
            return f(x)

        est = integrate_on_S(spy, q)
        assert seen == sizes
        assert est.evaluations == sum(sizes)

    @pytest.mark.parametrize("q", [0.0, 0.3, -0.9, 1])
    def test_first_nodes_are_the_two_levels_interleaved(self, q):
        # the nodes of 32 intervals at the odd places, their midpoints at the even
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return 0 * x

        integrate_on_S(spy, q)
        lo, width = (-12.0, 24.0) if q == 1 else (0.0, math.pi)
        h = width / 32
        t_nodes, t_mids = lo + h * np.arange(1, 32), lo + h * (np.arange(32) + 0.5)
        if q == 1:
            nodes, mids = t_nodes, t_mids
        else:
            half = 2 / math.sqrt(1 - q)
            nodes, mids = half * np.cos(t_nodes), half * np.cos(t_mids)
        assert seen[0][1::2].tobytes() == nodes.tobytes()
        assert seen[0][0::2].tobytes() == mids.tobytes()

    @pytest.mark.parametrize("q, rho, levels", [(0.5, 0.6, 1), (0.9, 0.6, 2), (0.9, 0.9, 3)])
    def test_vector_value_equals_one_call_a_level(self, q, rho, levels):
        # the rule with one call for the 31 nodes of 32 intervals and one for
        # each level's midpoints, written out: the same bits
        def f(x):
            fcn = f_CN_values(x, 0.5, rho, q)
            return np.stack([fcn, x * fcn, x * x * fcn])

        half = 2 / math.sqrt(1 - q)
        g = lambda t: f(half * np.cos(t)) * (half * np.sin(t))
        n, h = 32, math.pi / 32
        total = g(h * np.arange(1, n)).sum(axis=-1)
        for _ in range(levels):
            total = total + g(h * (np.arange(n) + 0.5)).sum(axis=-1)
            n, h = 2 * n, h / 2
        est = integrate_on_S(f, q)
        assert est.evaluations == n - 1
        assert est.value.tobytes() == (h * total).tobytes()

    def test_rejects_non_finite_tolerance(self):
        f = lambda x: f_N_values(x, 0.3)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                integrate_on_S(f, 0.3, target_tol=bad)
        # a zero or negative tolerance asks for the roundoff floor
        for floor in (0.0, -1.0):
            assert integrate_on_S(f, 0.3, target_tol=floor).value == pytest.approx(1.0, abs=1e-14)

    def test_rejects_complex_tolerance(self):
        with pytest.raises(DomainError, match="must be real"):
            integrate_on_S(lambda x: f_N_values(x, 0.5), 0.5, 1e-3j)

    @pytest.mark.parametrize("q", [0.3, 0.7, 0.9, 0.99, -0.9])
    def test_geometric_convergence_against_exact_targets(self, q):
        # every H_n H_m f_N integral up to order 8 against [n]_q! or 0
        pairs = [(n, m) for n in range(9) for m in range(n, 9)]

        def f(x):
            H = hermite_H_seq(8, x, q)
            fn = f_N_values(x, q)
            return np.stack([H[n] * H[m] * fn for n, m in pairs])

        est = integrate_on_S(f, q)
        exact = [float(q_factorial(n, q)) if n == m else 0.0 for n, m in pairs]
        assert np.max(np.abs(est.value - exact)) <= 2e-10
        assert est.evaluations <= 255


class TestIndividualChecks:
    def test_normalization_rows(self):
        p = CondDensityParams(0.5, 0.3, -0.5, 0.6, 0.5)
        rows = check_normalization(p, 1e-8)
        assert len(rows) == 3
        assert all(r.name == "normalization" and r.passed for r in rows)

    def test_normalization_stress_points(self):
        # strong correlation with q near the top of the range
        for q in (-0.5, 0.0, 0.5, 0.9):
            p = CondDensityParams(0.5, 0.8, -0.5, 0.8, q)
            rows = check_normalization(p, 1e-8)
            assert all(r.passed for r in rows)

    def test_orthogonality_H_rows(self):
        rows = check_orthogonality_H(3, 0.5, 1e-8)
        assert len(rows) == 10
        assert all(r.passed for r in rows)

    def test_orthogonality_P_rows(self):
        rows = check_orthogonality_P(3, 0.4, 0.5, 0.3, 1e-8)
        assert all(r.passed for r in rows)

    def test_cond_expectation_rows(self):
        rows = check_cond_expectation(4, 0.5, 0.6, 0.3, 1e-8)
        assert all(r.passed for r in rows)

    def test_chapman_kolmogorov(self):
        r = check_chapman_kolmogorov(0.3, -0.5, 0.5, 0.6, 0.3, 1e-7)
        assert r.passed

    def test_aw_orthogonality_rows(self):
        p = CondDensityParams(0.5, 0.3, -0.5, 0.6, 0.3)
        rows = check_aw_orthogonality(4, p, 1e-7)
        assert len(rows) == 10  # strictly off-diagonal pairs
        assert all(r.passed for r in rows)

    def test_moment_rows(self):
        p = CondDensityParams(0.5, 0.3, -0.5, 0.6, 0.3)
        rows = check_moments(4, p, 1e-7)
        assert len(rows) == 5
        assert all(r.passed for r in rows)

    def test_vnm_projection(self):
        assert check_vnm(2, 1, 0.3, -0.5, 0.5, 0.6, 0.3, 1e-6).passed
        assert check_vnm(2, 2, 0.3, -0.5, 0.5, 0.6, 0.3, 1e-6).passed

    def test_vnm_vanishes_above_degree(self):
        assert check_vnm(1, 2, 0.3, -0.5, 0.5, 0.6, 0.3, 1e-6).passed

    def test_sn_series(self):
        assert check_sn_series(0.3, 0.0, 1e-10).passed
        assert check_sn_series(-0.4, 0.5, 1e-10).passed

    def test_sn_series_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            check_sn_series(1.0, 0.5, 1e-10)
        with pytest.raises(DomainError):
            check_sn_series(0.3, 1, 1e-10)
        # a complex or nan argument has no order; DomainError, not TypeError
        for t, q in ((0.3j, 0.5), (0.3 + 0j, 0.5), (math.nan, 0.5), (0.3, 0.5j), (0.3, math.nan)):
            with pytest.raises(DomainError):
                check_sn_series(t, q, 1e-10)

    def test_ratio_bounds(self):
        assert check_ratio_bounds(0.5, 0.6, 0.4, 1e-12).passed
        trivial = check_ratio_bounds(0.5, 0.0, 0.4, 1e-12)
        assert trivial.residual == 0.0

    def test_poisson_mehler(self):
        assert check_poisson_mehler(0.5, 0.5, 0.3, 1e-8).passed

    def test_pass_flag_matches_residual(self):
        r = check_sn_series(0.3, 0.5, 1e-30)
        assert not r.passed
        assert r.residual > r.tolerance
        ok = check_sn_series(0.3, 0.5, 1e-10)
        assert ok.passed == (ok.residual <= ok.tolerance)


FAST_CONFIG = SuiteConfig(
    checks=("sn_series", "ratio_bounds"),
    q_grid=(0.0, 0.3),
)


class TestSuite:
    def test_empty_selection(self):
        assert run_suite(SuiteConfig(checks=())) == []

    def test_unknown_check_name(self):
        with pytest.raises(DomainError):
            run_suite(SuiteConfig(checks=("nosuch",)))

    def test_selection_preserves_order(self):
        reports = run_suite(FAST_CONFIG)
        names = [r.name for r in reports]
        split = names.index("ratio_bounds")
        assert set(names[:split]) == {"sn_series"}
        assert set(names[split:]) == {"ratio_bounds"}

    def test_deterministic_reports(self):
        first = report_to_json(run_suite(FAST_CONFIG))
        second = report_to_json(run_suite(FAST_CONFIG))
        assert first == second

    def test_tolerance_override_is_honest(self):
        config = SuiteConfig(checks=("sn_series",), q_grid=(0.3,), tol=1e-30)
        reports = run_suite(config)
        assert reports and all(not r.passed for r in reports)
        assert {r.tolerance for r in reports} == {1e-30}

    def test_rejects_non_finite_tol(self):
        # nan would fail every row and inf pass every row
        for name, tol in (("sn_series", math.nan), ("ratio_bounds", math.inf)):
            config = SuiteConfig(checks=(name,), q_grid=(0.3,), tol=tol)
            with pytest.raises(DomainError):
                run_suite(config)

    def test_config_has_four_frozen_fields(self):
        assert [f.name for f in dataclasses.fields(SuiteConfig)] == ["checks", "q_grid", "nmax", "tol"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            SuiteConfig().tol = 1e-3

    @pytest.mark.parametrize(
        "fields",
        [
            {"checks": ("sn_series", "nosuch")},
            {"q_grid": (0.3, 1.5)},
            {"q_grid": (0.5j,)},
            {"nmax": -1},
            {"nmax": 2.0},
            {"tol": math.nan},
            {"tol": math.inf},
            {"tol": 1e-3j},
        ],
        ids=[
            "unknown-after-valid", "base-after-valid", "complex-base",
            "negative-nmax", "float-nmax", "nan-tol", "inf-tol", "complex-tol",
        ],
    )
    def test_refuses_the_whole_config_before_any_check(self, fields, monkeypatch):
        calls = []
        for name in CHECK_NAMES:
            monkeypatch.setattr(verify, f"check_{name}", lambda *args: calls.append(args))
        with pytest.raises(DomainError):
            run_suite(SuiteConfig(**{"checks": ("sn_series",), **fields}))
        assert calls == []

    def test_default_grid_row_counts(self):
        counts = {}
        for r in run_suite():
            counts[r.name] = counts.get(r.name, 0) + 1
        assert list(counts.items()) == [
            ("normalization", 12),
            ("orthogonality_H", 180),
            ("cond_expectation", 216),
            ("orthogonality_P", 720),
            ("chapman_kolmogorov", 10),
            ("sn_series", 8),
            ("aw_orthogonality", 504),
            ("moments", 216),
            ("vnm", 20),
            ("ratio_bounds", 16),
            ("poisson_mehler", 12),
            ("density_expansion", 18),
        ]
        assert sum(counts.values()) == 1932

    def test_gaussian_end_rows(self):
        # q = 1 integrates on |x| <= 12 rather than in theta
        checks = ("normalization", "orthogonality_H", "cond_expectation", "orthogonality_P", "vnm")
        reports = run_suite(SuiteConfig(q_grid=(1,), checks=checks))
        assert len(reports) == 287
        assert all(r.passed for r in reports)


class TestGoldenBytes:
    """Refactors keep the default suite's bytes; a change of digits updates these hashes."""

    def test_default_suite_bytes(self):
        reports = run_suite()
        # `qaw verify --all --format json` writes the JSON and one newline
        as_json = report_to_json(reports) + "\n"
        assert hashlib.md5(as_json.encode()).hexdigest() == "9508dc582ca920f51634148650d06c8e"
        as_text = report_to_text(reports)
        assert hashlib.md5(as_text.encode()).hexdigest() == "7979da124f20ae1e9c3000925f14d214"


class TestReportSerialization:
    def test_json_round_trip(self):
        reports = run_suite(FAST_CONFIG)
        rows = json.loads(report_to_json(reports))
        assert len(rows) == len(reports)
        for row, r in zip(rows, reports):
            assert row["name"] == r.name
            assert row["residual"] == r.residual
            assert row["pass"] == r.passed

    def test_json_writes_non_finite_residuals_as_null(self):
        reports = [
            CheckReport("sn_series", {"t": 0.3}, residual, 1e-10, False)
            for residual in (math.nan, math.inf, 2.5)
        ]

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rows = json.loads(report_to_json(reports), parse_constant=reject)
        assert [row["residual"] for row in rows] == [None, None, 2.5]

    def test_text_format(self):
        reports = run_suite(FAST_CONFIG)
        text = report_to_text(reports)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
        assert lines[-1] == f"{len(reports)}/{len(reports)} checks passed"
