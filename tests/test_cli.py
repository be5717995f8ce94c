"""Command line surface: selectors, formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
import warnings

import pytest

from qaw import CondDensityParams, c_n_gaussian, c_n_main, chebyshev_U
from qaw.cli import _EVAL_SELECTORS, entry, main
from qaw.densities import phi_q0


# md5 of the csv output of TestEvalCommand.test_density_point_values_pinned
DENSITY_EVAL_MD5 = "6adba01f5f04184edf746af98312e72b"

# md5 of (argv, exit code, stdout, stderr) over TestCliSurface's invocations
CLI_SURFACE_MD5 = "466bfae552b1068237904c2ce993db8c"


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEvalCommand:
    def test_hermite_grid(self):
        code, text = run("eval", "H", "--n", "2", "--q", "0.5", "--grid", "-2:2:5")
        assert code == 0
        header, rows = csv_rows(text)
        assert header == ["n", "q", "x", "value"]
        assert len(rows) == 5
        assert rows[2][2] == "0.0"
        assert rows[2][3] == "-1.0"

    def test_csv_and_json_carry_identical_numbers(self):
        argv = ("eval", "H", "--n", "3", "--q", "0.3", "--grid", "-1.5:1.5:7")
        _, text = run(*argv, "--format", "csv")
        _, blob = run(*argv, "--format", "json")
        _, rows = csv_rows(text)
        parsed = json.loads(blob)
        assert [float(r[3]) for r in rows] == [row["value"] for row in parsed]

    def test_json_is_strict_for_non_finite_values(self):
        argv = ("eval", "H", "--n", "3", "--q", "0.5", "--x", "1e200")
        code, blob = run(*argv, "--format", "json")
        assert code == 0
        assert json.loads(blob, parse_constant=reject_constant)[0]["value"] is None
        code, text = run(*argv)
        assert code == 0 and csv_rows(text)[1][0][-1] == "inf"

    def test_semicircle_midpoint(self):
        code, text = run("eval", "f_N", "--q", "0", "--x", "0")
        assert code == 0
        _, rows = csv_rows(text)
        assert float(rows[0][2]) == pytest.approx(1 / math.pi, rel=1e-15)

    def test_two_sided_density_free_case(self):
        code, text = run(
            "eval", "phi", "--q", "0", "--y", "0.1", "--rho1", "0.5",
            "--z", "-0.2", "--rho2", "0.4", "--x", "0.3",
        )
        assert code == 0
        _, rows = csv_rows(text)
        p = CondDensityParams(0.1, 0.5, -0.2, 0.4, 0)
        assert float(rows[0][6]) == pytest.approx(phi_q0(0.3, p), rel=1e-12)

    def test_moment_selector(self):
        code, text = run("eval", "C", "--n", "0", "--q", "0.5")
        assert code == 0
        _, rows = csv_rows(text)
        assert rows[0][6] == "1.0"
        code, text = run(
            "eval", "C", "--n", "1", "--q", "0.5", "--y", "0.4", "--rho1", "0.5",
            "--z", "-0.6", "--rho2", "0.7",
        )
        _, rows = csv_rows(text)
        want = float(c_n_main(1, CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.5)))
        assert float(rows[0][6]) == want

    def test_moment_selector_gaussian_branch(self):
        # q = 1 is a valid --q; C goes through the Hermite closed form there
        for n in (0, 1, 3, 6):
            code, text = run(
                "eval", "C", "--n", str(n), "--q", "1", "--y", "0.4", "--rho1", "0.5",
                "--z", "-0.6", "--rho2", "0.7",
            )
            assert code == 0
            _, rows = csv_rows(text)
            assert rows[0][6] == repr(float(c_n_gaussian(n, 0.4, -0.6, 0.5, 0.7)))

    def test_chebyshev_selector_ignores_q(self):
        code, text = run("eval", "U", "--n", "3", "--q", "0.7", "--x", "0.5")
        assert code == 0
        _, rows = csv_rows(text)
        assert float(rows[0][3]) == chebyshev_U(3, 0.5) == -1.0

    def test_conjugate_pair_selector(self):
        code, text = run("eval", "Q", "--n", "2", "--q", "0.5", "--y", "0.4",
                         "--rho1", "0.6", "--x", "0.2")
        assert code == 0
        _, rows = csv_rows(text)
        assert math.isfinite(float(rows[0][5]))

    def test_usage_errors_exit_two(self):
        bad = (
            ("eval", "H", "--n", "2", "--q", "0.5", "--x", "1", "--grid", "0:1:3"),
            ("eval", "H", "--n", "2", "--q", "0.5"),
            ("eval", "H", "--n", "2", "--q", "0.5", "--grid", "1:2"),
            ("eval", "H", "--n", "2", "--q", "0.5", "--grid", "0:1:0"),
            ("eval", "H", "--n", "-1", "--q", "0.5", "--x", "1"),
            ("eval", "C", "--n", "2", "--q", "0.5", "--x", "1"),
            # non-finite numbers and a base outside -1 < q <= 1
            ("eval", "H", "--q", "nan", "--x", "1"),
            ("eval", "H", "--q", "0.5", "--x", "inf", "--n", "3"),
            ("eval", "f_N", "--q", "0.5", "--x", "nan"),
            ("eval", "H", "--q", "2", "--x", "1", "--n", "2"),
            ("eval", "H", "--q", "-1", "--x", "1"),
            ("eval", "H", "--q", "0.5", "--grid", "0:inf:3"),
            ("eval", "H", "--q", "0.5", "--grid", "nan:1:3"),
            ("eval", "f_CN", "--q", "0.5", "--y", "nan", "--rho1", "0.3", "--x", "0.1"),
            # eval takes no --tol: products and series are cut at one fixed tolerance
            ("eval", "f_N", "--q", "0.5", "--x", "0.1", "--tol", "nan"),
        )
        for argv in bad:
            code, _ = run(*argv)
            assert code == 2, argv

    def test_budgets_refuse_with_a_message(self, capsys):
        # each is refused before its O(n**2) table is built, with exit code 2
        cases = (
            (("eval", "C", "--n", "10000", "--q", "0"), "above the table budget 1000000"),
            (("eval", "D", "--n", "5000", "--q", "0.5", "--rho1", "0.3", "--rho2", "0.4",
              "--x", "0.1"), "above the table budget"),
            (("expand", "phi", "--n", "10000", "--q", "0.5", "--x", "0.1"),
             "above the table budget"),
            (("verify", "--check", "orthogonality_H", "--nmax", "10000"),
             "above the table budget"),
            (("eval", "H", "--n", "10001", "--q", "0.5", "--x", "0.1"),
             "exceeds the term budget 10000"),
            # J and M each run into the millions near q = 1
            (("eval", "f_CN", "--q", "0.999999999999", "--y", "0.2", "--rho1", "0.9999999",
              "--x", "0.1"), "the rho-part needs more than 10000 terms"),
            # [606]_q! underflows to 0 at q = -0.999
            (("eval", "C", "--n", "606", "--q", "-0.999"), r"\[606\]_q! left the float range"),
        )
        for argv, message in cases:
            code, text = run(*argv)
            assert (code, text) == (2, ""), argv
            assert re.search(message, capsys.readouterr().err), argv

    def test_repeat_runs_are_byte_identical(self):
        argv = ("eval", "phi", "--q", "0.5", "--y", "0.4", "--rho1", "0.5",
                "--z", "-0.6", "--rho2", "0.7", "--grid", "-2:2:9")
        first = run(*argv)
        second = run(*argv)
        assert first == second

    def test_density_point_values_pinned(self):
        # every density row of `qaw eval` is a point call; the grid runs 1.2
        # half-widths either side (all of it interior at q = 1), and rho = 0
        # runs f_N's product alone
        digest = hashlib.md5()
        for q in (-0.3, 0, 0.5, 0.9, 0.99, 1):
            edge = 6.0 if q == 1 else 1.2 * 2 / math.sqrt(1 - q)
            grid = f"{-edge!r}:{edge!r}:25"
            base = ("--q", repr(q), "--y", "0.4", "--z", "-0.6", "--grid", grid)
            for argv in (
                ("f_N",),
                ("f_CN", "--rho1", "0"),
                ("f_CN", "--rho1", "0.6"),
                ("phi", "--rho1", "0", "--rho2", "0"),
                ("phi", "--rho1", "0.5", "--rho2", "-0.7"),
            ):
                code, text = run("eval", *argv, *base)
                assert code == 0, argv
                digest.update(text.encode())
        assert digest.hexdigest() == DENSITY_EVAL_MD5


class TestVerifyCommand:
    def test_single_check(self):
        code, text = run("verify", "--check", "orthogonality_H", "--nmax", "4", "--q", "0")
        assert code == 0
        lines = text.splitlines()
        assert lines[-1].endswith("checks passed")
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_unknown_check(self):
        code, text = run("verify", "--check", "nosuch")
        assert code == 2
        assert text == ""

    def test_failing_tolerance_exits_one(self):
        code, text = run("verify", "--check", "sn_series", "--q", "0.3", "--tol", "1e-30")
        assert code == 1
        assert "FAIL" in text

    def test_json_format(self):
        code, blob = run("verify", "--check", "sn_series", "--q", "0.3", "--format", "json")
        assert code == 0
        rows = json.loads(blob)
        assert rows and all(row["pass"] for row in rows)

    def test_json_is_strict_for_failing_rows(self):
        # both rows fail at q = 0.99: the t = 0.3 sums reach 5e52, so the
        # absolute residual is about 1e39, and the t = -0.4 sum cancels
        code, blob = run("verify", "--check", "sn_series", "--q", "0.99", "--format", "json")
        assert code == 1
        rows = json.loads(blob, parse_constant=reject_constant)
        assert len(rows) == 2 and not any(row["pass"] for row in rows)

    def test_zero_tolerance_asks_for_the_roundoff_floor(self):
        code, text = run("verify", "--check", "orthogonality_H", "--nmax", "2", "--q", "0.3",
                         "--tol", "0")
        assert code == 1
        assert "FAIL" in text

    def test_requires_a_selection(self):
        code, _ = run("verify")
        assert code == 2
        code, _ = run("verify", "--all", "--check", "sn_series")
        assert code == 2

    def test_rejects_non_finite_or_out_of_range_numbers(self):
        for extra in (("--q", "nan"), ("--q", "1.5"), ("--tol", "inf")):
            code, text = run("verify", "--check", "sn_series", *extra)
            assert code == 2, extra
            assert text == ""

    def test_negative_nmax_is_refused_by_the_suite(self, capsys):
        # sn_series reads no order, and the suite still refuses the config
        code, text = run("verify", "--check", "sn_series", "--nmax", "-1")
        assert (code, text) == (2, "")
        assert "order must be a nonnegative integer, got -1" in capsys.readouterr().err

    def test_nmax_caps_polynomial_orders(self):
        code, blob = run("verify", "--check", "aw_orthogonality", "--nmax", "9", "--q", "0.3",
                         "--format", "json")
        assert code == 0
        assert max(row["params"]["m"] for row in json.loads(blob)) == 6
        code, blob = run("verify", "--check", "moments", "--nmax", "3", "--q", "0.3",
                         "--format", "json")
        assert code == 0
        assert max(row["params"]["n"] for row in json.loads(blob)) == 3

    def test_repeat_runs_are_byte_identical(self):
        argv = ("verify", "--check", "ratio_bounds", "--q", "0.3")
        assert run(*argv) == run(*argv)


class TestExpandCommand:
    def test_kernel_uncorrelated_is_exact(self):
        code, text = run("expand", "fcn", "--n", "5", "--q", "0.5", "--y", "0.4",
                         "--rho1", "0", "--x", "0.3")
        assert code == 0
        _, rows = csv_rows(text)
        assert float(rows[0][-1]) < 1e-15

    def test_error_column_shrinks_with_terms(self):
        argv = ("expand", "phi", "--q", "0.5", "--y", "0.4", "--rho1", "0.5",
                "--z", "-0.6", "--rho2", "0.4", "--x", "0.3")
        _, coarse = run(*argv, "--n", "10")
        _, fine = run(*argv, "--n", "40")
        _, coarse_rows = csv_rows(coarse)
        _, fine_rows = csv_rows(fine)
        assert float(fine_rows[0][-1]) < float(coarse_rows[0][-1])

    def test_json_columns(self):
        code, blob = run("expand", "fcn", "--n", "20", "--q", "0.3", "--y", "0.2",
                         "--rho1", "0.4", "--grid", "-1:1:3", "--format", "json")
        assert code == 0
        rows = json.loads(blob)
        assert len(rows) == 3
        for row in rows:
            assert {"closed_form", "partial_sum", "abs_error"} <= set(row)
            assert row["abs_error"] == abs(row["closed_form"] - row["partial_sum"])

    def test_rejects_non_finite_or_out_of_range_numbers(self):
        base = ("expand", "fcn", "--n", "5", "--y", "0.2", "--rho1", "0.4")
        for extra in (
            ("--q", "0.3", "--x", "nan"),
            ("--q", "0.3", "--grid", "-inf:1:3"),
            ("--q", "-1", "--x", "0.1"),
            ("--q", "0.3", "--rho2", "inf", "--x", "0.1"),
        ):
            code, text = run(*base, *extra)
            assert code == 2, extra
            assert text == ""

    def test_off_support_rows_read_zero(self):
        # f_N is 0 off the open support |x| < 2 / sqrt(1 - q); the product is 0, not nan
        pair = ("--y", "0.2", "--rho1", "0.4", "--z", "0.1", "--rho2", "0.3")
        for target in ("fcn", "phi"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, text = run("expand", target, "--n", "64", "--q", "0.5", *pair,
                                 "--grid", "3:1e5:3")
            assert code == 0
            header, rows = csv_rows(text)
            assert header[-3:] == ["closed_form", "partial_sum", "abs_error"]
            assert [row[-3:] for row in rows] == [["0.0", "0.0", "0.0"]] * 3

    def test_rejects_empty_expansion(self):
        code, _ = run("expand", "phi", "--n", "0", "--q", "0.5", "--x", "0.1")
        assert code == 2


def _surface_invocations():
    """eval and expand argv lists covering every output shape, plus usage errors."""
    pair = ("--y", "0.4", "--rho1", "0.5", "--z", "-0.6", "--rho2", "0.7")
    qs = ("-0.3", "0", "0.5", "0.9", "1")
    where = (("--grid", "-1.5:1.5:7"), ("--x", "0.3"))
    fmts = (("--format", "csv"), ("--format", "json"))
    for sel in _EVAL_SELECTORS:
        if sel == "C":
            continue
        for q in qs:
            for at in where:
                for fmt in fmts:
                    yield ("eval", sel, "--n", "3", "--q", q, *pair, *at, *fmt)
    for q in qs[:-1]:  # C at q = 1 goes through c_n_gaussian
        for n in ("0", "3"):
            for fmt in fmts:
                yield ("eval", "C", "--n", n, "--q", q, *pair, *fmt)
    for target in ("fcn", "phi"):
        for q in qs:
            for fmt in fmts:
                # every point strictly inside the support for every q here
                yield ("expand", target, "--n", "12", "--q", q, *pair, "--grid", "-1:1:5", *fmt)
    yield from (
        ("eval", "H", "--n", "2", "--q", "0.5", "--x", "1", "--grid", "0:1:3"),
        ("eval", "H", "--n", "2", "--q", "0.5"),
        ("eval", "H", "--n", "2", "--q", "0.5", "--grid", "1:2"),
        ("eval", "H", "--n", "2", "--q", "0.5", "--grid", "0:1:0"),
        ("eval", "H", "--n", "-1", "--q", "0.5", "--x", "1"),
        ("eval", "C", "--n", "2", "--q", "0.5", "--x", "1"),
        ("eval", "H", "--q", "nan", "--x", "1"),
        ("eval", "H", "--q", "0.5", "--x", "inf", "--n", "3"),
        ("eval", "H", "--q", "2", "--x", "1", "--n", "2"),
        ("eval", "nosuch", "--q", "0.5", "--x", "1"),
        ("eval", "f_N", "--q", "0.5", "--x", "0.1", "--tol", "nan"),  # unrecognized argument
        ("eval", "f_CN", "--q", "0.5", "--y", "9", "--rho1", "0.3", "--x", "0.1"),
        ("expand", "fcn", "--n", "5", "--q", "0.3", "--grid", "-inf:1:3"),
        ("expand", "fcn", "--n", "5", "--q", "0.3", "--rho2", "inf", "--x", "0.1"),
        ("expand", "phi", "--n", "0", "--q", "0.5", "--x", "0.1"),
        ("expand", "phi", "--n", "5", "--x", "0.1"),
    )


class TestCliSurface:
    def test_every_output_shape_pinned(self, monkeypatch):
        # argparse wraps its usage lines to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        digest = hashlib.md5()
        count = 0
        for argv in _surface_invocations():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(list(argv), out=out)
            digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
            count += 1
        assert count == 292
        assert digest.hexdigest() == CLI_SURFACE_MD5


class TestEntryPoint:
    def test_entry_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys, "argv", ["qaw", "eval", "H", "--n", "0", "--q", "0.5", "--x", "0.0"]
        )
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
        assert "value" in capsys.readouterr().out

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "eval" in capsys.readouterr().out
