"""Every name a module imports is used in that module, every private
module-level name is used somewhere in the package, every exported name
resolves, each parameter rule and size budget is written out in qcore
only, no module names a truncation policy, no module imports mpmath, the q-arithmetic
modules call no library sum, and neither the CLI nor the series oracle loads the heavy
optional modules."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qaw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _unused_privates(source, used_elsewhere=frozenset()):
    """Module-level private functions, classes and assignments never referenced.

    A name counts as referenced if it is read anywhere in its module, or if
    it is in used_elsewhere (imported or read as an attribute by another
    module).
    """
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name)
        for name, line in defined.items()
        if _private(name) and name not in read and name not in used_elsewhere
    )


def _names_used_from_outside(source):
    """Names a module imports from, or reads as attributes of, other modules."""
    tree = ast.parse(source)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_private_scanner_flags_an_unused_name():
    source = (
        "_LIMIT = 3\n_SPARE = 4\n"
        "def _used(x):\n    return x + _LIMIT\n"
        "def _unused():\n    return _used(1)\n"
        "class _Shared:\n    pass\n"
        "def public():\n    return _used(2)\n"
    )
    assert _unused_privates(source) == [(2, "_SPARE"), (5, "_unused"), (7, "_Shared")]
    assert _unused_privates(source, {"_Shared", "_SPARE"}) == [(5, "_unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    elsewhere = set()
    for other in SRC.glob("*.py"):
        if other != path:
            elsewhere |= _names_used_from_outside(other.read_text())
    assert _unused_privates(path.read_text(), elsewhere) == []


def test_scanner_flags_an_unused_name():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _exports(source):
    """The literal __all__ list of a module's source, or [] if it has none."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _stale_exports(source):
    """__all__ entries that no module-level def, class, assignment or import binds."""
    bound = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return [name for name in _exports(source) if name not in bound]


def _unlisted_reexports(init_source, exports):
    """(module, name) for every name the package imports from a sibling
    module whose __all__ (exports[module]) does not list it."""
    return [
        (node.module, alias.name)
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exports[node.module]
    ]


def test_export_scanners_flag_stale_and_unlisted_names():
    source = (
        "from math import pi\nimport os.path\n"
        "__all__ = ['pi', 'os', 'f', 'K', 'Gone', 'Inner', 'C']\n"
        "K: int = 3\n"
        "def f():\n    Inner = 1\n    return Inner\n"
        "class C:\n    pass\n"
    )
    assert _stale_exports(source) == ["Gone", "Inner"]
    polyfam = (SRC / "polyfam.py").read_text()
    stale = polyfam.replace("__all__ = [\n", '__all__ = [\n    "RecurrenceSpec",\n')
    assert _stale_exports(polyfam) == [] and _stale_exports(stale) == ["RecurrenceSpec"]
    init = "from .polyfam import f, _forward\nfrom math import tau\n"
    assert _unlisted_reexports(init, {"polyfam": ["f"]}) == [("polyfam", "_forward")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    assert _stale_exports(path.read_text()) == []


def test_package_reexports_only_listed_names():
    exports = {path.stem: _exports(path.read_text()) for path in MODULES}
    assert _unlisted_reexports((SRC / "__init__.py").read_text(), exports) == []


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _caches(source):
    """(line, maxsize) for every functools cache in source.

    maxsize is the integer literal an lru_cache call passes, and None for
    anything unbounded or implicit: ``maxsize=None``, a non-literal size, a
    bare ``@lru_cache`` and any use of ``functools.cache``.
    """
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, None) for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if _name_of(node.value) == "functools":
                found.append((node.lineno, None))
        elif _name_of(node) == "lru_cache":
            call = calls.get(id(node))
            sizes = call.args + [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
            literal = sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
            found.append((node.lineno, sizes[0].value if literal else None))
    return found


def test_cache_scanner_flags_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(x):\n    return x\n"
        "@lru_cache\ndef b(x):\n    return x\n"
        "@functools.lru_cache(None)\ndef c(x):\n    return x\n"
        "@functools.cache\ndef d(x):\n    return x\n"
    )
    assert sorted(_caches(source)) == [(2, None), (3, 8), (6, None), (9, None), (12, None)]
    densities = (SRC / "densities.py").read_text()
    assert all(size is not None for _, size in _caches(densities))
    assert None in {size for _, size in _caches(densities.replace("maxsize=32", "maxsize=None"))}


def test_every_cache_is_bounded():
    found = {path.name: _caches(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unbounded = {name: lines for name, lines in found.items() if any(s is None for _, s in lines)}
    assert unbounded == {}
    # a new cache shows up here as a test change; the fourth holds the
    # densities' x-free rho-part rows, the fifth their log series' weights
    assert sum(len(lines) for lines in found.values()) == 5


_ONE_SIDED_Q = re.compile(r"(?<!-1 < )q < 1")


def _rule_copies(source):
    """(line, rule) for every parameter rule a module writes out itself.

    A rule is written out when a raised DomainError, or argparse's
    ArgumentTypeError, carries a string with "|rho| < 1", a one-sided
    "q < 1", or "-1 < q" or "|q| < 1" (the base rule), when the module
    raises PoleError (the pole rule), or when it calls np.isfinite.  qcore
    holds the one copy of each.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc if isinstance(node.exc, ast.Call) else None
            raised = _name_of(call.func if call else node.exc)
            if raised == "PoleError":
                found.append((node.lineno, "pole"))
            if raised not in ("DomainError", "ArgumentTypeError") or call is None:
                continue
            texts = [
                c.value for c in ast.walk(call)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            found += [(node.lineno, "|rho| < 1") for t in texts if "|rho| < 1" in t]
            found += [(node.lineno, "q < 1") for t in texts if _ONE_SIDED_Q.search(t)]
            found += [(node.lineno, "base") for t in texts if "-1 < q" in t or "|q| < 1" in t]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "isfinite" and _name_of(node.func.value) in ("np", "numpy"):
                found.append((node.lineno, "np.isfinite"))
    return found


def test_rule_scanner_flags_a_copied_rule():
    source = (
        "import numpy as np\n"
        "def f(q, rho, x):\n"
        "    if q == 1:\n        raise DomainError('f requires q < 1')\n"
        "    if not -1 < rho < 1:\n        raise DomainError(f'rho must satisfy |rho| < 1, got {rho!r}')\n"
        "    if not -1 < q < 1:\n        raise DomainError('the series requires -1 < q < 1')\n"
        "    if x == 0:\n        raise PoleError('x vanished')\n"
        "    if x is None:\n        raise PoleError\n"
        "    return np.isfinite(x)\n"
    )
    assert _rule_copies(source) == [
        (4, "q < 1"), (6, "|rho| < 1"), (8, "base"), (10, "pole"), (12, "pole"),
        (13, "np.isfinite"),
    ]
    assert _rule_copies("raise DomainError(f'need |q| < 1, got {q!r}')") == [(1, "base")]
    argparse_copy = "raise argparse.ArgumentTypeError(f'base must satisfy -1 < q <= 1, got {t!r}')"
    assert _rule_copies(argparse_copy) == [(1, "base")]
    rules = {rule for _, rule in _rule_copies((SRC / "qcore.py").read_text())}
    assert rules == {"q < 1", "|rho| < 1", "base", "pole", "np.isfinite"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "qcore.py"], ids=lambda p: p.name)
def test_parameter_rules_live_in_qcore(path):
    assert _rule_copies(path.read_text()) == []


def _names_in(source, names):
    """(line, name) for every node of source that names one of names: a
    variable, attribute, import, keyword, parameter or definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        named = {getattr(node, field, None) for field in ("id", "attr", "arg", "name")}
        found += [(node.lineno, name) for name in names if name in named]
    return found


_BUDGET_NAMES = ("max_terms", "_TERM_BUDGET", "_TABLE_BUDGET")
_BUDGET_WORDS = re.compile(r"\b(budget|cap)\b")
_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _budget_copies(source):
    """(line, what) for every size budget a module keeps itself.

    A module keeps one when it names max_terms, _TERM_BUDGET or
    _TABLE_BUDGET (as a variable, attribute, import, keyword or parameter),
    or when it raises a TruncationError whose text says "budget" or "cap"
    or reads an upper-case constant of its own, a limit kept outside qcore.
    qcore holds the one term budget, the one table budget and their
    refusals (``_check_order``, ``_check_terms``, ``_check_entries``).
    """
    found = _names_in(source, _BUDGET_NAMES)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc if isinstance(node.exc, ast.Call) else None
            if _name_of(call.func if call else node.exc) != "TruncationError":
                continue
            texts = [
                c.value for c in ast.walk(node.exc)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            found += [(node.lineno, "budget text") for t in texts if _BUDGET_WORDS.search(t)]
            found += [
                (node.lineno, "limit constant") for c in ast.walk(node.exc)
                if isinstance(c, ast.Name) and _CONSTANT.fullmatch(c.id) and c.id not in _BUDGET_NAMES
            ]
    return sorted(found)


def test_budget_scanner_flags_a_copied_budget():
    source = (
        "from .qcore import _TERM_BUDGET, TruncationError\n"
        "def f(n, policy=None, max_terms=3):\n"
        "    if n > policy.max_terms:\n        raise TruncationError(f'{n} terms, above the cap')\n"
        "    if n > _TABLE_BUDGET:\n        raise TruncationError('past the table budget')\n"
        "    if n < 0:\n        raise TruncationError('escape: no capacity left')\n"
        "    return g(max_terms=n)\n"
    )
    assert _budget_copies(source) == [
        (1, "_TERM_BUDGET"), (2, "max_terms"), (3, "max_terms"), (4, "budget text"),
        (5, "_TABLE_BUDGET"), (6, "budget text"), (9, "max_terms"),
    ]
    qcore = (SRC / "qcore.py").read_text()
    assert {what for _, what in _budget_copies(qcore)} == {"_TERM_BUDGET", "_TABLE_BUDGET", "budget text"}
    # the refusal densities kept before qcore's _check_terms
    densities = (SRC / "densities.py").read_text()
    copy = densities.replace(
        "def _factors_needed(",
        "def _check_cap(needed, policy):\n"
        "    if needed > policy.max_terms:\n"
        "        raise TruncationError(f'{needed} terms, above the cap {policy.max_terms}')\n\n\n"
        "def _factors_needed(",
        1,
    )
    line = densities[: densities.index("def _factors_needed(")].count("\n") + 2
    assert _budget_copies(densities) == []
    assert _budget_copies(copy) == [
        (line, "max_terms"), (line + 1, "budget text"), (line + 1, "max_terms")
    ]


def test_budget_scanner_flags_the_old_quadrature_limit():
    # the point limit and refusal verify.integrate_on_S kept before the table budget
    verify = (SRC / "verify.py").read_text()
    level = '        _check_entries(n, f"the new points of {2 * n} trapezoid intervals")\n'
    copy = verify.replace("_GAUSSIAN_CUTOFF = 12.0\n", "_GAUSSIAN_CUTOFF = 12.0\n_MAX_POINTS = 2**16\n", 1)
    copy = copy.replace(
        level,
        "        if n >= _MAX_POINTS:\n"
        '            raise TruncationError(f"quadrature did not converge within {_MAX_POINTS} points")\n',
        1,
    )
    line = copy[: copy.index("raise TruncationError(f\"quadrature")].count("\n") + 1
    assert level in verify and _budget_copies(verify) == []
    assert _budget_copies(copy) == [(line, "limit constant")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "qcore.py"], ids=lambda p: p.name)
def test_size_budgets_live_in_qcore(path):
    assert _budget_copies(path.read_text()) == []


_POLICY_NAMES = ("policy", "TruncationPolicy", "DEFAULT_POLICY")


def _policy_knobs(source):
    """(line, name) wherever a module names policy, TruncationPolicy or
    DEFAULT_POLICY.  Every product and series is cut at qcore._REL_TOL, one
    constant; a tolerance knob threaded through the signatures would let
    two calls at the same inputs differ."""
    return sorted(_names_in(source, _POLICY_NAMES))


def test_policy_scanner_flags_a_truncation_knob():
    source = (
        "from .qcore import DEFAULT_POLICY, TruncationPolicy\n"
        "def f(x, policy=None):\n"
        "    tol = policy.rel_tol if policy else DEFAULT_POLICY.rel_tol\n"
        "    return g(x, policy=TruncationPolicy(tol))\n"
        "def h(policies, apolicy):\n    return _policy(policies)\n"
    )
    assert _policy_knobs(source) == [
        (1, "DEFAULT_POLICY"), (1, "TruncationPolicy"), (2, "policy"), (3, "DEFAULT_POLICY"),
        (3, "policy"), (3, "policy"), (4, "TruncationPolicy"), (4, "policy"),
    ]
    # the parameter densities.f_N took before the one constant
    densities = (SRC / "densities.py").read_text()
    copy = densities.replace(
        "def f_N(x, q) -> DensityEval:",
        "def f_N(x, q, policy: TruncationPolicy = DEFAULT_POLICY) -> DensityEval:",
        1,
    )
    line = densities[: densities.index("def f_N(x, q) -> DensityEval:")].count("\n") + 1
    assert _policy_knobs(densities) == []
    assert _policy_knobs(copy) == [
        (line, "DEFAULT_POLICY"), (line, "TruncationPolicy"), (line, "policy")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_a_truncation_policy(path):
    assert _policy_knobs(path.read_text()) == []


def _hand_rolled_pochhammers(source):
    """Lines that multiply an accumulator in place by 1 - <expr> ** <expr>.

    ``poch *= 1 - q**i`` is a hand-rolled (q; q)_i; qcore builds the one
    q_pochhammer_seq and the s_n series weights.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, ast.Sub)
        and isinstance(node.value.left, ast.Constant)
        and node.value.left.value == 1
        and isinstance(node.value.right, ast.BinOp)
        and isinstance(node.value.right.op, ast.Pow)
    ]


def test_pochhammer_scanner_flags_a_hand_rolled_loop():
    source = (
        "def f(q, n):\n"
        "    poch = 1.0\n"
        "    for i in range(1, n):\n"
        "        poch *= 1 - q**i\n"
        "        poch *= 1 - float(q) ** i\n"
        "        poch *= 1 - q * i\n"
        "        poch = poch * (1 - q**i)\n"
        "        poch *= 2 - q**i\n"
        "    return poch\n"
    )
    assert _hand_rolled_pochhammers(source) == [4, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "qcore.py"], ids=lambda p: p.name)
def test_no_hand_rolled_pochhammer(path):
    assert _hand_rolled_pochhammers(path.read_text()) == []


_HEAVY = ("mpmath", "numpy.polynomial")


def _heavy_modules_after(statement):
    """The modules of _HEAVY that a fresh interpreter holds after running statement."""
    probe = f"import sys\n{statement}\nprint(*[m for m in {_HEAVY!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_heavy_module_probe_sees_a_loaded_module():
    assert _heavy_modules_after("import qaw.cli, numpy.polynomial") == ["numpy.polynomial"]


def test_cli_import_loads_no_heavy_module():
    # every CLI command pays for what the import loads; the package uses
    # neither module, and mpmath serves only the tests' references
    assert _heavy_modules_after("import qaw.cli") == []


def test_oracle_call_loads_no_heavy_module():
    # the oracle imports stdlib decimal on its first call
    call = (
        "import qaw\n"
        "p = qaw.CondDensityParams(0.4, 0.5, -0.6, 0.7, 0.5)\n"
        "qaw.aw_phi43_oracle(5, 0.35, qaw.map_params(p), p.q)"
    )
    assert _heavy_modules_after(call) == []


def _imports_of(source, module):
    """Lines of source that import module or one of its submodules, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names if alias.name.split(".")[0] == module]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == module:
                found.append(node.lineno)
    return found


def test_import_scanner_flags_mpmath():
    assert _imports_of("import mpmathx\nfrom .mpmath import f\nimport os, mpmath.libmp\n", "mpmath") == [3]
    awpoly = (SRC / "awpoly.py").read_text()
    copy = awpoly.replace(
        "    import decimal\n", "    import decimal\n    import mpmath as mp\n    from mpmath import mpf\n"
    )
    line = awpoly[: awpoly.index("    import decimal\n")].count("\n") + 2
    assert _imports_of(awpoly, "mpmath") == [] and _imports_of(copy, "mpmath") == [line, line + 1]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_mpmath(path):
    assert _imports_of(path.read_text(), "mpmath") == []


_SUMMING = ("qcore", "polyfam", "awpoly", "moments", "densities")
_MATH_SUMS = ("fsum", "sumprod")


def _library_sums(source):
    """Lines that call the builtin sum, math.fsum or math.sumprod.

    From Python 3.12 on, sum() of floats is compensated, so a float result
    summed by any of the three depends on the interpreter version; the
    q-arithmetic modules add left to right in explicit loops instead.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names
        if alias.name in _MATH_SUMS
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and (func.id == "sum" or func.id in imported):
            found.append(node.lineno)
        elif isinstance(func, ast.Attribute) and func.attr in _MATH_SUMS:
            if _name_of(func.value) == "math":
                found.append(node.lineno)
    return found


def test_sum_scanner_flags_library_sums():
    source = (
        "import math\nfrom math import fsum as add\n"
        "a = sum(xs)\nb = math.fsum(xs)\nc = math.sumprod(xs, ys)\nd = add(xs)\n"
        "e = np.sum(xs)\nf = xs.sum()\ng = _series_sum(xs)\n"
    )
    assert _library_sums(source) == [3, 4, 5, 6]
    moments = (SRC / "moments.py").read_text()
    copy = moments.replace("    inner = 0\n", "    inner = sum(())\n", 1)
    line = moments[: moments.index("    inner = 0\n")].count("\n") + 1
    assert _library_sums(moments) == [] and _library_sums(copy) == [line]


@pytest.mark.parametrize("name", _SUMMING)
def test_q_arithmetic_calls_no_library_sum(name):
    assert _library_sums((SRC / f"{name}.py").read_text()) == []
