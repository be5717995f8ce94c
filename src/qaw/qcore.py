"""Scalar q-arithmetic primitives.

Everything in this module is generic over the scalar field of its inputs:
pass floats for fast evaluation, :class:`fractions.Fraction` values when an
identity has to hold exactly (the test suite proves several summation
identities this way, with residuals that are exactly zero), or complex
numbers where a product over complex arguments is required.

The one exception is the infinite product ``q_pochhammer_inf``, which is
inherently approximate: it truncates where the relative tail falls below
``_REL_TOL`` (1e-14), the one truncation tolerance of the package, and
therefore only makes sense in floating point.

Gaussian-binomial rows (by a ratio rule on ``q_bracket_seq``) and s_n (by
the Rogers-Szego recurrence) cost O(n); ``_sn_series`` yields the one s_n
series that both the suite's sn_series check and the expansion budget sum.

Each parameter rule of the package has its one private helper here:
``_check_order`` and ``_check_terms`` (an order, or the terms of a product
or series, within the term budget of 10 000) and ``_check_entries`` (a
table that grows faster than its order holds at most 10**6 entries), all
checked before anything is allocated, ``_check_finite`` (scalars and numpy
arrays; a plain float takes a ``math.isfinite`` fast path),
``_check_real`` (finite and not complex), ``_check_rho`` (|rho| < 1),
``_check_base`` (a real base with -1 < q <= 1) and ``_check_below_one``
(q < 1, where q = 1 needs its own closed form).  The one pole rule is
``_check_pole``: a denominator raises PoleError only when it is exactly 0;
``_check_factorial`` refuses a float [n]_q! out of the normal floats.  Past
either budget, or out of range, TruncationError.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from numbers import Rational

import numpy as np

__all__ = [
    "DomainError",
    "PoleError",
    "TruncationError",
    "q_bracket",
    "q_bracket_seq",
    "q_factorial",
    "q_binomial",
    "q_binomial_row",
    "q_pochhammer",
    "q_pochhammer_seq",
    "q_pochhammer_inf",
    "s_n",
]


class DomainError(ValueError):
    """An argument lies outside the domain where the quantity is defined."""


class PoleError(ArithmeticError):
    """A denominator factor vanished at a genuine pole of a formula."""


class TruncationError(RuntimeError):
    """A computation needs more terms than its budget, or its floats left their range."""


_TERM_BUDGET = 10_000  # the highest order, and the most terms a product or series may take
_TABLE_BUDGET = 100 * _TERM_BUDGET  # entries, about 32 MB of Python floats
_REL_TOL = 1e-14  # the relative tail at which every infinite product and series is cut


def _check_order(n):
    """DomainError unless n is a nonnegative integer; TruncationError past the term budget."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"order must be a nonnegative integer, got {n!r}")
    if n > _TERM_BUDGET:
        raise TruncationError(f"order {n} exceeds the term budget {_TERM_BUDGET}")


def _check_terms(count, what):
    """TruncationError when what needs count terms, past the term budget; count may stop there."""
    if count > _TERM_BUDGET:
        raise TruncationError(f"{what} needs more than {_TERM_BUDGET} terms, the term budget")


def _check_entries(entries, what):
    """TruncationError when what, a table about to be built, would exceed the table budget."""
    if entries > _TABLE_BUDGET:
        raise TruncationError(
            f"{what} need {entries} entries, above the table budget {_TABLE_BUDGET}"
        )


def _check_factorial(value, n, q):
    """TruncationError when the float value = [n]_q! lies outside the normal floats.

    For -1 < q < 1 it is the extreme of [0]_q! .. [n]_q!, and no bracket
    vanishes, so a 0.0 is an underflow; at q = -1 it is a pole, left to _check_pole.
    """
    if isinstance(value, float) and q != -1 and not sys.float_info.min <= abs(value) < math.inf:
        raise TruncationError(f"[{n}]_q! left the float range (got {value!r})")


def _finite(v):
    """True unless the scalar or numpy array v holds a nan or an infinity.

    Rationals are exact, hence finite, and skipped: cmath would overflow on
    a Fraction beyond float range.  A complex value needs both parts finite.
    """
    if type(v) is float:
        return math.isfinite(v)  # the common case, without the Rational ABC test
    if isinstance(v, np.ndarray):
        # count_nonzero, not .all(): a process's first bool reduction costs ~30 us
        return np.count_nonzero(np.isfinite(v)) == v.size
    return isinstance(v, Rational) or cmath.isfinite(v)


def _check_finite(*values):
    """DomainError unless every scalar or numpy array in values is _finite.

    Finiteness only: the q-arithmetic runs formally outside -1 < q <= 1 on
    purpose.
    """
    for v in values:
        if not _finite(v):
            if isinstance(v, np.ndarray):
                raise DomainError("values must be finite, got an array holding nan or inf")
            raise DomainError(f"parameters must be finite, got {v!r}")


def _check_real(*values):
    """DomainError unless every scalar or numpy array in values is finite and not complex."""
    _check_finite(*values)
    for v in values:
        if np.iscomplexobj(v):
            raise DomainError(f"parameters must be real, got {v!r}")


def _check_rho(*rhos):
    """DomainError unless every correlation is real with |rho| < 1 (so none is nan)."""
    for rho in rhos:
        try:
            inside = -1 < rho < 1
        except TypeError:  # a complex correlation has no order
            inside = False
        if not inside:
            raise DomainError(f"rho must satisfy |rho| < 1, got {rho!r}")


def _check_base(q):
    """DomainError unless the base q is real with -1 < q <= 1 (so not nan).

    q = 1 is the Gaussian/Hermite branch; code that needs it dispatches to
    dedicated closed forms rather than taking limits of the |q| < 1 formulas.
    """
    try:
        inside = -1 < q <= 1
    except TypeError:  # a complex base has no order
        inside = False
    if not inside:
        raise DomainError(f"base must satisfy -1 < q <= 1, got {q!r}")


def _check_below_one(q, what):
    """DomainError at q = 1, where what has no meaning; _check_base bounds q above."""
    if q == 1:
        raise DomainError(f"q < 1 is required by {what}")


def _check_pole(value, what):
    """PoleError when value is exactly 0, else value.

    Applied to the last entry of a Pochhammer prefix: a vanishing factor
    zeroes every later entry, while a merely small float is a regular point.
    """
    if value == 0:
        raise PoleError(f"{what} vanished; the formula has a pole here")
    return value


def q_bracket(n, q):
    """The q-number [n]_q = 1 + q + ... + q**(n-1).

    Equals n at q = 1 and, for n >= 1, equals 1 at q = 0.  [0]_q = 0.
    """
    return q_bracket_seq(n, q)[n]


def q_bracket_seq(n, q):
    """The prefix list [[0]_q, [1]_q, ..., [n]_q], by Horner's rule."""
    _check_order(n)
    _check_finite(q)
    return _bracket_seq(n, q)


def _bracket_seq(n, q):
    # q_bracket_seq once n and q are checked, for callers that check q with their other inputs
    out = [0 * q]
    for _ in range(n):
        out.append(out[-1] * q + 1)
    return out


def q_factorial(n, q):
    """The q-factorial [n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1."""
    return _factorial_seq(n, q)[n]


def _factorial_seq(n, q):
    # [[0]_q!, [1]_q!, ..., [n]_q!], each the running product of the brackets
    out = [1 + 0 * q]
    for bracket in q_bracket_seq(n, q)[1:]:
        out.append(out[-1] * bracket)
    return out


def q_binomial(n, k, q):
    """Gaussian binomial coefficient, entry k of q_binomial_row(n, q).

    Returns [n]_q! / ([n-k]_q! [k]_q!) when n >= k >= 0 and 0 otherwise,
    so sums over out-of-range indices vanish without special casing.
    PoleError where the row's ratio rule meets [k+1]_q = 0 (q = -1).
    """
    if not (isinstance(n, int) and isinstance(k, int)):
        raise DomainError(f"binomial indices must be integers, got {n!r}, {k!r}")
    if not n >= k >= 0:
        return 0
    return q_binomial_row(n, q)[k]


def q_binomial_row(n, q):
    """The row [[n, 0]_q, [n, 1]_q, ..., [n, n]_q] from one bracket prefix.

    O(n) by [n, k+1]_q = [n, k]_q [n-k]_q / [k+1]_q, with no q-factorial to
    overflow; the second half mirrors the first, since [n, k]_q is [n, n-k]_q.
    PoleError where a divisor [k+1]_q vanishes (q = -1, k + 1 even): the
    value exists there, e.g. [4, 2]_{-1} = 2, but the ratio rule cannot
    reach it.
    """
    brackets = q_bracket_seq(n, q)
    half = [1 + 0 * q]
    for k in range(n // 2):
        half.append(half[-1] * brackets[n - k] / _check_pole(brackets[k + 1], "[k+1]_q"))
    return half + half[: (n + 1) // 2][::-1]


def q_pochhammer(a, q, n):
    """Finite q-Pochhammer symbol (a; q)_n = prod_{i<n} (1 - a q**i)."""
    return q_pochhammer_seq(a, q, n)[n]


def q_pochhammer_seq(a, q, n):
    """The prefix list [(a; q)_0, (a; q)_1, ..., (a; q)_n] of q_pochhammer."""
    _check_order(n)
    _check_finite(a, q)
    out = [1 + 0 * a]
    factor = a
    for _ in range(n):
        out.append(out[-1] * (1 - factor))
        factor = factor * q
    return out


def q_pochhammer_inf(a, q):
    """Infinite q-Pochhammer symbol (a; q)_inf, truncated.

    Factors are multiplied until |a| |q|**k < _REL_TOL * (1 - |q|); the log
    of the neglected tail is then bounded by _REL_TOL = 1e-14, so the result
    is accurate to about that relatively.  The term count is a deterministic
    function of the inputs.

    Floating point only.  q = 1 is rejected (the product has no meaning
    there), and so is a nan or infinite a or q.  Near |q| = 1 the count
    grows like 1 / (1 - |q|): a product that needs more factors than the
    term budget (from |q| of about 0.997) raises TruncationError.
    """
    _check_finite(a, q)
    _check_below_one(q, "(a; q)_inf")
    threshold = _REL_TOL * (1 - abs(q))
    total = 1 + 0 * a
    factor = a
    count = 0
    while abs(factor) >= threshold and count <= _TERM_BUDGET:
        total = total * (1 - factor)
        factor = factor * q
        count += 1
    _check_terms(count, "(a; q)_inf")
    return total


def s_n(n, q):
    """Row sum of the Gaussian binomials, s_n(q) = sum_k [n choose k]_q.

    O(n) by Rogers-Szego.  Grows like 2**n at q = 1 and bounds the sup of the
    n-th q-Hermite polynomial on its orthogonality interval after rescaling.
    """
    _check_order(n)
    _check_finite(q)
    return next(itertools.islice(_rogers_szego(q), n, None))[0]


def _rogers_szego(q):
    # (s_i(q), q**i), i = 0, 1, ...: s_{i+1} = 2 s_i - (1 - q**i) s_{i-1}, s_i = h_i(1 | q)
    prev, s, power = 0 * q, 1 + 0 * q, 1 + 0 * q
    while True:
        yield s, power
        prev, s = s, 2 * s - (1 - power) * prev
        power = power * q


def _sn_series(t, q):
    """(s_i(q), t**i / (q; q)_i) for i = 0, 1, ...: the terms of both s_n generating functions,
    at most the term budget of them; asking for one more raises TruncationError."""
    weight = 1 + 0 * t
    for s, power in itertools.islice(_rogers_szego(q), _TERM_BUDGET):
        yield s, weight
        weight = weight * t / (1 - power * q)
    _check_terms(_TERM_BUDGET + 1, "the s_n series")
