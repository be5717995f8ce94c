"""Spans around the public functions of the ``qaw`` modules, kept in memory.

The benchmark wraps library functions from the outside; nothing under
``src/`` knows it is being measured.  Every callable named in a module's
``__all__`` (classes excepted, so ``isinstance`` keeps working) gets one
wrapper, and that wrapper replaces the original in every ``qaw.*``
namespace that bound the same object: ``from .qcore import q_binomial``
in ``moments`` means that patching ``qaw.qcore`` alone would miss the calls
made from ``moments``.

A span is (name, start, end, parent, operation).  Spans live in flat
arrays while the workload runs; aggregates (calls, self time, errors per
function and per layer) are computed from them once the body has finished.
A span's self time is its duration minus the durations of its direct
children; calls are synchronous on one thread, so children never overlap.

Two configurations are used:

* ``Tracer(select=BOUNDARY)`` wraps only the density entry points and the
  twelve ``check_*`` functions.  These are a few thousand calls per body, so
  the untraced runs that give the end-to-end metrics use it to time
  density calls where the library, not the benchmark, issues them.
* ``Tracer()`` wraps everything, including the millions of ``qval`` and
  ``q_bracket`` calls of one suite run, which more than doubles its wall
  time; it gives the per-layer metrics and runs only in separate traced
  bodies.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = ("qcore", "polyfam", "awpoly", "densities", "moments", "verify", "cli")

# density entry points: function name -> (density, vectorised?)
DENSITY_CALLS = {
    "f_N": ("f_N", False),
    "f_N_values": ("f_N", True),
    "f_CN": ("f_CN", False),
    "f_CN_values": ("f_CN", True),
    "phi_cond": ("phi", False),
    "phi_cond_values": ("phi", True),
}

CHECKS = (
    "normalization",
    "orthogonality_H",
    "cond_expectation",
    "orthogonality_P",
    "chapman_kolmogorov",
    "sn_series",
    "aw_orthogonality",
    "moments",
    "vnm",
    "ratio_bounds",
    "poisson_mehler",
    "density_expansion",
)

BOUNDARY = frozenset(
    [f"densities.{name}" for name in DENSITY_CALLS] + [f"verify.check_{c}" for c in CHECKS]
)

DENSITY_QS = (0.5, 0.9, 0.99)

# per-layer metrics in report order, with units
PER_LAYER = (
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]
    + [
        ("qcore.q_bracket.calls", "count"),
        ("qcore.q_binomial.calls", "count"),
        ("qcore.q_pochhammer.calls", "count"),
        ("qcore.s_n.calls", "count"),
        ("qcore.s_n.self_s", "s"),
        ("polyfam.values", "count"),
        ("awpoly.oracle.calls", "count"),
        ("awpoly.oracle.self_s", "s"),
        ("densities.points", "count"),
        ("densities.product_factors", "count"),
        ("densities.peak_bytes", "B"),
    ]
    + [(f"densities.q{q}.points_per_s", "1/s") for q in DENSITY_QS]
    + [
        ("densities.point_call_p99_us", "us"),
        ("moments.c_n_main.calls", "count"),
        ("moments.c_n_main.self_s", "s"),
        ("moments.c_n_main.repeat_share", "ratio"),
        ("verify.quad_calls", "count"),
        ("verify.quad_evaluations", "count"),
        ("verify.rows", "count"),
        ("verify.rows_failed", "count"),
    ]
    + [(f"verify.check.{c}.s", "s") for c in CHECKS]
    + [("cli.import_s", "s"), ("cli.main_s", "s"), ("trace.overhead_s", "s")]
)


class Tracer:
    """Wraps public ``qaw`` functions and records one span per call."""

    def __init__(self, select=None):
        self.select = select
        # the full trace also takes the peak memory of each density call
        self.track_memory = select is None
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = 0
        self.errors = {}
        self._patches = []
        self._signatures = {}
        # observations made at specific boundaries
        # outermost density calls: (span, density, vectorised, points,
        # arguments other than x, product length of a single-point call)
        self.density = []
        self.density_peak = 0
        self.poly_values = 0
        self.quad_evaluations = 0
        self.cn_seen = set()
        self.cn_repeats = 0

    def begin_op(self):
        """Start a new workload operation; later spans carry its id."""
        self.op += 1

    # --- installation --------------------------------------------------------

    def install(self):
        """Replace every selected public function in every ``qaw`` namespace."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"qaw.{layer}")
            if mod is None:
                continue
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                qualified = f"{layer}.{attr}"
                if isinstance(obj, type) or not callable(obj) or id(obj) in wrappers:
                    continue
                if self.select is not None and qualified not in self.select:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, qualified, layer, attr))
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "qaw" or name.startswith("qaw.")]
        for mod in namespaces:
            found = [(key, val) for key, val in vars(mod).items()
                     if id(val) in wrappers and wrappers[id(val)][0] is val]
            for key, val in found:
                setattr(mod, key, wrappers[id(val)][1])
                self._patches.append((mod, key, val))

    def uninstall(self):
        for mod, key, val in reversed(self._patches):
            setattr(mod, key, val)
        self._patches.clear()

    def _wrap(self, fn, qualified, layer, attr):
        nid = len(self.names)
        self.names.append(qualified)
        self.errors[nid] = 0
        after = None
        before = None
        if layer == "densities" and attr in DENSITY_CALLS:
            density, vectorised = DENSITY_CALLS[attr]
            self._signatures[nid] = inspect.signature(fn)
            before = self._density_before
            after = functools.partial(self._density_after, density, vectorised)
        elif layer == "polyfam" and attr.endswith("_seq"):
            after = self._poly_after
        elif qualified == "verify.integrate_on_S":
            after = self._quad_after
        elif qualified == "moments.c_n_main":
            after = self._cn_after

        names_append = self.name_of.append
        parent_append = self.parent.append
        op_append = self.op_of.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        stack = self.stack
        push = stack.append
        pop = stack.pop
        errors = self.errors
        clock = time.perf_counter
        tracer = self

        if before is None and after is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = len(ends)
                names_append(nid)
                parent_append(stack[-1])
                op_append(tracer.op)
                end_append(0.0)
                push(i)
                start_append(clock())
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[nid] += 1
                    raise
                finally:
                    ends[i] = clock()
                    pop()

            return traced

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            i = len(ends)
            names_append(nid)
            parent_append(stack[-1])
            op_append(tracer.op)
            end_append(0.0)
            state = before(i) if before is not None else None
            push(i)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                pop()
                errors[nid] += 1
                if state:
                    tracemalloc.stop()
                raise
            ends[i] = clock()
            pop()
            if after is not None:
                after(i, state, args, kwargs, result)
            return result

        return traced_hooked

    # --- boundary observations -----------------------------------------------

    def _outermost_density(self, i):
        parent = self.parent[i]
        return parent < 0 or not self.names[self.name_of[parent]].startswith("densities.")

    def _density_before(self, i):
        if not (self.track_memory and self._outermost_density(i)):
            return None
        tracemalloc.start()
        return True

    def _density_after(self, density, vectorised, i, state, args, kwargs, result):
        if state:
            self.density_peak = max(self.density_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        if not self._outermost_density(i):
            return
        x = args[0] if args else kwargs["x"]
        points = int(np.size(x)) if vectorised else 1
        call = self._signatures[self.name_of[i]].bind(*args, **kwargs).arguments
        del call["x"]
        terms = None if vectorised else result.terms
        self.density.append((i, density, vectorised, points, call, terms))

    def _poly_after(self, i, state, args, kwargs, result):
        self.poly_values += len(result) * int(np.size(result[0]))

    def _quad_after(self, i, state, args, kwargs, result):
        self.quad_evaluations += result.evaluations

    def _cn_after(self, i, state, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self.cn_seen:
            self.cn_repeats += 1
        else:
            self.cn_seen.add(key)

    # --- aggregation -----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - child

    def by_function(self):
        """{qualified name: (calls, inclusive s, self s, errors)} for called functions."""
        name, dur, self_s = self._arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_s, minlength=n)
        return {
            qualified: (int(calls[k]), float(incl[k]), float(own[k]), self.errors[k])
            for k, qualified in enumerate(self.names)
            if calls[k] or self.errors[k]
        }

    def density_samples(self):
        """Outermost density calls as (density, q, vectorised, points, seconds)."""
        return [(d, _q_of(call), vec, pts, self.end[i] - self.start[i])
                for i, d, vec, pts, call, _ in self.density]

    def per_layer(self, funcs, product_lengths):
        """Per-layer metrics of one traced body, keyed as in PER_LAYER.

        funcs is ``by_function()``; product_lengths maps each vectorised
        density call to its product length K, which the library reports only
        from its single-point calls.
        """
        out = {name: 0 for name, _ in PER_LAYER}
        for qualified, (calls, incl, own, errs) in funcs.items():
            layer = qualified.split(".", 1)[0]
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += own
            out[f"{layer}.errors"] += errs

        def field(qualified, k):
            return funcs.get(qualified, (0, 0.0, 0.0, 0))[k]

        for short in ("q_bracket", "q_binomial", "q_pochhammer", "s_n"):
            out[f"qcore.{short}.calls"] = field(f"qcore.{short}", 0)
        out["qcore.s_n.self_s"] = field("qcore.s_n", 2)
        out["polyfam.values"] = self.poly_values
        out["awpoly.oracle.calls"] = field("awpoly.aw_phi43_oracle", 0)
        out["awpoly.oracle.self_s"] = field("awpoly.aw_phi43_oracle", 2)
        out["moments.c_n_main.calls"] = field("moments.c_n_main", 0)
        out["moments.c_n_main.self_s"] = field("moments.c_n_main", 2)
        cn_calls = out["moments.c_n_main.calls"]
        out["moments.c_n_main.repeat_share"] = self.cn_repeats / cn_calls if cn_calls else 0.0
        out["verify.quad_calls"] = field("verify.integrate_on_S", 0)
        out["verify.quad_evaluations"] = self.quad_evaluations
        for check, seconds in check_seconds(funcs).items():
            out[f"verify.check.{check}.s"] = seconds
        out["cli.main_s"] = field("cli.main", 1)

        grid = {q: [0, 0.0] for q in DENSITY_QS}
        point_us = []
        for (i, _, _, _, _, terms), (_, q, vectorised, points, seconds) in zip(
            self.density, self.density_samples()
        ):
            out["densities.points"] += points
            if vectorised:
                out["densities.product_factors"] += product_lengths[i] * points
                if q in grid:
                    grid[q][0] += points
                    grid[q][1] += seconds
            else:
                out["densities.product_factors"] += terms
                point_us.append(seconds * 1e6)
        for q, (points, seconds) in grid.items():
            out[f"densities.q{q}.points_per_s"] = points / seconds if seconds else 0.0
        if point_us:
            out["densities.point_call_p99_us"] = float(np.percentile(point_us, 99))
        out["densities.peak_bytes"] = self.density_peak
        return out

    def product_lengths(self):
        """K for every traced vectorised density call, from a single-point call.

        Run after ``uninstall``: the single-point calls made here are not
        part of the workload.
        """
        densities = importlib.import_module("qaw.densities")
        point = {"f_N": densities.f_N, "f_CN": densities.f_CN, "phi": densities.phi_cond}
        cache = {}
        out = {}
        for i, density, vectorised, _, call, _ in self.density:
            if not vectorised:
                continue
            key = (density, tuple(call.items()))
            if key not in cache:
                cache[key] = point[density](0.0, **call).terms
            out[i] = cache[key]
        return out


def check_seconds(funcs):
    """Inclusive seconds per suite check, summed over its calls."""
    return {check: funcs.get(f"verify.check_{check}", (0, 0.0))[1] for check in CHECKS}


def _q_of(call):
    return call["p"].q if "p" in call else call["q"]
