"""Benchmark of the qaw package: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout; the library is imported from
``src/``, nothing is built or installed.  Every body of work runs in a
fresh child interpreter (``child.py``), one at a time: a closed loop with a
single caller.  Bodies are repeated until ``--seconds`` have passed, and
the medians over bodies are reported.

``--trace 0`` gives the end-to-end metrics, measured with spans only at
the density entry points and the suite checks:

    wall_s              median wall time of one body, after set-up
    setup_s             median time from starting a child until it has
                        imported the library (``qaw.cli`` for verify_suite);
                        at least five children per run
    peak_rss_mb         median peak resident memory of a child
    grid_points_per_s   density values per second in vectorised
                        ``f_N_values`` / ``f_CN_values`` / ``phi_cond_values``
                        calls (all points over all time, per body)
    point_call_p50_us   median latency of single-point ``f_N`` / ``f_CN`` /
                        ``phi_cond`` calls, taken per (density, q) and
                        combined over those groups by geometric mean, so
                        each regime counts once whatever its call count

``failed_frac`` (failed over attempted operations) is printed as well; it is
0 when the code is correct, so it travels as the ``failed`` and
``attempted`` fields rather than as a metric with a relative bound.

``--trace 1`` runs one untraced body, then traced bodies in which every
public function of every ``qaw`` module is wrapped (see ``spans.py``), and
reports the per-layer metrics; ``trace.overhead_s`` is the traced minus
the untraced wall time of a body.

``--workload all`` runs every workload both ways and prints one table;
``results/`` keeps such outputs as baselines.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 whenever the bodies ran, whether or not they were correct, and 1 when a
child could not run at all (for example without ``src/qaw``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("verify_suite", "density_grid", "moment_series")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("grid_points_per_s", "1/s"),
    ("point_call_p50_us", "us"),
)
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170  # every run, set-up included, ends well inside 180 s


class ChildError(RuntimeError):
    """A child interpreter could not start or finish a body."""


def _read_until(proc, buf, done, deadline):
    fd = proc.stdout.fileno()
    while not done(buf):
        left = deadline - time.monotonic()
        if left <= 0:
            raise ChildError("child timed out")
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        buf += chunk
    return buf


def run_child(workload, seed, mode, deadline):
    """Start one child; return (seconds until ready, result dict or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, workload, str(seed), mode],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        buf = _read_until(proc, b"", lambda b: b"\n" in b, deadline)
        setup_s = time.perf_counter() - t0
        if not buf.startswith(b"ready\n"):
            raise ChildError(f"{workload} child did not get ready")
        buf = _read_until(proc, buf, lambda b: False, deadline)
        code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except (ChildError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0:
        raise ChildError(f"{workload} child exited with code {code}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(buf.decode().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(name, values, unit):
    lo, hi = min(values), max(values)
    return (f"  {name:<34} {_median(values):>14.6g} {unit:<6}"
            f" n={len(values)} min={lo:.6g} max={hi:.6g}")


def _number(value):
    """Counts in full, other values to six digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def _tail(values):
    """The highest of p99 and p90 with at least ten samples beyond it, if any."""
    for pct, beyond in ((99, 1000), (90, 100)):
        if len(values) >= beyond:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return f" p{pct}={cut:.6g}"
    return ""


def _median_detail(bodies):
    keys = sorted({k for b in bodies for k in b["detail"]})
    return {k: _median([b["detail"][k] for b in bodies if k in b["detail"]]) for k in keys}


def measure_end_to_end(workload, seed, seconds, deadline):
    start = time.monotonic()
    setups, bodies = [], []
    while not bodies or time.monotonic() - start < seconds:
        setup_s, body = run_child(workload, seed, "plain", deadline)
        setups.append(setup_s)
        bodies.append(body)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", deadline)[0])
    samples = {
        "wall_s": [b["wall_s"] for b in bodies],
        "setup_s": setups,
        "peak_rss_mb": [b["maxrss_mb"] for b in bodies],
        "grid_points_per_s": [b["grid_points"] / b["grid_s"] for b in bodies],
    }
    groups = {}
    for b in bodies:
        for key, latencies in b["point_us"].items():
            groups.setdefault(key, []).extend(latencies)
    medians = {key: _median(v) for key, v in groups.items()}
    values = {name: _median(v) for name, v in samples.items()}
    values["point_call_p50_us"] = math.exp(
        statistics.fmean(math.log(v) for v in medians.values()))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted = sum(b["attempted"] for b in bodies)
    failed = sum(b["failed"] for b in bodies)
    lines = [f"{workload}: end to end, {len(bodies)} bodies, seed {seed}"]
    lines += [_summary(name, samples[name], unit) for name, unit in END_TO_END
              if name in samples]
    lines.append(f"  {'point_call_p50_us':<34} {values['point_call_p50_us']:>14.6g}"
                 f" us     geometric mean over {len(groups)} (density, q) groups")
    lines += [f"    {key:<32} {medians[key]:>14.6g} us     n={len(v)}{_tail(v)}"
              for key, v in groups.items()]
    lines.append(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio"
                 f"  failed={failed} attempted={attempted}")
    detail = _median_detail(bodies)
    lines += [f"  detail {k:<27} {v:>14.6g}" for k, v in detail.items()]
    return metrics, attempted, failed, detail, lines


def measure_per_layer(workload, seed, seconds, deadline):
    start = time.monotonic()
    _, plain = run_child(workload, seed, "plain", deadline)
    traced = []
    while not traced or time.monotonic() - start < seconds:
        traced.append(run_child(workload, seed, "traced", deadline)[1])
    values = {name: _median([b["per_layer"][name] for b in traced])
              for name, _ in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = _median([b["wall_s"] for b in traced]) - plain["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    attempted = plain["attempted"] + sum(b["attempted"] for b in traced)
    failed = plain["failed"] + sum(b["failed"] for b in traced)
    lines = [f"{workload}: per layer, {len(traced)} traced bodies, seed {seed}"]
    lines += [f"  {name:<34} {_number(values[name]):>14} {unit}" for name, unit in PER_LAYER]
    lines.append(f"  {'failed_frac':<34} {failed / attempted:>14.6g} ratio"
                 f"  failed={failed} attempted={attempted}")
    lines.append(f"  first traced body: {traced[0]['spans']} spans over"
                 f" {traced[0]['operations']} operations; most self time in:")
    lines += [f"    {name:<40} {own:10.4f} s {calls:>10d} calls"
              for own, name, calls in traced[0]["top_self_s"]]
    return metrics, attempted, failed, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.workload != "all":
            measure = measure_per_layer if args.trace else measure_end_to_end
            metrics, attempted, failed, *_, lines = measure(
                args.workload, args.seed, args.seconds, deadline)
            print("\n".join(lines))
            result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
            for workload in WORKLOADS:
                deadline = time.monotonic() + DEADLINE_S
                e2e, a1, f1, detail, lines = measure_end_to_end(
                    workload, args.seed, args.seconds, deadline)
                print("\n".join(lines), flush=True)
                deadline = time.monotonic() + DEADLINE_S
                layer, a2, f2, lines = measure_per_layer(
                    workload, args.seed, args.seconds, deadline)
                print("\n".join(lines), flush=True)
                result["attempted"] += a1 + a2
                result["failed"] += f1 + f2
                result["workloads"][workload] = {
                    "end_to_end": e2e, "per_layer": layer, "detail": detail}
            result["correct"] = result["failed"] == 0
    except ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
