"""One body of a benchmark workload, in the fresh interpreter that runs this file.

    python3 benchmarks/child.py WORKLOAD SEED MODE

MODE is ``setup`` (import the library, report ready, exit), ``plain`` (run
the body with spans at the density and check boundaries only; gives the
end-to-end metrics) or ``traced`` (every public function wrapped; gives the
per-layer metrics).  On stdout the child writes the line ``ready`` as soon
as the library is imported, then, unless MODE is ``setup``, one JSON object
with the body's results.  ``run.py`` starts it; it is not meant to be run
by hand.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    if workload == "verify_suite":
        import qaw.cli
    else:
        import qaw
    import_s = time.perf_counter() - t0
    if not os.path.abspath(qaw.__file__).startswith(SRC + os.sep):
        sys.exit(f"qaw was imported from {qaw.__file__}, not from {SRC}")
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return

    import json
    import random
    import resource
    import statistics

    import spans
    import workloads

    make_inputs, run, check = workloads.WORKLOADS[workload]
    inputs = make_inputs(random.Random(f"{workload}:{seed}"))
    tracer = spans.Tracer(select=spans.BOUNDARY if mode == "plain" else None)
    detail = {}
    tracer.install()
    t0 = time.perf_counter()
    outputs = run(inputs, tracer, detail)
    wall_s = time.perf_counter() - t0
    tracer.uninstall()
    attempted, failed, facts = check(inputs, outputs)
    result = {
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "import_s": import_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    samples = tracer.density_samples()
    funcs = tracer.by_function()
    if mode == "traced":
        per_layer = tracer.per_layer(funcs, tracer.product_lengths())
        per_layer["verify.rows"] = facts.get("rows", 0)
        per_layer["verify.rows_failed"] = facts.get("rows_failed", 0)
        per_layer["cli.import_s"] = import_s if workload == "verify_suite" else 0.0
        result["per_layer"] = per_layer
        result["spans"] = len(tracer.end)
        result["operations"] = len(set(tracer.op_of))
        result["top_self_s"] = sorted(
            ((own, name, calls) for name, (calls, _, own, _) in funcs.items()),
            reverse=True,
        )[:12]
    else:
        grid = [(pts, sec) for _, _, vec, pts, sec in samples if vec]
        result["grid_points"] = sum(p for p, _ in grid)
        result["grid_s"] = sum(s for _, s in grid)
        groups = {}
        for density, q, vec, _, sec in samples:
            if not vec:
                groups.setdefault(f"{density}@q={q!r}", []).append(sec * 1e6)
        result["point_us"] = groups
        if workload == "verify_suite":
            for name, seconds in spans.check_seconds(funcs).items():
                detail[f"check.{name}.s"] = seconds
        by_call = {}
        for density, q, vec, pts, sec in samples:
            if vec and pts >= 1000:
                by_call.setdefault(f"{density}_values.q{q!r}.ms", []).append(sec * 1e3)
        for key, v in by_call.items():
            detail[key] = statistics.median(v)
    result["detail"] = detail
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
