"""Driving the verification suite from Python.

The suite that backs `qaw verify` is a plain function over a configuration
dataclass: pick checks, shrink grids, or hold every selected check to one
tolerance, and run it in-process.  Each check row records its residual next to the tolerance it
was held to.
"""

import time

from qaw import SuiteConfig, report_to_text, run_suite

config = SuiteConfig(
    checks=("normalization", "orthogonality_H", "sn_series"),
    q_grid=(0.0, 0.5),
    nmax=4,
)
reports = run_suite(config)
print("a trimmed configuration, full text report:")
print()
print(report_to_text(reports))

worst = max(reports, key=lambda r: r.residual / r.tolerance)
print(
    f"worst margin: {worst.name} {worst.params} "
    f"residual {worst.residual:.3e} vs tolerance {worst.tolerance:.1e}"
)

print()
print("the default configuration runs every identity over its full grid")
start = time.monotonic()
reports = run_suite()
elapsed = time.monotonic() - start
npass = sum(1 for r in reports if r.passed)
print(f"  {npass}/{len(reports)} checks passed in {elapsed:.1f}s")
by_name = {}
for r in reports:
    current = by_name.get(r.name)
    if current is None or r.residual > current.residual:
        by_name[r.name] = r
print(f"  {'check':<20} {'worst residual':>15} {'tolerance':>11}")
for name, r in by_name.items():
    print(f"  {name:<20} {r.residual:>15.3e} {r.tolerance:>11.1e}")
