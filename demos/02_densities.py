"""The three densities and the ratio that links two of them.

f_N is the stationary q-Hermite weight on the interval
[-2/sqrt(1-q), 2/sqrt(1-q)]: a semicircle at q = 0, a standard normal at
q = 1.  Conditioning on a previous value y at correlation rho gives f_CN,
and conditioning on both a past y and a future z gives the two-sided
density phi.  The f_CN / f_N ratio stays inside closed-form bounds that
this script evaluates alongside the densities.
"""

import numpy as np

from qaw import CondDensityParams, f_CN, f_N, fcn_ratio_bounds, phi_cond, support_half_width

print("stationary density f_N across the q family")
print(f"{'x':>6} " + " ".join(f"q={q:<10}" for q in (0.0, 0.5, 0.9, 1.0)))
for x in (-1.5, -0.5, 0.0, 0.5, 1.5):
    row = [f_N(x, q).value for q in (0.0, 0.5, 0.9, 1.0)]
    print(f"{x:>6} " + " ".join(f"{v:<12.8f}" for v in row))
# f_N sums a theta series for 0 < q < 1 (a product at q <= 0 and near 0); q = 1 is closed form
terms = [f_N(0.0, q).terms for q in (0.0, 0.5, 0.9, 1.0)]
print(f"{'terms':>6} " + " ".join(f"{t:<12}" for t in terms))

q = 0.5
half = support_half_width(q)
print()
print(f"support at q = {q} is [{-half:.6f}, {half:.6f}]; outside it the density is 0")
print(f"  f_N({half + 0.1:.3f}) = {f_N(half + 0.1, q).value}")

print()
print("conditioning pulls mass toward rho * y")
y, rho = 1.2, 0.7
xs = np.linspace(-2.5, 2.5, 11)
print(f"{'x':>6} {'f_N':>12} {'f_CN(..|y=1.2, rho=0.7)':>24}")
for x in xs:
    print(f"{x:>6.2f} {f_N(float(x), q).value:>12.8f} {f_CN(float(x), y, rho, q).value:>24.8f}")

print()
print("two-sided conditioning interpolates between the endpoints")
p = CondDensityParams(1.2, 0.7, -0.8, 0.6, q)
for x in (-1.0, 0.0, 0.5, 1.0):
    ev = phi_cond(x, p)
    print(f"  phi({x:>4}) = {ev.value:.10f}   (J + M = {ev.terms} terms)")
print("a rho-part is J exact factors times exp of an M-term log series; J + M grows")
print("like 1 / sqrt(-ln q), where the product would need K ~ 1 / -ln(q) factors")
for q_high in (0.9, 0.99):
    ev = phi_cond(0.5, CondDensityParams(1.2, 0.7, -0.8, 0.6, q_high))
    print(f"  q = {q_high}: phi( 0.5) = {ev.value:.10f}   (J + M = {ev.terms} terms)")

print()
print("the f_CN / f_N ratio is bounded uniformly in x")
for rho in (0.3, 0.6):
    lower, upper = fcn_ratio_bounds(y, rho, q)
    ratios = [f_CN(x, y, rho, q).value / f_N(x, q).value for x in np.linspace(-2.6, 2.6, 9)]
    print(
        f"  rho = {rho}: bounds [{lower:.6f}, {upper:.6f}], "
        f"observed range [{min(ratios):.6f}, {max(ratios):.6f}]"
    )
