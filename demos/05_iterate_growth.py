#!/usr/bin/env python3
"""Growth of iterate norms ||T_a^n|| across the three regimes.

log ||T_a^n|| grows linearly (slope log(1-a)) below a = 1, like
-n log n at a = 1, and like -(n^2/2) log a above it.  The library brackets
the norm between a closed lower bound and b_n-based upper bound; a matrix
discretization confirms the bracket for small n.
"""

from volterra_alpha import (
    LpContext,
    discretize,
    growth_trend,
    iterate_matrix_norm,
    iterate_norm_lower,
    iterate_norm_upper,
)

print("=" * 72)
print("1. The three growth regimes (bracket ends normalized at n_max = 50)")
print("=" * 72)
print(f"\n  {'a':>5} {'regime':>7} {'target':>10} {'lower end':>11} {'upper end':>11} {'midpoint':>10}")
for alpha in (0.3, 0.5, 1.0, 1.5, 2.0):
    r = growth_trend(alpha, 2.0, 50)
    print(
        f"  {alpha:>5.1f} {r.regime:>7} {r.target:>10.4f} {r.lower_end:>11.4f}"
        f" {r.upper_end:>11.4f} {r.midpoint:>10.4f}"
    )

print()
print("=" * 72)
print("2. Threshold effect: normalized log-norm per regime")
print("=" * 72)
print(
    """
Dividing log ||T^n|| by n (a < 1), n log n (a = 1) or n^2 (a > 1) makes
the three growth speeds directly visible:
"""
)
report = {a: growth_trend(a, 2.0, 40) for a in (0.5, 1.0, 2.0)}
print(f"  {'n':>4}  {'a=0.5 (per n)':^20}  {'a=1 (per n log n)':^20}  {'a=2 (per n^2)':^20}")
for i, n in enumerate(report[0.5].ns):
    if n % 8 != 0:
        continue
    line = f"  {n:>4}"
    for a in (0.5, 1.0, 2.0):
        r = report[a]
        line += f"  [{r.log_lower[i] / r.scale[i]:>7.3f}, {r.log_upper[i] / r.scale[i]:>7.3f}]"
    print(line)

print()
print("=" * 72)
print("3. Matrix oracle inside the bracket (N = 1024)")
print("=" * 72)
ctx = LpContext(2.0, 2.0)
print(f"\n  {'a':>5} {'n':>3} {'lower':>12} {'oracle':>12} {'upper':>12}")
for alpha in (0.5, 1.0, 2.0):
    m = discretize(alpha, 1024)
    for n in (2, 4, 6):
        est = iterate_matrix_norm(m, n, ctx)
        lo = iterate_norm_lower(alpha, n, 2.0)
        hi = iterate_norm_upper(alpha, n, 2.0)
        print(f"  {alpha:>5.1f} {n:>3} {lo:>12.4e} {est:>12.4e} {hi:>12.4e}")
