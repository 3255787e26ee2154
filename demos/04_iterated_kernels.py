#!/usr/bin/env python3
"""Iterated kernels K_n of T_a^n and their profile functions g_n.

K_n(x, y) = b_n 1{y <= x^(a^n)} x^(a_n) g_n(x^(-a^n) y).  The profile
g_n has an explicit alternating closed form, stable only while its terms
stay small, and a matrix route (g_n is the law of a sum of independent
exponentials, read from one matrix exponential) that is accurate
everywhere; the two agree wherever both apply, and the closed lower
bound (1 - z^(1/((n-1)a)))^(n-1) sits below g_n throughout.
"""

import math

import numpy as np

from volterra_alpha import (
    CancellationError,
    g_closed,
    g_recursive,
    g_value,
    kernel_K,
    kernel_lower_bound,
    make_kernel_spec,
)

print("=" * 72)
print("1. Coefficient sequences a_n, b_n")
print("=" * 72)
print(f"\n  {'a':>5} {'n':>3} {'a_n':>14} {'b_n':>14} {'log b_n':>12}")
for alpha in (0.5, 1.0, 2.0):
    for n in (1, 3, 6, 10):
        s = make_kernel_spec(alpha, n)
        print(f"  {alpha:>5.1f} {n:>3} {s.a_n:>14.6f} {s.b_n:>14.6e} {s.log_b_n:>12.4f}")

print()
print("=" * 72)
print("2. Profile functions: closed form vs matrix route")
print("=" * 72)
print(f"\n  {'a':>5} {'n':>3} {'z':>5} {'closed':>14} {'recursive':>14} {'diff':>10}")
for alpha in (0.7, 1.5):
    for n in (2, 5, 9):
        spec = make_kernel_spec(alpha, n)
        for z in (0.2, 0.8):
            gc = g_closed(spec, z)
            gr = g_recursive(spec, z)
            print(f"  {alpha:>5.1f} {n:>3} {z:>5.1f} {gc:>14.10f} {gr:>14.10f} {abs(gc - gr):>10.2e}")

print(
    """
  The closed form refuses to answer once its alternating terms dwarf the
  result; the matrix route continues to work there:
"""
)
spec = make_kernel_spec(3.0, 12)
try:
    g_closed(spec, 0.9)
except CancellationError as exc:
    print(f"  closed form  at a=3, n=12, z=0.9 -> {type(exc).__name__}")
print(f"  matrix route at a=3, n=12, z=0.9 -> {g_recursive(spec, 0.9):.10f}")

print()
print("=" * 72)
print("3. The profile lower bound")
print("=" * 72)
print(f"\n  {'z':>5} {'lower bound':>14} {'g_5(z)':>14}   (a = 2, n = 5)")
spec = make_kernel_spec(2.0, 5)
for z in np.linspace(0.1, 0.9, 5):
    print(f"  {z:>5.1f} {kernel_lower_bound(spec, float(z)):>14.8f} {g_value(spec, float(z)):>14.8f}")

print()
print("=" * 72)
print("4. Kernel values and the unit-exponent collapse")
print("=" * 72)
print("\n  At a = 1, K_n(x, y) = (x - y)^(n-1)/(n-1)! on y <= x:")
spec = make_kernel_spec(1.0, 3)
for x, y in ((0.9, 0.2), (0.5, 0.4), (0.3, 0.8)):
    expect = (x - y) ** 2 / 2.0 if y <= x else 0.0
    print(f"    K_3({x}, {y}) = {kernel_K(spec, x, y):.8f}   closed form {expect:.8f}")
