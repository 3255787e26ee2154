#!/usr/bin/env python3
"""Singular values of T_a through the zeros of an entire function.

The squared singular values (eigenvalues of the adjoint composed with the
operator) are a/((1+a)^2 h_n) where h_0 < h_1 < ... are the positive
zeros of H_a(z) = sum (-z)^k / (k! prod_{j<=k} (j - 1/(1+a))).  At a = 1
everything collapses to cosines, recovering the classical picture.
"""

import math

import numpy as np

from volterra_alpha import (
    discretize,
    find_zeros,
    gram_eigenpair,
    deformation_gap,
    operator_residual,
    top_gram_eigenvalues,
)

print("=" * 72)
print("1. The entire function and its zeros")
print("=" * 72)
print("\n  At a = 1 the series equals cos(2 sqrt(z)); zeros pi^2 (1+2n)^2 / 16:")
zeros = find_zeros(1.0, 3)
for n, z in enumerate(zeros):
    print(f"    h_{n}(1) = {z:.8f}   expected {math.pi**2 / 16 * (1 + 2 * n) ** 2:.8f}")
print("\n  The limiting member has h_0 = 1.445796... :")
print(f"    h_0(inf) = {find_zeros(math.inf, 1)[0]:.8f}")

print()
print("=" * 72)
print("2. Gram eigenpairs at a = 1 are cosines")
print("=" * 72)
x = np.linspace(0.0, 1.0, 5)
pair = gram_eigenpair(1.0, 1)
print(f"\n  eigenvalue = {pair.eigenvalue:.10f}  (4/(9 pi^2) = {4 / (9 * math.pi**2):.10f})")
print(f"  {'x':>6} {'series':>12} {'cos(3 pi x/2)':>14}")
for xv in x:
    print(f"  {xv:>6.2f} {pair.eigenfunction(xv):>12.8f} {math.cos(1.5 * math.pi * xv):>14.8f}")

print()
print("=" * 72)
print("3. General exponent, checked two independent ways")
print("=" * 72)
alpha = 2.0
print(f"\n  a = {alpha}: analytic eigenvalues vs the discretized Gram matrix (N=2048)")
pairs = [gram_eigenpair(alpha, n) for n in range(3)]
matrix_eigs = top_gram_eigenvalues(discretize(alpha, 2048), 3)
print(f"  {'n':>3} {'zero h_n':>12} {'analytic':>14} {'matrix':>14}")
for pair, est in zip(pairs, matrix_eigs):
    print(f"  {pair.index:>3} {pair.zero_h:>12.6f} {pair.eigenvalue:>14.10f} {est:>14.10f}")

print("\n  Operator residual ||T* T f - lambda f|| / ||f|| on a 4096 grid:")
for pair in pairs:
    print(f"    n={pair.index}: {operator_residual(pair, 4096):.2e}")

print()
print("=" * 72)
print("4. Deformation toward the limiting series")
print("=" * 72)
print("\n  |H(eps, z) - H(0, z)| never exceeds 5 eps e^|z| for eps <= 1/8:")
for eps in (0.125, 0.05, 0.01):
    gap, bound = deformation_gap(eps, 1.0)
    print(f"    eps={eps:6.3f}, z=1: gap {gap:.6f} <= bound {bound:.6f}")
