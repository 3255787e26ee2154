#!/usr/bin/env python3
"""Point spectrum and eigenfunctions of T_a on L^p[0, 1].

The family splits at a = 1: above it every member is quasi-nilpotent
(spectrum {0}, no eigenvalues); below it the eigenvalues form the
geometric sequence a^n (1 - a) with power-times-log-polynomial
eigenfunctions.  A matrix discretization confirms both regimes.
"""

import numpy as np

from volterra_alpha import (
    GridFunction,
    apply_T,
    discretize,
    eigen_residual,
    eigenfunction,
    eigenvalue,
    lp_norm,
    midpoints,
    spectral_radius_estimate,
    spectrum_description,
    top_eigenvalues,
)

print("=" * 72)
print("1. Two regimes")
print("=" * 72)
for alpha in (0.5, 1.0, 2.0):
    desc = spectrum_description(alpha)
    if desc.has_point_spectrum:
        eigs = ", ".join(f"{v:.5f}" for v in desc.eigenvalues(4))
        print(f"  a={alpha}: spectral radius {desc.spectral_radius:.3f}, eigenvalues {eigs}, ...")
    else:
        print(f"  a={alpha}: quasi-nilpotent (spectrum = {{0}}, no eigenvalues)")

print()
print("=" * 72)
print("2. Eigenvalues vs a 2048-point matrix discretization (a = 0.5)")
print("=" * 72)
alpha = 0.5
oracle_eigs = top_eigenvalues(discretize(alpha, 2048), 5)
print(f"\n  {'n':>3} {'formula a^n(1-a)':>18} {'matrix':>18} {'abs err':>10}")
for n, est in enumerate(oracle_eigs):
    lam = eigenvalue(alpha, n)
    print(f"  {n:>3} {lam:>18.10f} {est:>18.10f} {abs(lam - est):>10.2e}")

print()
print("=" * 72)
print("3. Eigenfunctions x^(a/(1-a)) P_n(log x)")
print("=" * 72)
print(
    """
P_n has degree exactly n and P_n(0) = 1; each coefficient follows from
the previous one through a single-term recursion.  Applying the operator
on a 4096-point grid reproduces lambda_n times the eigenfunction:
"""
)
print(f"  {'a':>5} {'n':>3} {'coeffs of P_n':<38} {'rel residual':>12}")
for alpha in (0.2, 0.5, 0.8):
    for n in range(3):
        fn = eigenfunction(alpha, n)
        coeffs = ", ".join(f"{c:.4f}" for c in fn.coeffs)
        resid = eigen_residual(alpha, n, 4096, 2)
        print(f"  {alpha:>5.2f} {n:>3} [{coeffs:<36}] {resid:>12.2e}")

print()
print("=" * 72)
print("4. Quasi-nilpotent regime certified by the triangular matrix")
print("=" * 72)
print("\n  Exact radius (largest diagonal entry) at N = 1024:")
for alpha in (1.0, 1.5, 2.0):
    rho = spectral_radius_estimate(discretize(alpha, 1024))
    print(f"    a={alpha}: spectral radius <= {rho:.2e}")
