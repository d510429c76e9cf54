#!/usr/bin/env python3
"""Tour the inequality toolkit: comparison bounds, maximal inequalities,
and the decreasing majorant chain.

Each block prints a classical inequality next to a numerical check of it:
the Bihari bound collapsing to Gronwall for a linear modulus, Doob's
maximal inequality on simulated martingales, and the recursion whose
iterates squeeze the approximation gap to zero.
"""

import math

import numpy as np

from svie import (
    bihari_bound,
    brownian_martingale_ensemble,
    build_grid,
    compensated_jump_ensemble,
    doob_check,
    linear_modulus,
    log_modulus,
    majorant_recursion,
    LevyMeasure,
)

print("== Bihari bound, linear modulus (Gronwall) ==")
mod = linear_modulus(1.0)
for y0, z in [(0.1, 1.0), (1.0, 2.0), (10.0, 5.0)]:
    bound = bihari_bound(y0, z, mod)
    print(f"  y0 = {y0:5.1f}, z = {z:.0f}:  bound {bound:12.4f}  vs  y0 e^z = {y0 * math.exp(z):12.4f}")

print("\n== Bihari bound, logarithmic modulus ==")
y0 = math.exp(-2.0)
bound = bihari_bound(y0, math.log(2.0), log_modulus(1.0))
print(f"  y0 = e^-2, z = ln 2:  bound {bound:.6f}  vs  exact e^-1 = {math.exp(-1.0):.6f}")

print("\n== Doob maximal inequality, p = 2 (constant 4) ==")
grid = build_grid(1.0, 64)
brown = brownian_martingale_ensemble(grid, lambda s: np.cos(s) ** 2, 50_000, seed=7)
rep = doob_check(brown.sup_sq, brown.terminal_sq)
print(f"  brownian integral: E sup |X|^2 = {rep.lhs:.4f} <= 4 E|X(T)|^2 = {4 * rep.rhs:.4f}  pass {rep.passed}")

measure = LevyMeasure.lognormal(2.0)
jump = compensated_jump_ensemble(grid, measure, lambda s, xi: 0.1 * xi, 50_000, seed=8)
rep = doob_check(jump.sup_sq, jump.terminal_sq)
print(f"  compensated jumps: E sup |X|^2 = {rep.lhs:.4f} <= 4 E|X(T)|^2 = {4 * rep.rhs:.4f}  pass {rep.passed}")
mean = jump.terminal.mean()
se = jump.terminal.std(ddof=1) / math.sqrt(jump.terminal.size)
print(f"  compensation zero-mean: {mean:+.5f} within 4 se = {4 * se:.5f}: {abs(mean) <= 4 * se}")

print("\n== Majorant chain psi_1 = c3 t, psi_(j+1) = int kappa(psi_j) ==")
seq = majorant_recursion(1.0, linear_modulus(1.0), window=0.5, steps=256, iterations=30)
for j in (0, 1, 4, 9, 29):
    print(f"  psi_{j + 1:<2d}(0.5) = {seq.curves[j, -1]:.3e}")
decreasing = bool(np.all(seq.curves[1:] <= seq.curves[:-1] + 1e-15))
print(f"  monotone decreasing chain: {decreasing}; psi_2(0.5) hits t^2/2 = 0.125 exactly")
