#!/usr/bin/env python3
"""Watch successive approximation terminate exactly on a discrete grid.

On a grid with n steps the scheme is lower triangular: iterate k already
equals the fixed point on the first k entries, so at most n + 1 sweeps
reach it exactly, not just approximately.  This script prints the sup
distance between consecutive iterates and confirms the final iterate is
bitwise identical to the direct recursion.
"""

import numpy as np

from svie import (
    build_grid,
    direct_recursion,
    example_coefficients,
    picard_solve,
    sample_noise_path,
)

HORIZON = 0.5
STEPS = 64
SEED = 99
LINEAGE = (SEED, 0)

coeffs = example_coefficients(0.1, rate=2.0)
grid = build_grid(HORIZON, STEPS)
noise = sample_noise_path(grid, coeffs.measure, LINEAGE)
print(f"one fixed noise path: {noise.jump_times.size} jumps, lineage {LINEAGE}")

run = picard_solve(coeffs, noise, tolerance=0.0, k_max=STEPS + 1)
print(f"\nconverged: {run.converged} after {run.iterations} iterations (cap {STEPS + 1})")
print("\n  k    sup |x^k - x^(k-1)|")
for k, diff in enumerate(run.sup_diffs, start=1):
    if k <= 8 or diff == 0.0 or k == len(run.sup_diffs):
        print(f"  {k:3d}  {diff:.6e}")
    elif k == 9:
        print("  ...")

direct = direct_recursion(coeffs, noise)
print(f"\nfinal iterate bitwise equal to direct recursion: {np.array_equal(run.final.values, direct.values)}")
print(f"last sup difference is exactly zero: {run.sup_diffs[-1] == 0.0}")
