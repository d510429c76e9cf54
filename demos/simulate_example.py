#!/usr/bin/env python3
"""Simulate the built-in example model and compare moments to the envelope.

The model has drift x/2, diffusion 4 cos^2(t - s) x, and multiplicative
jumps c xi^2 x driven by lognormal marks at rate 2.  Every path is solved
by the lower-triangular recursion on a uniform grid; the second moment at
each grid time is then checked against the a-priori envelope
4 (1 + E|phi(T)|^2) exp(4 C max(T,1)^2).
"""

import numpy as np

from svie import (
    build_grid,
    ensemble_simulate,
    example_coefficients,
    moment_check,
)

HORIZON = 0.5
STEPS = 128
PATHS = 2000
SEED = 2718

coeffs = example_coefficients(0.1, rate=2.0)
grid = build_grid(HORIZON, STEPS)

print(f"simulating {PATHS} paths of the example model on [0, {HORIZON}] with {STEPS} steps")
ensemble = ensemble_simulate(coeffs, grid, PATHS, master_seed=SEED)
print(f"exploded paths: {int(ensemble.exploded.sum())} of {ensemble.n_paths}")

report = moment_check(ensemble, coeffs)
print(f"growth constant C = {coeffs.growth_constant:.3f}")
print(f"envelope 4(1 + E|phi(T)|^2) e^(4C) = {report.bound:.3e}")

quarters = [0, STEPS // 4, STEPS // 2, 3 * STEPS // 4, STEPS]
print("\n   t        E|x(t)|^2    stderr")
for i in quarters:
    print(f"  {report.times[i]:.3f}   {report.estimates[i]:12.4f}   {report.stderrs[i]:.4f}")

print(f"\nevery grid time under the envelope: {report.all_pass}")

# compensation makes the noise mean-zero, so the mean path tracks the
# drift ODE e^(t/2); the estimator is noisy under multiplicative noise
survivors = ensemble.survivors
mean_terminal = survivors[:, -1].mean()
se_terminal = survivors[:, -1].std(ddof=1) / np.sqrt(survivors.shape[0])
print(
    f"terminal mean {mean_terminal:.4f} +- {se_terminal:.4f} "
    f"vs drift ODE value {np.exp(HORIZON / 2):.4f}"
)
