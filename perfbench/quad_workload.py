"""The ``quad-compensator`` workload: the Python API on the quadrature fallback.

    python3 perfbench/quad_workload.py --seed S --steps N --paths P --out FILE

Solves lineages (S, 0..P-1) of the ``example`` model with its closed-form
compensator removed, so ``direct_recursion`` reaches
``compensator_integral``'s one-quad-per-(row, column) fallback, and writes
each path's values to FILE as JSON (``null`` for an exploded path).
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import svie


def solve_paths(coeffs, seed: int, steps: int, paths: int) -> list:
    """Values of lineages (seed, 0..paths-1) on the workload's grid, None where a path exploded."""
    grid = svie.build_grid(0.5, steps)
    solved = []
    for idx in range(paths):
        noise = svie.sample_noise_path(grid, coeffs.measure, (seed, idx))
        try:
            solved.append(svie.direct_recursion(coeffs, noise).values.tolist())
        except svie.ExplosionError:
            solved.append(None)
    return solved


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--paths", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    coeffs = dataclasses.replace(svie.example_coefficients(0.1, 2.0), compensator=None)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(solve_paths(coeffs, args.seed, args.steps, args.paths), fh)


if __name__ == "__main__":
    main()
