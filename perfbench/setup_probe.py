"""Set-up cost every svie call pays: import svie, build grid, model and modulus.

    python3 perfbench/setup_probe.py STEPS

The benchmark times this process from launch to exit as ``setup_s``.
"""

import sys

import svie

grid = svie.build_grid(0.5, int(sys.argv[1]))
coeffs = svie.coefficient_catalogue("example", 0.1, 2.0)
modulus = svie.modulus_catalogue("linear", float(coeffs.growth_constant))
