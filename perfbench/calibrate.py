"""Fixed calibration work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

It imports numpy and scipy.integrate, as svie does, and then runs a fixed
copy of the kinds of work the workloads spend their time on: a lower-
triangular row sweep of small numpy dot products driven from Python,
``scipy.integrate.quad`` calls on a Python integrand, and plain Python
arithmetic.  It uses nothing under ``src/``, so no change to svie changes
its time; run.py times it from launch to exit between the workload's
processes and scales the workload's times by it (see ``CALIBRATION_REF_S``
there).
"""

import math

import numpy as np
from scipy.integrate import quad

STEPS = 256
SWEEPS = 200
QUADS = 24_000
LOOP = 1_000_000

rng = np.random.default_rng(12345)
kernel = np.tril(rng.random((STEPS + 1, STEPS + 1))) / STEPS
noise = rng.standard_normal(STEPS + 1) * 0.01
values = np.zeros(STEPS + 1)
for _ in range(SWEEPS):
    values[0] = 1.0
    for i in range(1, STEPS + 1):
        values[i] = 1.0 + float(np.dot(kernel[i, :i], np.sin(values[:i]))) + noise[i]

area = 0.0
for k in range(QUADS):
    area += quad(lambda y, k=k: math.exp(-y * (1.0 + k / QUADS)) / (1.0 + y * y), 0.0, 1.0 + k / QUADS)[0]

total = 0
for i in range(LOOP):
    total += i * i % 7

if not (np.all(np.isfinite(values)) and math.isfinite(area) and total > 0):
    raise SystemExit("calibration arithmetic went wrong")
