"""Acceptance suite: one test per release criterion, at the stated tolerances.

Every test prints a single ``[PASS]``/``[FAIL]`` line naming its criterion,
then asserts, so the run log carries a one-line verdict per criterion.
"""

import json
import math
import time

import numpy as np

from svie.analysis import (
    bihari_bound,
    brownian_martingale_ensemble,
    compensated_jump_ensemble,
    doob_check,
    majorant_recursion,
    moment_check,
    picard_gap,
)
from svie.cli import RunConfig, emit_config, main
from svie.coefficients import (
    audit_linear_growth,
    deterministic_ode_coefficients,
    domain_sampler,
    example_coefficients,
    linear_modulus,
)
from svie.grid_noise import LevyMeasure, build_grid, sample_noise_ensemble, sample_noise_path
from svie.solver import direct_recursion, ensemble_simulate, picard_solve

E_HALF = 1.6487212707001282  # e^(1/2)
E_XI_SQ = 7.38905609893065  # E[xi^2] of the standard lognormal mark


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def quiet_path(grid):
    from svie.grid_noise import NoisePath

    return NoisePath(
        grid=grid,
        brownian=np.zeros(grid.steps),
        jump_times=np.empty(0),
        jump_marks=np.empty(0),
        lineage=(0, 0),
    )


def write_config(tmp_path, config):
    path = tmp_path / "run.cfg"
    path.write_text(emit_config(config), encoding="utf-8")
    return str(path)


def test_criterion_01_picard_exactness(tmp_path):
    started = time.perf_counter()
    config = RunConfig(
        coefficient_set="example",
        modulus="linear",
        horizon=0.5,
        steps=128,
        paths=1,
        master_seed=7,
        jump_coefficient=0.1,
        jump_rate=2.0,
        picard_tolerance=0.0,
        picard_k_max=129,
    )
    out = tmp_path / "picard"
    rc = main(["picard", "--config", write_config(tmp_path, config), "--out", str(out)])
    rows = (out / "picard.csv").read_text().splitlines()
    final_sup = float(rows[-1].split(",")[1])

    coeffs = example_coefficients(0.1, rate=2.0)
    grid = build_grid(0.5, 128)
    noise = sample_noise_path(grid, coeffs.measure, (7, 0))
    run = picard_solve(coeffs, noise, tolerance=0.0, k_max=129)
    direct = direct_recursion(coeffs, noise)
    bitwise = np.array_equal(run.final.values, direct.values)
    elapsed = time.perf_counter() - started

    ok = rc == 0 and final_sup == 0.0 and run.sup_diffs[-1] == 0.0 and bitwise and elapsed < 5.0
    report(
        "criterion 01 picard exactness",
        ok,
        f"exit {rc}, final sup_diff {final_sup!r}, bitwise match {bitwise}, {elapsed:.2f}s",
    )


def test_criterion_02_deterministic_convergence_order():
    started = time.perf_counter()
    coeffs = deterministic_ode_coefficients()
    errors = []
    for steps in (64, 128, 256):
        grid = build_grid(1.0, steps)
        terminal = direct_recursion(coeffs, quiet_path(grid)).values[-1]
        errors.append(abs(terminal - E_HALF))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - started
    ok = all(0.8 <= order <= 1.2 for order in orders) and elapsed < 1.0
    report(
        "criterion 02 deterministic convergence",
        ok,
        f"observed orders {orders[0]:.3f}, {orders[1]:.3f}, {elapsed:.2f}s",
    )


def test_criterion_03_gronwall_specialization():
    started = time.perf_counter()
    mod = linear_modulus(1.0)
    worst = 0.0
    for y0 in (0.1, 1.0, 10.0):
        for z in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
            got = bihari_bound(y0, float(z), mod)
            want = y0 * math.exp(z)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 1.0
    report("criterion 03 gronwall specialization", ok, f"worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_doob_maximal_inequality():
    started = time.perf_counter()
    coeffs = example_coefficients(0.1, rate=2.0)
    grid = build_grid(1.0, 64)
    horizon = grid.horizon

    brown = brownian_martingale_ensemble(grid, lambda s: coeffs.diffusion(horizon, s, 1.0), 100_000, seed=41)
    brown_rep = doob_check(brown.sup_sq, brown.terminal_sq)

    jump = compensated_jump_ensemble(
        grid, coeffs.measure, lambda s, xi: coeffs.jump(horizon, s, 1.0, xi), 100_000, seed=42
    )
    jump_rep = doob_check(jump.sup_sq, jump.terminal_sq)
    elapsed = time.perf_counter() - started
    ok = brown_rep.passed and jump_rep.passed and elapsed < 60.0
    report(
        "criterion 04 doob maximal inequality",
        ok,
        f"brownian {brown_rep.lhs:.3f} <= {brown_rep.bound:.3f}, "
        f"jump {jump_rep.lhs:.3f} <= {jump_rep.bound:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_uniform_moment_envelope():
    started = time.perf_counter()
    coeffs = example_coefficients(0.1, rate=2.0)
    grid = build_grid(0.5, 256)
    audit = audit_linear_growth(coeffs, domain_sampler(0.5, 10.0, seed=5), 1000)
    ensemble = ensemble_simulate(coeffs, grid, 10_000, master_seed=55)
    rep = moment_check(ensemble, coeffs, growth_c=audit.estimated_constant)
    elapsed = time.perf_counter() - started
    ok = audit.passed and rep.all_pass and ensemble.exploded.sum() == 0 and elapsed < 120.0
    report(
        "criterion 05 uniform moment envelope",
        ok,
        f"max estimate {float(np.max(rep.estimates)):.3f} vs bound {rep.bound:.3e} "
        f"with audited C {audit.estimated_constant:.2f}, {elapsed:.1f}s",
    )


def test_criterion_06_gap_and_majorant_diagnostics():
    started = time.perf_counter()
    coeffs = example_coefficients(0.1, rate=2.0)
    grid = build_grid(0.25, 64)
    noises = sample_noise_ensemble(grid, coeffs.measure, 1000, master_seed=66)
    gap = picard_gap(coeffs, noises, 1, 1, linear_modulus(coeffs.growth_constant))

    seq = majorant_recursion(1.0, linear_modulus(1.0), window=0.5, steps=256, iterations=30)
    chain_ok = bool(np.all(seq.curves[1:] <= seq.curves[:-1] + 1e-9))
    second_ok = abs(seq.curves[1, -1] - 0.125) <= 1e-6
    last_ok = seq.final_value <= 1e-9
    elapsed = time.perf_counter() - started
    ok = gap.all_pass and chain_ok and second_ok and last_ok and elapsed < 120.0
    report(
        "criterion 06 gap and majorant diagnostics",
        ok,
        f"gap max {float(np.max(gap.estimates)):.3e} under slope {gap.envelope_slope:.3e}, "
        f"psi2(0.5) = {float(seq.curves[1, -1])!r}, psi30(0.5) = {seq.final_value:.2e}, {elapsed:.1f}s",
    )


def test_criterion_07_compensation_zero_mean():
    started = time.perf_counter()
    measure = LevyMeasure.lognormal(2.0)
    grid = build_grid(1.0, 64)
    ens = compensated_jump_ensemble(grid, measure, lambda s, xi: 0.1 * xi * xi, 100_000, seed=77)
    mean = float(ens.terminal.mean())
    se = float(ens.terminal.std(ddof=1) / math.sqrt(ens.terminal.size))
    elapsed = time.perf_counter() - started
    ok = abs(mean) <= 4.0 * se and elapsed < 30.0
    report("criterion 07 compensation zero mean", ok, f"mean {mean:.5f} vs 4se {4.0 * se:.5f}, {elapsed:.1f}s")


def test_criterion_08_mark_moment_sanity():
    started = time.perf_counter()
    measure = example_coefficients(0.1, rate=2.0).measure
    rng = np.random.default_rng(88)
    marks = measure.sample_marks(rng, 100_000)
    second = float((marks * marks).mean())
    rel = abs(second - E_XI_SQ) / E_XI_SQ
    elapsed = time.perf_counter() - started
    ok = rel <= 0.05 and elapsed < 5.0
    report("criterion 08 mark moment sanity", ok, f"mean xi^2 {second:.3f} vs {E_XI_SQ:.3f} ({rel:.2%}), {elapsed:.1f}s")


def test_criterion_09_repeatability_and_seed_sensitivity():
    started = time.perf_counter()
    coeffs = example_coefficients(0.1, rate=2.0)
    grid = build_grid(0.5, 64)
    first = ensemble_simulate(coeffs, grid, 32, master_seed=9)
    second = ensemble_simulate(coeffs, grid, 32, master_seed=9)
    max_diff = float(np.max(np.abs(first.values - second.values)))
    perturbed = ensemble_simulate(coeffs, grid, 32, master_seed=10)
    changed = not np.array_equal(first.values, perturbed.values)
    elapsed = time.perf_counter() - started
    ok = max_diff == 0.0 and changed and elapsed < 5.0
    report(
        "criterion 09 repeatability",
        ok,
        f"identical reruns differ by {max_diff!r}, seed change alters paths {changed}, {elapsed:.1f}s",
    )


def test_criterion_10_end_to_end_reproducibility(tmp_path):
    started = time.perf_counter()
    config = RunConfig(
        coefficient_set="example",
        modulus="linear",
        horizon=0.5,
        steps=128,
        paths=200,
        master_seed=1234,
        jump_coefficient=0.1,
        jump_rate=2.0,
    )
    cfg_path = write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["simulate", "--config", cfg_path, "--out", str(out_a), "--threads", "1"])
    rc_b = main(["simulate", "--config", cfg_path, "--out", str(out_b), "--threads", "8"])
    same_paths = (out_a / "paths.csv").read_bytes() == (out_b / "paths.csv").read_bytes()
    same_summary = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    parsed = json.loads((out_a / "summary.json").read_text())
    elapsed = time.perf_counter() - started
    ok = rc_a == rc_b == 0 and same_paths and same_summary and parsed["n_paths"] == 200 and elapsed < 60.0
    report(
        "criterion 10 end-to-end reproducibility",
        ok,
        f"exits ({rc_a}, {rc_b}), byte-identical csv {same_paths}, json {same_summary}, {elapsed:.1f}s",
    )
