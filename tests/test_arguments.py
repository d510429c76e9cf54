"""One rule for every numeric argument: a bad value raises ConfigurationError naming it.

Integer arguments take ints, integral floats and numpy integers; real
arguments take finite numbers within their bound.  Non-integral floats,
nan, inf, None and strings are rejected where they enter.
"""

import dataclasses
import math

import numpy as np
import pytest

from svie.analysis import bihari_bound, doob_check, majorant_recursion, picard_gap, uniform_moment_bound
from svie.cli import RunConfig
from svie.coefficients import (
    audit_linear_growth,
    audit_modulus,
    bihari_integral,
    deterministic_ode_coefficients,
    domain_sampler,
    example_coefficients,
    linear_modulus,
    linear_test_coefficients,
    osgood_ladder,
    pair_sampler,
    scale_for_log_modulus,
)
from svie.errors import ConfigurationError
from svie.grid_noise import LevyMeasure, NoiseBatch, build_grid, sample_brownian, sample_noise_ensemble, sample_noise_path
from svie.solver import picard_iterates, picard_solve

GRID = build_grid(1.0, 4)
ODE = deterministic_ode_coefficients()
NOISE = sample_noise_path(GRID, ODE.measure, (1, 0))
BATCH = NoiseBatch.of([NOISE])

# case -> (call with the argument under test, the name its message starts with, a valid value)
INTEGER_ARGUMENTS = {
    "RunConfig.steps": (lambda v: RunConfig(steps=v), "steps", 8),
    "RunConfig.paths": (lambda v: RunConfig(paths=v), "paths", 8),
    "RunConfig.master_seed": (lambda v: RunConfig(master_seed=v), "master_seed", 3),
    "RunConfig.picard_k_max": (lambda v: RunConfig(picard_k_max=v), "picard_k_max", 9),
    "TimeGrid.steps": (lambda v: build_grid(1.0, v), "steps", 4),
    "lineage.master_seed": (lambda v: sample_brownian(GRID, (v, 0)), "master_seed", 3),
    "lineage.path_index": (lambda v: sample_brownian(GRID, (0, v)), "path_index", 3),
    "sample_noise_ensemble.n_paths": (lambda v: sample_noise_ensemble(GRID, ODE.measure, v, 1), "n_paths", 2),
    "osgood_ladder.decades": (lambda v: osgood_ladder(linear_modulus(1.0), v), "decades", 3),
    "audit_linear_growth.samples": (lambda v: audit_linear_growth(ODE, domain_sampler(1.0), v), "samples", 4),
    "audit_modulus.samples": (
        lambda v: audit_modulus(ODE, linear_modulus(0.25), pair_sampler(1.0), v),
        "samples",
        4,
    ),
    "picard_gap.k": (lambda v: picard_gap(ODE, BATCH, v, 1, linear_modulus(0.25)), "k", 1),
    "picard_gap.m": (lambda v: picard_gap(ODE, BATCH, 1, v, linear_modulus(0.25)), "m", 1),
    "majorant_recursion.steps": (lambda v: majorant_recursion(1.0, linear_modulus(1.0), 0.5, steps=v), "steps", 16),
    "majorant_recursion.iterations": (
        lambda v: majorant_recursion(1.0, linear_modulus(1.0), 0.5, iterations=v),
        "iterations",
        3,
    ),
    "picard_solve.k_max": (lambda v: picard_solve(ODE, NOISE, k_max=v), "k_max", 5),
    "picard_iterates.keep": (lambda v: picard_iterates(ODE, NOISE, (v,)), "keep", 2),
}

REAL_ARGUMENTS = {
    "RunConfig.horizon": (lambda v: RunConfig(horizon=v), "horizon", 0.5),
    "RunConfig.jump_coefficient": (lambda v: RunConfig(jump_coefficient=v), "jump_coefficient", 0.1),
    "RunConfig.jump_rate": (lambda v: RunConfig(jump_rate=v), "jump_rate", 2.0),
    "RunConfig.picard_tolerance": (lambda v: RunConfig(picard_tolerance=v), "picard_tolerance", 1e-10),
    "TimeGrid.horizon": (lambda v: build_grid(v, 4), "horizon", 1.0),
    "LevyMeasure.total_mass": (lambda v: LevyMeasure(total_mass=v), "total_mass", 0.0),
    "LevyMeasure.lognormal.rate": (lambda v: LevyMeasure.lognormal(v), "rate", 1.0),
    "LevyMeasure.lognormal.mu": (lambda v: LevyMeasure.lognormal(1.0, mu=v), "mu", 0.0),
    "LevyMeasure.lognormal.sigma": (lambda v: LevyMeasure.lognormal(1.0, sigma=v), "sigma", 1.0),
    "Modulus.scale": (lambda v: linear_modulus(v), "modulus scale", 1.0),
    "example_coefficients.c": (lambda v: example_coefficients(v), "jump coefficient c", 0.1),
    "example_coefficients.rate": (lambda v: example_coefficients(0.1, v), "jump rate", 2.0),
    "linear_test_coefficients.c": (lambda v: linear_test_coefficients(v), "jump coefficient c", 0.1),
    "linear_test_coefficients.rate": (lambda v: linear_test_coefficients(0.1, v), "jump rate", 2.0),
    "scale_for_log_modulus.linear_scale": (lambda v: scale_for_log_modulus(v, 0.1), "linear_scale", 1.0),
    "scale_for_log_modulus.d_max": (lambda v: scale_for_log_modulus(1.0, v), "d_max", 0.1),
    "bihari_integral.v": (lambda v: bihari_integral(linear_modulus(1.0), v, 1.0), "v", 2.0),
    "bihari_integral.v_ref": (lambda v: bihari_integral(linear_modulus(1.0), 2.0, v), "v_ref", 1.0),
    "bihari_bound.y0": (lambda v: bihari_bound(v, 1.0, linear_modulus(1.0)), "y0", 1.0),
    "bihari_bound.z_integral": (lambda v: bihari_bound(1.0, v, linear_modulus(1.0)), "z_integral", 1.0),
    "doob_check.p": (lambda v: doob_check([1.0, 4.0], [1.0, 1.0], p=v), "p", 2.0),
    "doob_check.slack": (lambda v: doob_check([1.0, 4.0], [1.0, 1.0], slack=v), "slack", 0.05),
    "uniform_moment_bound.growth_c": (lambda v: uniform_moment_bound(v, 1.0, 1.0), "growth constant", 1.0),
    "uniform_moment_bound.horizon": (lambda v: uniform_moment_bound(1.0, v, 1.0), "horizon", 1.0),
    "uniform_moment_bound.initial_sq_mean": (
        lambda v: uniform_moment_bound(1.0, 1.0, v),
        "initial_sq_mean",
        1.0,
    ),
    "majorant_recursion.c3": (lambda v: majorant_recursion(v, linear_modulus(1.0), 0.5), "c3", 1.0),
    "majorant_recursion.window": (lambda v: majorant_recursion(1.0, linear_modulus(1.0), v), "window", 0.5),
    "picard_solve.tolerance": (lambda v: picard_solve(ODE, NOISE, tolerance=v), "tolerance", 1e-10),
}


@pytest.mark.parametrize("value", [2.5, math.nan], ids=["fractional", "nan"])
@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_non_integers_naming_the_argument(case, value):
    call, name, _ = INTEGER_ARGUMENTS[case]
    with pytest.raises(ConfigurationError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be an integer, got ")


@pytest.mark.parametrize("value", [math.nan, math.inf, None, "x"], ids=["nan", "inf", "none", "string"])
@pytest.mark.parametrize("case", REAL_ARGUMENTS)
def test_real_arguments_reject_non_finite_and_non_numbers_naming_the_argument(case, value):
    call, name, _ = REAL_ARGUMENTS[case]
    with pytest.raises(ConfigurationError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be finite")


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_integer_arguments_accept_integral_floats_and_numpy_integers(case):
    call, _, valid = INTEGER_ARGUMENTS[case]
    call(valid)
    call(float(valid))
    call(np.int64(valid))


@pytest.mark.parametrize("case", REAL_ARGUMENTS)
def test_real_arguments_accept_numpy_floats(case):
    call, _, valid = REAL_ARGUMENTS[case]
    call(valid)
    call(np.float64(valid))



# growth_constant follows the real-argument rule, except that None means "no analytic constant"
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "x"], ids=["nan", "inf", "negative", "string"])
def test_growth_constant_rejects_a_bad_value_naming_it(value):
    with pytest.raises(ConfigurationError) as info:
        dataclasses.replace(ODE, growth_constant=value)
    assert str(info.value).startswith("growth_constant must be finite and non-negative, got ")


@pytest.mark.parametrize("value", [None, 0.25, np.float64(0.25), 1])
def test_growth_constant_accepts_none_and_stores_a_float(value):
    stored = dataclasses.replace(ODE, growth_constant=value).growth_constant
    assert stored is None if value is None else (type(stored) is float and stored == value)
