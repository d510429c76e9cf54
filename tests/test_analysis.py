"""Comparison integrals, maximal inequalities, envelopes, and majorants."""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from svie import analysis, solver
from svie.analysis import (
    bihari_bound,
    bihari_integral,
    brownian_martingale_ensemble,
    compensated_jump_ensemble,
    doob_check,
    majorant_recursion,
    mean_stderr,
    moment_check,
    picard_gap,
    solution_martingales,
    uniform_moment_bound,
)
from svie.coefficients import (
    CoefficientSet,
    Modulus,
    _kappa_self_checks,
    audit_modulus,
    deterministic_ode_coefficients,
    example_coefficients,
    linear_modulus,
    linear_test_coefficients,
    log_modulus,
    osgood_ladder,
    pair_sampler,
    quadratic_modulus,
    zero_coefficients,
)
from svie.errors import AnalysisError, ConfigurationError, DomainError, ExplosionError, NumericalError
from svie.grid_noise import (
    LevyMeasure,
    MarkRule,
    NoiseBatch,
    build_grid,
    sample_noise_ensemble,
    sample_noise_path,
)
from svie.solver import Ensemble, ensemble_simulate, picard_iterates

E_XI = math.exp(0.5)
E_XI_SQ = math.exp(2.0)


# --- comparison integral and its inversion -----------------------------------


def test_comparison_integral_linear_kappa_is_a_logarithm():
    mod = linear_modulus(1.0)
    assert bihari_integral(mod, math.e, 1.0) == pytest.approx(1.0, rel=1e-8)
    assert bihari_integral(mod, 10.0, 5.0) == pytest.approx(math.log(2.0), rel=1e-8)
    assert bihari_integral(mod, 5.0, 10.0) == pytest.approx(-math.log(2.0), rel=1e-8)
    assert bihari_integral(mod, 3.0, 3.0) == 0.0


def test_comparison_integral_rejects_nonpositive_endpoints():
    mod = linear_modulus(1.0)
    with pytest.raises(ConfigurationError):
        bihari_integral(mod, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        bihari_integral(mod, 1.0, -2.0)


def test_comparison_integral_needs_positive_kappa_on_the_span():
    shifted = Modulus(kappa=lambda u: np.maximum(np.asarray(u) - 1.0, 0.0), scale=1.0, osgood_divergent=False)
    with pytest.raises(DomainError):
        bihari_integral(shifted, 3.0, 0.5)


@pytest.mark.parametrize("y0", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("z", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
def test_bound_inversion_reduces_to_exponential_growth(y0, z):
    # kappa(u) = u turns the comparison bound into y0 * exp(z)
    assert bihari_bound(y0, z, linear_modulus(1.0)) == pytest.approx(y0 * math.exp(z), rel=1e-6)


def test_bound_inversion_log_kappa_closed_form():
    # kappa(u) = u log(1/u): G(v) - G(y0) = ln ln(1/y0) - ln ln(1/v)
    y0 = math.exp(-2.0)
    v = bihari_bound(y0, math.log(2.0), log_modulus(1.0))
    assert v == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_bound_pins_zero_initial_data_at_zero():
    assert bihari_bound(0.0, 5.0, linear_modulus(1.0)) == 0.0


def test_bound_zero_initial_data_needs_divergence():
    convergent = Modulus(
        kappa=lambda u: np.sqrt(np.asarray(u, dtype=np.float64)), scale=1.0, osgood_divergent=False
    )
    with pytest.raises(DomainError):
        bihari_bound(0.0, 1.0, convergent)


def test_bound_detects_unreachable_targets():
    # kappa(u) = u^2: G(inf) - G(1) = 1, so z = 2 lies beyond reach; the
    # probe pushes kappa past the overflow threshold along the way
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        bihari_bound(1.0, 2.0, quadratic_modulus(1.0))


# --- maximal inequality -------------------------------------------------------


def test_doob_check_passes_within_slack_and_fails_beyond():
    terminal_sq = np.ones(1000)
    assert doob_check(4.1 * terminal_sq, terminal_sq).passed
    report = doob_check(4.3 * terminal_sq, terminal_sq)
    assert not report.passed
    assert report.constant == 4.0
    assert report.bound == pytest.approx(4.0 * 1.05)


def test_doob_check_other_exponents_change_the_constant():
    terminal_sq = np.ones(100)
    report = doob_check(terminal_sq, terminal_sq, p=4.0 / 3.0)
    assert report.constant == pytest.approx(4.0 ** (4.0 / 3.0))
    assert report.passed


def test_doob_check_validates_inputs():
    with pytest.raises(ConfigurationError):
        doob_check(np.ones(5), np.ones(4))
    with pytest.raises(ConfigurationError):
        doob_check(np.ones(5), np.ones(5), p=1.0)
    with pytest.raises(AnalysisError):
        doob_check(np.full(5, np.nan), np.ones(5))
    with pytest.raises(AnalysisError):
        doob_check(0.5 * np.ones(5), np.ones(5))


def test_doob_check_fails_a_power_past_the_largest_double_without_a_warning():
    # pytest turns warnings into errors here, so numpy's overflow warning would raise
    report = doob_check([1e10, 4e10], [1e10, 1e10], p=100)
    assert report.lhs == math.inf and report.rhs == math.inf
    assert not report.passed



def test_doob_check_fails_a_bound_that_overflows():
    # finite squares whose spread overflows: the standard error and so the
    # bound are inf, and an infinite bound bounds nothing
    report = doob_check([1e307, 0.0], [1e307, 0.0])
    assert math.isfinite(report.lhs) and report.bound == math.inf
    assert not report.passed

# --- second-moment envelope ---------------------------------------------------


def test_envelope_closed_forms():
    assert uniform_moment_bound(1.0, 0.5, 1.0) == pytest.approx(8.0 * math.exp(4.0), rel=1e-14)
    assert uniform_moment_bound(0.0, 2.0, 0.0) == 4.0
    assert uniform_moment_bound(0.0, 0.25, 1.0) == 8.0
    # horizons below 1 round up to the unit window
    assert uniform_moment_bound(1.0, 0.5, 0.0) == uniform_moment_bound(1.0, 1.0, 0.0)


def test_envelope_returns_inf_on_overflow_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert uniform_moment_bound(200.0, 1.0, 1.0) == math.inf


def test_envelope_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        uniform_moment_bound(-1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        uniform_moment_bound(1.0, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        uniform_moment_bound(1.0, 1.0, -0.5)


def test_moment_check_constant_paths_sit_under_the_envelope():
    grid = build_grid(0.5, 8)
    coeffs = zero_coefficients()
    ens = ensemble_simulate(coeffs, grid, 16, master_seed=2)
    report = moment_check(ens, coeffs)
    np.testing.assert_allclose(report.estimates, np.ones(9), atol=0.0)
    assert report.bound == 8.0
    assert report.all_pass
    assert report.survivors == 16 and report.exploded == 0


def test_moment_check_and_picard_gap_require_a_growth_constant():
    grid = build_grid(0.5, 4)
    coeffs = zero_coefficients()
    stripped = type(coeffs)(
        drift=coeffs.drift,
        diffusion=coeffs.diffusion,
        initial=coeffs.initial,
        measure=coeffs.measure,
        name="no-constant",
    )
    ens = ensemble_simulate(stripped, grid, 4, master_seed=3)
    message = "^coefficient set 'no-constant' has no growth_constant; give it one with dataclasses.replace"
    with pytest.raises(ConfigurationError, match=message):
        moment_check(ens, stripped)
    given = dataclasses.replace(stripped, growth_constant=0.0)
    assert moment_check(ens, given).all_pass
    noises = sample_noise_ensemble(grid, stripped.measure, 4, 3)
    with pytest.raises(ConfigurationError, match=message):
        picard_gap(stripped, noises, 1, 1, linear_modulus(0.25))
    assert picard_gap(given, noises, 1, 1, linear_modulus(0.25)).all_pass


def test_moment_check_fails_a_square_past_the_largest_double_without_a_warning():
    # pytest turns warnings into errors here, so numpy's overflow warning would raise
    grid = build_grid(0.5, 8)
    ens = Ensemble(sample_noise_ensemble(grid, LevyMeasure.empty(), 3, 0), np.full((3, 9), 1e200), np.full(3, -1), 0)
    report = moment_check(ens, zero_coefficients())
    assert np.all(report.estimates == math.inf)
    assert report.bound == 8.0
    assert not report.all_pass


def test_gap_envelope_slope_reads_the_growth_constant_of_the_set():
    coeffs = deterministic_ode_coefficients()
    mod = linear_modulus(0.25)
    c1 = 8.0 * math.exp(4.0 * 0.25)  # growth constant 1/4, phi = 1
    assert analysis.gap_envelope_slope(coeffs, mod, 0.5) == 12.0 * 0.25 * 4.0 * c1
    stripped = dataclasses.replace(coeffs, growth_constant=None)
    with pytest.raises(ConfigurationError, match="^coefficient set 'deterministic_ode' has no growth_constant"):
        analysis.gap_envelope_slope(stripped, mod, 0.5)
    zero = dataclasses.replace(coeffs, growth_constant=0.0)
    assert analysis.gap_envelope_slope(zero, mod, 0.5) == 12.0 * 0.25 * 4.0 * 8.0  # C1 = 8


# --- gap between successive approximations ------------------------------------


def test_gap_envelope_slope_closed_form_for_the_ode_set():
    coeffs = deterministic_ode_coefficients()
    noises = sample_noise_ensemble(build_grid(0.5, 16), coeffs.measure, 3, master_seed=4)
    report = picard_gap(coeffs, noises, 1, 1, linear_modulus(0.25))
    c1 = 8.0 * math.exp(4.0 * 0.25)
    assert report.envelope_slope == pytest.approx(12.0 * 0.25 * 4.0 * c1, rel=1e-12)
    assert report.all_pass


def test_gap_of_an_iterate_with_itself_is_zero():
    coeffs = deterministic_ode_coefficients()
    noises = sample_noise_ensemble(build_grid(0.5, 8), coeffs.measure, 2, master_seed=5)
    report = picard_gap(coeffs, noises, 2, 0, linear_modulus(0.25))
    assert np.all(report.estimates == 0.0)
    assert report.all_pass


def test_gap_estimates_grow_monotonically_in_time():
    coeffs = deterministic_ode_coefficients()
    noises = sample_noise_ensemble(build_grid(0.5, 32), coeffs.measure, 2, master_seed=6)
    report = picard_gap(coeffs, noises, 1, 2, linear_modulus(0.25))
    assert np.all(np.diff(report.estimates) >= 0.0)
    assert report.estimates[0] == 0.0


def test_gap_envelope_of_an_overflowing_slope_warns_nothing():
    coeffs = example_coefficients(0.1)
    noises = sample_noise_ensemble(build_grid(0.5, 8), coeffs.measure, 2, master_seed=8)
    overflowing = dataclasses.replace(coeffs, growth_constant=1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = picard_gap(overflowing, noises, 1, 1, linear_modulus(coeffs.growth_constant))
    assert report.envelope_slope == math.inf
    assert report.all_pass


def lineage_paths(grid, measure, n_paths, master_seed):
    """Lineages (master_seed, 0..n_paths-1) as separate noise paths, for the per-path references."""
    return [sample_noise_path(grid, measure, (master_seed, idx)) for idx in range(n_paths)]


def stacked(noises):
    """The batch whose row p is the one-row batch ``noises[p]``."""
    brownian = np.concatenate([noise.brownian for noise in noises])
    return NoiseBatch.of(noises[0].grid, brownian, [(noise.jump_times, noise.jump_marks) for noise in noises])


def per_path_gap(coeffs, noises, k, m):
    """E sup |x^{k+m} - x^k|^2 and its stderr from one Picard solve per path, in batch order."""
    sups = []
    for noise in noises:
        iterates = picard_iterates(coeffs, noise, (k, k + m))
        with np.errstate(over="ignore"):
            diff = iterates[k + m].values - iterates[k].values
            sq = diff * diff
        bad = ~np.isfinite(sq)
        if bad.any():
            t_bad = float(noise.grid.points[np.argmax(bad)])
            raise NumericalError(f"squared gap between Picard iterates {k} and {k + m} overflows at t = {t_bad}")
        sups.append(np.maximum.accumulate(sq))
    return mean_stderr(np.array(sups))


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize(("k", "m"), [(1, 1), (1, 2)])
def test_gap_matches_a_per_path_reference_bitwise(k, m):
    coeffs = example_coefficients(0.1, rate=40.0)
    noises = lineage_paths(build_grid(0.5, 32), coeffs.measure, 25, master_seed=12)
    report = picard_gap(coeffs, stacked(noises), k, m, linear_modulus(coeffs.growth_constant))
    estimates, stderrs = per_path_gap(coeffs, noises, k, m)
    assert report.estimates.max() > 0.0
    assert bitwise_equal(report.estimates, estimates)
    assert bitwise_equal(report.stderrs, stderrs)


def raw_jump_coefficients():
    """h = x * xi with no drift, diffusion or compensator, and phi = 1.

    On a quiet path with marks a then b in different cells, x^1 = 1 + a + b
    and x^2 = 1 + a + b (1 + a) after the second jump, so the marks choose
    whether the gap squares to inf (a = b = 1e100), iterate 2 overflows
    (1e160) or iterate 1 already does (1e308).
    """
    return CoefficientSet(
        drift=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(1.0),
        jump=lambda t, s, x, xi: np.asarray(x) * np.asarray(xi),
        compensator=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        growth_constant=1.0,
        name="raw-jump",
    )


GRID_8 = build_grid(1.0, 8)
KINDS = {
    # (jump times, marks): the gap squares to inf at t = 0.625
    "overflow": ((0.3, 0.6), (1e100, 1e100)),
    # iterate 2 explodes at grid index 5
    "sweep2": ((0.3, 0.6), (1e160, 1e160)),
    # iterate 1 explodes at grid index 2
    "sweep1": ((0.1, 0.2), (1e308, 1e308)),
    # iterate 1 explodes at grid index 5, iterate 2 earlier, at index 3
    "sweep1_late": ((0.1, 0.3, 0.6, 0.62), (1e200, 1e200, 1.5e308, 1.5e308)),
    "finite": ((0.3, 0.6), (0.5, 2.0)),
}


def hand_built_path(kind):
    times, marks = KINDS[kind]
    return NoiseBatch.of(GRID_8, np.zeros((1, 8)), [(np.array(times), np.array(marks))])


@pytest.mark.parametrize(
    "kinds",
    [
        ("overflow", "sweep1"),
        ("sweep2", "sweep1"),
        ("finite", "sweep2", "overflow", "sweep1"),
        ("finite", "overflow", "sweep2"),
        ("sweep1", "overflow", "sweep2"),
        ("finite", "sweep1_late", "sweep1"),
    ],
)
def test_gap_fails_on_the_first_failing_path_in_batch_order(kinds):
    coeffs = raw_jump_coefficients()
    noises = [hand_built_path(kind) for kind in kinds]
    with pytest.raises(NumericalError) as expected:
        per_path_gap(coeffs, noises, 1, 1)
    with pytest.raises(NumericalError) as raised:
        picard_gap(coeffs, stacked(noises), 1, 1, linear_modulus(1.0))
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    first = next(kind for kind in kinds if kind != "finite")
    assert isinstance(raised.value, ExplosionError) == (first != "overflow")


def test_gap_of_an_overflowing_model_matches_the_reference_and_warns_nothing():
    coeffs = example_coefficients(1e150, rate=40.0)
    noises = lineage_paths(build_grid(0.5, 16), coeffs.measure, 10, master_seed=1)
    with pytest.raises(NumericalError) as expected:
        per_path_gap(coeffs, noises, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as raised:
            picard_gap(coeffs, stacked(noises), 1, 1, linear_modulus(coeffs.growth_constant))
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_gap_validates_arguments():
    coeffs = deterministic_ode_coefficients()
    grid = build_grid(0.5, 8)
    noises = lineage_paths(grid, coeffs.measure, 2, master_seed=7)
    with pytest.raises(ConfigurationError):
        picard_gap(coeffs, stacked(noises), 0, 1, linear_modulus(0.25))
    with pytest.raises(ConfigurationError):
        picard_gap(coeffs, stacked(noises), 1, -1, linear_modulus(0.25))
    # the gap reads a laid-out batch only; a list of paths, or a batch's fields, is pointed to NoiseBatch.of
    for unlaid in (noises, tuple(noises[0]), []):
        with pytest.raises(ConfigurationError, match=r"^noise must be a NoiseBatch \(see NoiseBatch.of\), got "):
            picard_gap(coeffs, unlaid, 1, 1, linear_modulus(0.25))
    with pytest.raises(ConfigurationError, match=r"^noise\.brownian must have shape \(paths, 8\) with paths >= 1"):
        NoiseBatch.of(grid, np.empty((0, 8)), [])


@pytest.mark.parametrize(
    "field,change",
    [
        ("brownian", lambda b: b._replace(brownian=b.brownian[0])),
        ("brownian", lambda b: b._replace(brownian=b.brownian[:, :2])),
        ("jump_cells", lambda b: b._replace(jump_cells=b.jump_cells[:-1])),
        ("jump_times", lambda b: b._replace(jump_times=b.jump_times[::-1])),
        ("jump_times", lambda b: b._replace(jump_times=b.jump_times + 0.5)),
        ("jump_marks", lambda b: b._replace(jump_marks=b.jump_marks[:-1])),
        ("jump_paths", lambda b: b._replace(jump_paths=b.jump_paths + 1)),
        ("jump_paths", lambda b: b._replace(jump_paths=b.jump_paths.astype(float))),
        ("brownian", lambda b: b._replace(brownian=np.where(np.arange(4) == 1, math.nan, b.brownian))),
        ("jump_marks", lambda b: b._replace(jump_marks=np.where(b.jump_times == 0.3, math.inf, b.jump_marks))),
    ],
    ids=["1-D-brownian", "narrow-brownian", "short-cells", "unsorted-times", "times-past-T", "short-marks",
         "rows-out-of-range", "float-rows", "nan-increment", "inf-mark"],  # fmt: skip
)
def test_gap_rejects_a_batch_not_laid_out_as_noise_batch_lays_it_out(field, change):
    # unchecked, each of these reaches the sweep and ends in numpy's IndexError, in an ExplosionError (a
    # numerical failure reported for malformed input), or in no error at all
    batch = change(_hand_built_batch())
    with pytest.raises(ConfigurationError, match=rf"^noise\.{field} "):
        picard_gap(_polynomial_model(), batch, 1, 1, linear_modulus(1.0))
    with pytest.raises(ConfigurationError, match=rf"^noise\.{field} "):
        Ensemble(noise=batch, values=np.zeros((3, 5)), explosion_index=np.full(3, -1), master_seed=0)


@pytest.mark.parametrize(
    "field,change",
    [
        # 3 of 9 grid times, which moment_check would report as 9 times with 3 estimates
        ("values", lambda ens: {"values": ens.values[:, :3]}),
        # more rows than paths, which solution_martingales would meet as numpy's broadcast ValueError
        ("values", lambda ens: {"values": np.vstack([ens.values, ens.values])}),
        # a short explosion_index, which every statistic would ignore
        ("explosion_index", lambda ens: {"explosion_index": ens.explosion_index[:2]}),
    ],
    ids=["3-of-9-times", "more-rows-than-paths", "short-explosion-index"],
)
def test_an_ensemble_whose_arrays_do_not_fit_its_noise_is_rejected_naming_the_field(field, change):
    ensemble = ensemble_simulate(example_coefficients(0.1), build_grid(0.5, 8), 4, master_seed=1)
    with pytest.raises(ConfigurationError, match=f"^{field} has shape "):
        dataclasses.replace(ensemble, **change(ensemble))


# --- majorant recursion ---------------------------------------------------------


def test_majorant_second_curve_is_exact_for_linear_kappa():
    seq = majorant_recursion(1.0, linear_modulus(1.0), window=0.5, steps=256, iterations=2)
    assert seq.curves[1, -1] == pytest.approx(0.125, abs=1e-12)


def test_majorant_chain_decreases_to_negligible_levels():
    seq = majorant_recursion(1.0, linear_modulus(1.0), window=0.5, steps=256, iterations=30)
    assert np.all(seq.curves[1:] <= seq.curves[:-1] + 1e-9)
    assert seq.final_value <= 1e-9


def test_majorant_zero_slope_collapses_to_zero():
    seq = majorant_recursion(0.0, linear_modulus(1.0), window=1.0, steps=16, iterations=5)
    assert np.all(seq.curves == 0.0)


def test_majorant_smallness_precondition_names_the_first_bad_time():
    with pytest.raises(ConfigurationError) as info:
        majorant_recursion(1.0, linear_modulus(1.0), window=2.0, steps=64, iterations=3)
    assert " t = " in str(info.value)


def test_majorant_rejects_bad_arguments():
    with pytest.raises(ConfigurationError):
        majorant_recursion(-1.0, linear_modulus(1.0), window=0.5)
    with pytest.raises(ConfigurationError):
        majorant_recursion(math.inf, linear_modulus(1.0), window=0.5)
    with pytest.raises(ConfigurationError):
        majorant_recursion(1.0, linear_modulus(1.0), window=0.0)


def test_majorant_names_the_iteration_where_a_decreasing_kappa_breaks_the_chain():
    # kappa(c3 t) = exp(-t) <= c3 holds, but psi_3 = int exp(-(1 - e^-s)) ds
    # exceeds psi_2 = 1 - e^-t, since a decreasing kappa is not concave
    decreasing = Modulus(kappa=lambda u: np.exp(-np.asarray(u)), scale=1.0, osgood_divergent=False)
    with pytest.raises(AnalysisError, match="^majorant chain broke at iteration 3: psi_3 > psi_2 somewhere$"):
        majorant_recursion(1.0, decreasing, window=0.5, steps=64, iterations=5)


# --- one shape-checked call per reader of kappa ----------------------------------


@pytest.mark.parametrize(
    ("reader", "shape"),
    [
        (lambda mod: bihari_integral(mod, 1.0, 0.5), r"\(\d+,\)"),
        (lambda mod: osgood_ladder(mod), r"\(\d+,\)"),
        (lambda mod: _kappa_self_checks(mod, np.array([0.5])), r"\(\)"),
        (lambda mod: audit_modulus(linear_test_coefficients(), mod, pair_sampler(0.5, 10.0, seed=1), 50), r"\(50,\)"),
        (lambda mod: analysis.gap_envelope_slope(deterministic_ode_coefficients(), mod, 0.5), r"\(\)"),
        (lambda mod: majorant_recursion(1.0, mod, window=0.5, steps=64), r"\(65,\)"),
    ],
    ids=["bihari_integral", "osgood_ladder", "kappa_self_checks", "audit_modulus", "gap_envelope_slope", "majorant"],
)
def test_every_reader_of_kappa_names_a_value_of_the_wrong_shape(reader, shape):
    three = Modulus(kappa=lambda u: np.ones(3), scale=1.0, osgood_divergent=True)
    with pytest.raises(ConfigurationError, match=rf"^kappa gave shape \(3,\), which does not broadcast to {shape}$"):
        reader(three)


# --- the solver's own martingales ------------------------------------------------


def _polynomial_model(rate=3.0):
    """Plain kernels whose diffusion depends on s and whose jump kernel does not."""
    return CoefficientSet(
        drift=lambda t, s, x: 0.3 * x,
        diffusion=lambda t, s, x: (1.0 + t - s) * x,
        jump=lambda t, s, x, xi: (2.0 + t) * xi * x,
        compensator=lambda t, s, x: (2.0 + t) * (rate * E_XI) * x,
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(rate) if rate else LevyMeasure.empty(),
        growth_constant=1.0,
        name="polynomial",
    )


def _solved(coeffs, batch, master_seed=0):
    """The direct solve of ``batch`` as an Ensemble, whichever lineages its rows hold."""
    values = np.empty((len(batch.brownian), batch.grid.steps + 1))
    explosion = solver._sweep(coeffs, batch, values, values)
    values[explosion >= 0] = np.nan
    return Ensemble(noise=batch, values=values, explosion_index=explosion, master_seed=master_seed)


def _hand_built_batch():
    # on the grid 0, 1/4, ..., 1: path 0 has a jump exactly on t_2 and two
    # jumps in column 2, path 2 a jump at T; path 1 is the one to explode
    grid = build_grid(1.0, 4)
    trains = [
        ([0.3, -0.2, 0.5, -0.1], [0.5, 0.6, 0.7], [1.5, 0.5, 2.0]),
        ([0.1, 0.1, -0.4, 0.2], [0.3], [1.0]),
        ([-0.3, 0.4, 0.2, 0.1], [0.1, 1.0], [0.7, 1.2]),
    ]
    return NoiseBatch.of(grid, np.array([w for w, _, _ in trains]), [(np.array(t), np.array(m)) for _, t, m in trains])


def _loop_martingales(coeffs, ensemble):
    """(N, M) of each surviving row, one grid column and one jump at a time."""
    grid, brownian, times, marks, paths, _ = ensemble.noise
    pts, horizon = grid.points, grid.points[-1]
    rows = []
    for p in np.flatnonzero(~ensemble.exploded):
        x = ensemble.values[p]
        n_path, m_path = [0.0], [0.0]
        for i in range(1, grid.steps + 1):
            j = i - 1
            n_path.append(n_path[-1] + coeffs.diffusion(horizon, pts[j], x[j]) * brownian[p, j])
            cell = 0.0
            if coeffs.jump is not None:  # a model without jumps ignores the batch's jumps, as the sweep does
                cell = coeffs.compensator(horizon, pts[j], x[j]) * -grid.dt
                for tau, xi in zip(times[paths == p], marks[paths == p]):
                    if pts[j] < tau <= pts[i]:  # lands at i, the first grid index at or after tau, and reads x_j
                        cell += coeffs.jump(horizon, tau, x[j], xi)
            m_path.append(m_path[-1] + cell)
        rows.append((n_path, m_path))
    return [np.array(block) for block in zip(*rows)]


def _assert_reduces(ens, block):
    sup_abs, terminal = np.max(np.abs(block), axis=1), block[:, -1]
    np.testing.assert_array_equal(ens.sup_sq, sup_abs * sup_abs)
    np.testing.assert_array_equal(ens.terminal_sq, terminal * terminal)
    np.testing.assert_array_equal(ens.terminal, terminal)


@pytest.mark.parametrize("rate", [3.0, 0.0], ids=["jumps", "no-jumps"])
def test_solution_martingales_equal_a_plain_loop_and_drop_exploded_rows(rate):
    coeffs = _polynomial_model(rate)
    ensemble = _solved(coeffs, _hand_built_batch())
    assert not ensemble.exploded.any() and len(np.unique(ensemble.values[0])) == 5
    ensemble.values[1] = np.nan
    ensemble.explosion_index[1] = 2
    brownian_part, jump_part = solution_martingales(coeffs, ensemble)
    n_block, m_block = _loop_martingales(coeffs, ensemble)
    assert n_block.shape == m_block.shape == (2, 5)
    _assert_reduces(brownian_part, n_block)
    _assert_reduces(jump_part, m_block)
    assert np.any(n_block != 0.0)
    if rate:
        assert np.all(m_block[:, -1] != 0.0)
    else:
        assert coeffs.jump is None and np.all(m_block == 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_the_reducer_equals_the_row_cumsum_of_all_increments_bitwise(seed):
    # blocks of 1 to 33 columns; row 0 only -0.0, row 1 only +0.0, row 2 zeros of both signs,
    # the other rows normals with zeros of both signs among them
    rng = np.random.default_rng(seed)
    n = 200
    increments = rng.standard_normal((6, n))
    increments[rng.random((6, n)) < 0.3] = 0.0
    increments[:3] = 0.0
    increments = np.copysign(increments, rng.choice([-1.0, 1.0], increments.shape))
    increments[0], increments[1] = -0.0, 0.0
    cuts = np.cumsum(rng.integers(1, 34, n))
    bounds = [0, *cuts[cuts < n], n]
    ens = analysis._reduced(6, (increments[:, a:b].copy() for a, b in itertools.pairwise(bounds)))
    x = np.cumsum(increments, axis=1)
    sup_abs, terminal = np.max(np.abs(x), axis=1), x[:, -1]
    assert np.signbit(ens.terminal[:2]).tolist() == [True, False]
    assert ens.sup_sq.tobytes() == (sup_abs * sup_abs).tobytes()
    assert ens.terminal_sq.tobytes() == (terminal * terminal).tobytes()
    assert ens.terminal.tobytes() == terminal.tobytes()


def test_solution_martingales_that_overflow_are_rejected_by_doob_check_without_a_warning():
    coeffs = _polynomial_model()
    ensemble = _solved(coeffs, _hand_built_batch())
    ensemble.values[2] = 1e300  # finite states whose integrals overflow when squared
    brownian_part, jump_part = solution_martingales(coeffs, ensemble)
    for part in (brownian_part, jump_part):
        assert np.all(np.isfinite(part.sup_sq[:2])) and part.sup_sq[2] == math.inf
        with pytest.raises(AnalysisError, match="^ensemble contains non-finite values$"):
            doob_check(part.sup_sq, part.terminal_sq)


def test_a_fitted_compensator_gives_the_closed_forms_jump_martingale_within_its_tolerance():
    closed = _polynomial_model()
    fitted = dataclasses.replace(closed, compensator=None)
    ensemble = ensemble_simulate(closed, build_grid(0.5, 16), 20, master_seed=3)
    _, by_closed_form = solution_martingales(closed, ensemble)
    _, by_rule = solution_martingales(fitted, ensemble)
    np.testing.assert_allclose(by_rule.terminal, by_closed_form.terminal, rtol=0.0, atol=1e-7)


def test_solution_martingales_of_a_separable_jump_without_a_closed_form(monkeypatch):
    # the compensator of a separable jump is separable; called whole on the
    # (paths, n) states it integrates one row of a surviving path at a time
    closed = example_coefficients(0.1, rate=10.0)
    fitted = dataclasses.replace(closed, compensator=None)
    grid = build_grid(0.5, 32)
    ensemble = ensemble_simulate(closed, grid, 6, master_seed=83)
    ensemble.values[2] = np.nan
    ensemble.explosion_index[2] = 5
    shapes = []
    integrate = MarkRule.integrate

    def recorded(rule, fn):
        shapes.append(np.shape(result := integrate(rule, fn)))
        return result

    monkeypatch.setattr(MarkRule, "integrate", recorded)
    _, by_rule = solution_martingales(fitted, ensemble)
    monkeypatch.undo()
    assert shapes == [(grid.steps,)] * 5
    _, by_closed_form = solution_martingales(closed, ensemble)
    assert np.all(by_closed_form.terminal != 0.0)
    np.testing.assert_allclose(by_rule.terminal, by_closed_form.terminal, rtol=1e-8, atol=0.0)


def test_a_row_of_the_solution_martingales_is_the_batch_of_one_of_its_lineage():
    coeffs = example_coefficients(0.1, rate=10.0)
    grid = build_grid(0.5, 32)
    ensemble = ensemble_simulate(coeffs, grid, 6, master_seed=5)
    assert len(ensemble.noise.jump_times) > 6
    whole = solution_martingales(coeffs, ensemble)
    for p in range(6):
        one = sample_noise_path(grid, coeffs.measure, (5, p))
        alone = solution_martingales(coeffs, _solved(coeffs, one))
        for part, one in zip(whole, alone):
            for field in ("sup_sq", "terminal_sq", "terminal"):
                assert getattr(part, field)[p : p + 1].tobytes() == getattr(one, field).tobytes()


def _z(values):
    mean, se = mean_stderr(values)
    return float(mean / se)


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_the_brownian_solution_martingale_catches_increments_read_one_column_late(master_seed):
    # the mean of N_n is 0 for the solver; a solve on dW_{j+1} in column j
    # gives x_j a share of dW_j, which N, formed from the batch's own dW, sees
    coeffs = linear_test_coefficients()
    ensemble = ensemble_simulate(coeffs, build_grid(0.5, 128), 1000, master_seed)
    assert abs(_z(solution_martingales(coeffs, ensemble)[0].terminal)) <= 4.0
    noise = ensemble.noise
    late = _solved(coeffs, noise._replace(brownian=np.roll(noise.brownian, -1, axis=1)), master_seed)
    mutant = dataclasses.replace(late, noise=noise)
    assert abs(_z(solution_martingales(coeffs, mutant)[0].terminal)) >= 6.0


# --- ensemble statistics in column blocks (solver) ------------------------------

COLUMNS = solver._COLUMNS
# grid widths (n + 1) around the block size, where a block boundary or a
# trailing block of one column would show
WIDTHS = [2, 3, COLUMNS, COLUMNS + 1, COLUMNS + 2, 2 * COLUMNS + 1]


@pytest.mark.parametrize("width", [1, *WIDTHS, 2 * COLUMNS, 5 * COLUMNS + 7])
def test_column_blocks_cover_each_column_once_and_none_is_one_column_wide(width):
    blocks = list(solver._columns(width))
    assert [col for cols in blocks for col in range(width)[cols]] == list(range(width))
    assert all(min(2, width) <= cols.stop - cols.start <= COLUMNS + 1 for cols in blocks)


def _spread_ensemble(width, exploded):
    """257 rows on ``width`` grid times, of both signs and many magnitudes, so that summation order shows."""
    rng = np.random.default_rng(width)
    values = rng.lognormal(0.0, 3.0, (257, width)) * rng.choice([-1.0, 1.0], (257, width))
    explosion = np.full(257, -1)
    explosion[list(exploded)] = 1
    values[explosion >= 0] = np.nan
    noise = sample_noise_ensemble(build_grid(1.0, width - 1), LevyMeasure.empty(), 257, 0)
    return Ensemble(noise, values, explosion, 0)


@pytest.mark.parametrize(
    "exploded", [(), (0, 5, 256), range(1, 257)], ids=["none-exploded", "three-exploded", "one-survivor"]
)
@pytest.mark.parametrize("width", WIDTHS)
def test_survivor_moments_equal_the_whole_survivor_block_statistics_bitwise(width, exploded):
    ens = _spread_ensemble(width, exploded)
    survivors = ens.survivors
    want = (np.mean(survivors, axis=0), *mean_stderr(survivors * survivors))
    got = solver._survivor_moments(ens.values, ens.exploded)
    assert all(bitwise_equal(g, w) for g, w in zip(got, want))
    report = moment_check(ens, zero_coefficients())
    assert bitwise_equal(report.estimates, want[1]) and bitwise_equal(report.stderrs, want[2])
    assert (report.survivors, report.exploded) == (257 - len(exploded), len(exploded))


def test_gap_in_column_blocks_matches_the_per_path_reference_bitwise():
    coeffs = example_coefficients(0.1, rate=40.0)
    noises = lineage_paths(build_grid(0.5, 2 * COLUMNS), coeffs.measure, 25, master_seed=13)
    report = picard_gap(coeffs, stacked(noises), 1, 1, linear_modulus(coeffs.growth_constant))
    estimates, stderrs = per_path_gap(coeffs, noises, 1, 1)
    assert bitwise_equal(report.estimates, estimates) and bitwise_equal(report.stderrs, stderrs)


@pytest.mark.parametrize(("k", "m"), [(1, 1), (2, 1), (1, 2)])
def test_gap_leaves_the_batch_and_the_solved_ensemble_unchanged(k, m):
    coeffs = example_coefficients(0.1, rate=40.0)
    ens = ensemble_simulate(coeffs, build_grid(0.5, 2 * COLUMNS), 20, master_seed=14)
    before = [np.copy(a) for a in (ens.values, *ens.noise[1:])]
    first = picard_gap(coeffs, ens.noise, k, m, linear_modulus(coeffs.growth_constant))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, (ens.values, *ens.noise[1:])))
    again = picard_gap(coeffs, ens.noise, k, m, linear_modulus(coeffs.growth_constant))
    assert bitwise_equal(first.estimates, again.estimates) and bitwise_equal(first.stderrs, again.stderrs)


@pytest.mark.parametrize("steps", [COLUMNS, 2 * COLUMNS + 1])
def test_solution_martingales_in_column_blocks_equal_the_plain_loop(steps):
    coeffs = _polynomial_model()
    ensemble = ensemble_simulate(coeffs, build_grid(0.5, steps), 6, master_seed=4)
    for exploded in ((), (1, 4)):
        ens = dataclasses.replace(
            ensemble, values=ensemble.values.copy(), explosion_index=ensemble.explosion_index.copy()
        )
        ens.values[list(exploded)] = np.nan
        ens.explosion_index[list(exploded)] = 3
        brownian_part, jump_part = solution_martingales(coeffs, ens)
        n_block, m_block = _loop_martingales(coeffs, ens)
        _assert_reduces(brownian_part, n_block)
        _assert_reduces(jump_part, m_block)


# Peak traced memory of each statistic above what is live when it starts,
# in solution blocks of paths x (n + 1) doubles.  At these sizes the parent
# of the column-block change peaked at 3.0 (moment_check and cmd_simulate's
# moments), 6.1 (picard_gap) and 5.0 (solution_martingales) blocks.
MEMORY_STEPS, MEMORY_PATHS = 128, 4000


@pytest.fixture(scope="module")
def memory_case():
    coeffs = example_coefficients(0.1)
    return coeffs, ensemble_simulate(coeffs, build_grid(0.5, MEMORY_STEPS), MEMORY_PATHS, master_seed=1)


def traced_blocks(fn) -> float:
    """fn's peak traced memory, in blocks of MEMORY_PATHS x (MEMORY_STEPS + 1) doubles."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (MEMORY_PATHS * (MEMORY_STEPS + 1) * 8)


def test_moment_check_holds_a_fraction_of_a_solution_block(memory_case):
    coeffs, ens = memory_case
    assert traced_blocks(lambda: moment_check(ens, coeffs)) <= 0.6


def test_picard_gap_holds_its_two_iterates_and_a_fraction_of_a_block(memory_case):
    coeffs, ens = memory_case
    assert traced_blocks(lambda: picard_gap(coeffs, ens.noise, 1, 1, linear_modulus(coeffs.growth_constant))) <= 2.6


def test_solution_martingales_hold_about_two_solution_blocks(memory_case):
    # one buffer that is summed, and the compensator's values on the whole block
    coeffs, ens = memory_case
    assert traced_blocks(lambda: solution_martingales(coeffs, ens)) <= 2.1


# --- martingale ensemble builders ----------------------------------------------


def test_brownian_builder_unit_integrand_moments():
    grid = build_grid(1.0, 64)
    ens = brownian_martingale_ensemble(grid, lambda s: np.ones_like(s), 20000, seed=8)
    mean, se = ens.terminal.mean(), ens.terminal.std(ddof=1) / math.sqrt(20000)
    assert abs(mean) <= 4.0 * se
    assert ens.terminal_sq.mean() == pytest.approx(1.0, rel=0.05)
    assert np.all(ens.sup_sq + 1e-12 >= ens.terminal_sq)
    assert doob_check(ens.sup_sq, ens.terminal_sq).passed


def test_brownian_builder_matches_left_endpoint_variance():
    grid = build_grid(1.0, 64)
    ens = brownian_martingale_ensemble(grid, lambda s: s, 20000, seed=9)
    expected = float(np.sum(grid.points[:-1] ** 2) * grid.dt)
    assert ens.terminal_sq.mean() == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda grid: brownian_martingale_ensemble(grid, lambda s: np.ones(3), 10, seed=1),
            r"^integrand gave shape \(3,\), which does not broadcast to \(8,\)$",
        ),
        (
            # the compensator's quadrature is the first call of the integrand
            lambda grid: compensated_jump_ensemble(
                grid, LevyMeasure.lognormal(5.0), lambda s, xi: np.ones(2), 100, seed=1
            ),
            r"^integrand gave shape \(2,\), whose last axis does not run over the 161 marks$",
        ),
        (
            # right on the (times, marks) grid of the quadrature, wrong at the
            # drawn jumps; enough paths that a step draws more than two jumps
            lambda grid: compensated_jump_ensemble(
                grid, LevyMeasure.lognormal(5.0), lambda s, xi: xi if np.ndim(s) == 2 else np.ones(2), 100, seed=1
            ),
            r"^integrand gave shape \(2,\), which does not broadcast to \(\d+,\)$",
        ),
        (
            # the same at more paths: the first failing step's error reaches the caller
            lambda grid: compensated_jump_ensemble(
                grid,
                LevyMeasure.lognormal(5.0),
                lambda s, xi: xi if np.ndim(s) == 2 else np.ones(2),
                3075,
                seed=1,
            ),
            r"^integrand gave shape \(2,\), which does not broadcast to \(\d+,\)$",
        ),
    ],
    ids=["brownian-integrand", "jump-integrand", "jump-integrand-at-jumps", "jump-integrand-at-jumps-over-blocks"],
)
def test_builders_name_an_argument_of_the_wrong_shape(build, message):
    with pytest.raises(ConfigurationError, match=message):
        build(build_grid(1.0, 8))


def test_jump_builder_rejects_a_mean_jump_count_numpy_cannot_draw():
    with pytest.raises(ConfigurationError, match=r"^jump rate 2\.0 times horizon 1e\+19 is a mean jump count above "):
        compensated_jump_ensemble(build_grid(1e19, 4), LevyMeasure.lognormal(2.0), lambda s, xi: xi, 10, seed=1)


def test_jump_builder_zero_mass_gives_zero_paths():
    grid = build_grid(1.0, 8)
    ens = compensated_jump_ensemble(grid, LevyMeasure.empty(), lambda s, xi: xi, 50, seed=10)
    assert np.all(ens.sup_sq == 0.0) and np.all(ens.terminal == 0.0)


def test_jump_builder_compensation_is_mean_zero():
    grid = build_grid(1.0, 16)
    measure = LevyMeasure.lognormal(2.0)
    # 250 000 paths, so that the 5% below is about 4 standard deviations of terminal_sq.mean()
    ens = compensated_jump_ensemble(grid, measure, lambda s, xi: xi, 250_000, seed=11)
    mean, se = ens.terminal.mean(), ens.terminal.std(ddof=1) / math.sqrt(250_000)
    assert abs(mean) <= 4.0 * se
    # isometry: Var = rate * E[xi^2] * T for the state-free integrand
    assert ens.terminal_sq.mean() == pytest.approx(2.0 * E_XI_SQ, rel=0.05)
    assert doob_check(ens.sup_sq, ens.terminal_sq).passed


def test_jump_builder_quadrature_route_agrees_with_closed_form():
    grid = build_grid(1.0, 8)
    measure = LevyMeasure.lognormal(1.5)
    by_quadrature = compensated_jump_ensemble(grid, measure, lambda s, xi: xi * xi, 200, seed=13)
    _, _, closed_terminal = _dense_jump(
        grid, measure, lambda s, xi: xi * xi, 200, 13, compensator_rate=lambda s: 1.5 * E_XI_SQ * np.ones_like(s)
    )
    np.testing.assert_allclose(by_quadrature.terminal, closed_terminal, rtol=1e-6, atol=1e-9)


def test_jump_builder_quadrature_route_reads_each_grid_time():
    # the quadrature route integrates all grid times in one vector call;
    # an s-dependent integrand shows whether each time got its own rate
    grid = build_grid(1.0, 8)
    measure = LevyMeasure.lognormal(1.5)
    integrand = lambda s, xi: (1.0 + np.asarray(s)) * xi
    by_quadrature = compensated_jump_ensemble(grid, measure, integrand, 200, seed=14)
    closed_sup_sq, _, closed_terminal = _dense_jump(
        grid, measure, integrand, 200, 14, compensator_rate=lambda s: 1.5 * E_XI * (1.0 + np.asarray(s))
    )
    np.testing.assert_allclose(by_quadrature.terminal, closed_terminal, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(by_quadrature.sup_sq, closed_sup_sq, rtol=1e-6, atol=1e-9)


# --- builders: bitwise contract and memory bound --------------------------------


def _dense_reduced(increments):
    # the (paths, n) increments summed out of place along whole rows
    x = np.cumsum(increments, axis=1)
    sup_abs, terminal = np.max(np.abs(x), axis=1), x[:, -1]
    return sup_abs * sup_abs, terminal * terminal, terminal


def _dense_brownian(grid, integrand, n_paths, seed):
    # reference: one generator draws the n_paths normals of each step in turn, which is
    # one (n, paths) array of normals drawn at once
    n = grid.steps
    sigma = np.broadcast_to(np.asarray(integrand(grid.points[:-1]), dtype=np.float64), (n,))
    z = np.random.default_rng(seed).standard_normal((n, n_paths)).T
    return _dense_reduced(z * math.sqrt(grid.dt) * sigma)


def _dense_jump(grid, measure, integrand, n_paths, seed, compensator_rate=None):
    # reference: step by step, a Poisson(mass * dt) count per path, then that many times in
    # (t_j, t_{j+1}] and marks, each path's jumps added one at a time, less the step's trapezoid
    pts, n, dt = grid.points, grid.steps, grid.dt
    increments = np.zeros((n_paths, n))
    if measure.total_mass == 0.0:
        return _dense_reduced(increments)
    if compensator_rate is not None:
        rate = np.broadcast_to(np.asarray(compensator_rate(pts), dtype=np.float64), (n + 1,))
    else:
        rate = np.broadcast_to(measure.integrate(lambda xi: integrand(pts[:, np.newaxis], xi)), (n + 1,))
    rng = np.random.default_rng(seed)
    for j in range(n):
        counts = rng.poisson(measure.total_mass * dt, n_paths)
        total = int(counts.sum())
        times = pts[j] + dt * (1.0 - rng.random(total))
        marks = measure.sample_marks(rng, total)
        jumps = np.broadcast_to(np.asarray(integrand(times, marks), dtype=np.float64), times.shape)
        np.add.at(increments[:, j], np.repeat(np.arange(n_paths), counts), jumps)
        increments[:, j] -= (pts[j + 1] - pts[j]) * (rate[j] + rate[j + 1]) / 2.0
    return _dense_reduced(increments)


_JUMP_INTEGRAND = lambda s, xi: (1.0 + np.asarray(s)) * xi
_BUILDER_CASES = {
    "brownian": (
        lambda grid, n, seed: brownian_martingale_ensemble(grid, lambda s: 0.3 + s, n, seed),
        lambda grid, n, seed: _dense_brownian(grid, lambda s: 0.3 + s, n, seed),
    ),
    "jump-quadrature": (
        lambda grid, n, seed: compensated_jump_ensemble(grid, LevyMeasure.lognormal(3.0), _JUMP_INTEGRAND, n, seed),
        lambda grid, n, seed: _dense_jump(grid, LevyMeasure.lognormal(3.0), _JUMP_INTEGRAND, n, seed),
    ),
    "jump-zero-mass": (
        lambda grid, n, seed: compensated_jump_ensemble(grid, LevyMeasure.empty(), _JUMP_INTEGRAND, n, seed),
        lambda grid, n, seed: _dense_jump(grid, LevyMeasure.empty(), _JUMP_INTEGRAND, n, seed),
    ),
}


@pytest.mark.parametrize("case", sorted(_BUILDER_CASES))
@pytest.mark.parametrize("n_paths", [1, 1023, 1025, 3075], ids=["1", "block-1", "block+1", "3blocks+3"])
def test_block_streamed_builders_equal_the_one_shot_builders_bitwise(case, n_paths):
    built, dense = _BUILDER_CASES[case]
    grid = build_grid(1.0, 8)
    ens = built(grid, n_paths, 21)
    sup_sq, terminal_sq, terminal = dense(grid, n_paths, 21)
    for got, want in ((ens.sup_sq, sup_sq), (ens.terminal_sq, terminal_sq), (ens.terminal, terminal)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_brownian_builder_raises_an_overflow_under_the_callers_error_state():
    grid = build_grid(1.0, 8)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        brownian_martingale_ensemble(grid, lambda s: np.full_like(s, 1e308), 3072, seed=2)


@pytest.mark.parametrize("case", ["brownian", "jump-quadrature"])
def test_builder_memory_is_bounded_by_a_block(case):
    # the returned arrays and the per-path running values take O(paths), and
    # nothing else the builder holds grows with the step count; at 1 024
    # steps the jump builder's rate quadrature takes about as much as they do
    built = _BUILDER_CASES[case][0]
    built(build_grid(1.0, 16), 100_000, 5)  # a first call's one-off allocations are not the builder's
    peaks = {}
    for steps in (16, 128, 1024):
        tracemalloc.start()
        try:
            built(build_grid(1.0, steps), 100_000, 5)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[128] < 8e6
    assert peaks[1024] <= peaks[16] + 0.25e6


@pytest.mark.parametrize("build", ["brownian", "jump", "noise"])
@pytest.mark.parametrize(
    "n_paths,seed",
    [(2.5, 1), (math.inf, 1), (0, 1), (4, -1), (4, 2.5)],
    ids=["fractional-paths", "infinite-paths", "no-paths", "negative-seed", "fractional-seed"],
)
def test_builders_reject_bad_counts_and_seeds_with_configuration_error(build, n_paths, seed):
    grid = build_grid(1.0, 4)
    calls = {
        "brownian": lambda: brownian_martingale_ensemble(grid, lambda s: np.ones_like(s), n_paths, seed),
        "jump": lambda: compensated_jump_ensemble(grid, LevyMeasure.lognormal(1.0), lambda s, xi: xi, n_paths, seed),
        "noise": lambda: sample_noise_ensemble(grid, LevyMeasure.lognormal(1.0), n_paths, seed),
    }
    with pytest.raises(ConfigurationError):
        calls[build]()


def test_builders_accept_integral_floats_and_numpy_integers():
    grid = build_grid(1.0, 4)
    measure = LevyMeasure.lognormal(1.0)
    for build in (
        lambda n, seed: brownian_martingale_ensemble(grid, lambda s: np.ones_like(s), n, seed).terminal,
        lambda n, seed: compensated_jump_ensemble(grid, measure, lambda s, xi: xi, n, seed).terminal,
        lambda n, seed: sample_noise_ensemble(grid, measure, n, seed).brownian,
    ):
        want = build(8, 3)
        np.testing.assert_array_equal(build(8.0, 3.0), want)
        np.testing.assert_array_equal(build(np.int64(8), np.uint32(3)), want)
