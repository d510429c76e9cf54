"""Comparison integrals, maximal inequalities, envelopes, and majorants."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from svie import analysis
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
from svie.grid_noise import LevyMeasure, NoiseBatch, NoisePath, build_grid, sample_noise_ensemble, sample_noise_path
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
    report = picard_gap(coeffs, NoiseBatch.of(noises), k, m, linear_modulus(coeffs.growth_constant))
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
    return NoisePath(GRID_8, np.zeros(8), np.array(times), np.array(marks), lineage=(0, 0))


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
        picard_gap(coeffs, NoiseBatch.of(noises), 1, 1, linear_modulus(1.0))
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
            picard_gap(coeffs, NoiseBatch.of(noises), 1, 1, linear_modulus(coeffs.growth_constant))
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_gap_validates_arguments():
    coeffs = deterministic_ode_coefficients()
    grid = build_grid(0.5, 8)
    noises = lineage_paths(grid, coeffs.measure, 2, master_seed=7)
    with pytest.raises(ConfigurationError):
        picard_gap(coeffs, NoiseBatch.of(noises), 0, 1, linear_modulus(0.25))
    with pytest.raises(ConfigurationError):
        picard_gap(coeffs, NoiseBatch.of(noises), 1, -1, linear_modulus(0.25))
    # the gap reads a laid-out batch only; a list of paths is pointed to NoiseBatch.of
    for unlaid in (noises, noises[0], []):
        with pytest.raises(ConfigurationError, match=r"^noise must be a NoiseBatch \(see NoiseBatch.of\), got "):
            picard_gap(coeffs, unlaid, 1, 1, linear_modulus(0.25))
    with pytest.raises(ConfigurationError, match="^need at least one noise path$"):
        NoiseBatch.of([])
    mixed = noises + lineage_paths(build_grid(0.5, 16), coeffs.measure, 1, master_seed=7)
    with pytest.raises(ConfigurationError):
        NoiseBatch.of(mixed)
    # same step count, other horizon: the increments stack, so only the grid check rejects them
    stretched = noises + lineage_paths(build_grid(1.0, 8), coeffs.measure, 1, master_seed=7)
    with pytest.raises(ConfigurationError, match="share one grid"):
        NoiseBatch.of(stretched)


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
            # drawn jumps; enough paths that a block holds more than two jumps
            lambda grid: compensated_jump_ensemble(
                grid, LevyMeasure.lognormal(5.0), lambda s, xi: xi if np.ndim(s) == 2 else np.ones(2), 100, seed=1
            ),
            r"^integrand gave shape \(2,\), which does not broadcast to \(\d+,\)$",
        ),
    ],
    ids=["brownian-integrand", "jump-integrand", "jump-integrand-at-jumps"],
)
def test_builders_name_an_argument_of_the_wrong_shape(build, message):
    with pytest.raises(ConfigurationError, match=message):
        build(build_grid(1.0, 8))


def test_jump_builder_zero_mass_gives_zero_paths():
    grid = build_grid(1.0, 8)
    ens = compensated_jump_ensemble(grid, LevyMeasure.empty(), lambda s, xi: xi, 50, seed=10)
    assert np.all(ens.sup_sq == 0.0) and np.all(ens.terminal == 0.0)


def test_jump_builder_compensation_is_mean_zero():
    grid = build_grid(1.0, 16)
    measure = LevyMeasure.lognormal(2.0)
    ens = compensated_jump_ensemble(grid, measure, lambda s, xi: xi, 20000, seed=11)
    mean, se = ens.terminal.mean(), ens.terminal.std(ddof=1) / math.sqrt(20000)
    assert abs(mean) <= 4.0 * se
    # isometry: Var = rate * E[xi^2] * T for the state-free integrand
    assert ens.terminal_sq.mean() == pytest.approx(2.0 * E_XI_SQ, rel=0.05)
    assert doob_check(ens.sup_sq, ens.terminal_sq).passed


def test_jump_builder_quadrature_route_agrees_with_closed_form():
    grid = build_grid(1.0, 8)
    measure = LevyMeasure.lognormal(1.5)
    by_quadrature = compensated_jump_ensemble(grid, measure, lambda s, xi: xi * xi, 200, seed=13)
    _, _, closed_terminal = _one_shot_jump(
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
    closed_sup_sq, _, closed_terminal = _one_shot_jump(
        grid, measure, integrand, 200, 14, compensator_rate=lambda s: 1.5 * E_XI * (1.0 + np.asarray(s))
    )
    np.testing.assert_allclose(by_quadrature.terminal, closed_terminal, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(by_quadrature.sup_sq, closed_sup_sq, rtol=1e-6, atol=1e-9)


# --- block-streamed builders: bitwise contract and memory bound -----------------


def _one_shot_ensemble(n_paths, draw):
    # reference: each block of _BLOCK paths drawn as one fresh dense
    # (paths, times) array and reduced out of place, with no reused buffer
    sup_abs, terminal = np.empty(n_paths), np.empty(n_paths)
    for done in range(0, n_paths, analysis._BLOCK):
        x = draw(min(analysis._BLOCK, n_paths - done))
        sup_abs[done : done + len(x)] = np.max(np.abs(x), axis=1)
        terminal[done : done + len(x)] = x[:, -1]
    return sup_abs * sup_abs, terminal * terminal, terminal


def _one_shot_brownian(grid, integrand, n_paths, seed):
    n = grid.steps
    sigma = np.broadcast_to(np.asarray(integrand(grid.points[:-1]), dtype=np.float64), (n,))
    rng = np.random.default_rng(seed)
    scale = math.sqrt(grid.dt)
    return _one_shot_ensemble(n_paths, lambda b: np.cumsum(scale * rng.standard_normal((b, n)) * sigma, axis=1))


def _one_shot_jump(grid, measure, integrand, n_paths, seed, compensator_rate=None):
    pts, n = grid.points, grid.steps
    if measure.total_mass == 0.0:
        return _one_shot_ensemble(n_paths, lambda b: np.zeros((b, n + 1)))
    if compensator_rate is not None:
        rate = np.broadcast_to(np.asarray(compensator_rate(pts), dtype=np.float64), (n + 1,))
    else:
        rate = np.broadcast_to(measure.integrate(lambda xi: integrand(pts[:, np.newaxis], xi)), (n + 1,))
    comp = analysis._cumulative_trapezoid(rate, pts)
    rng = np.random.default_rng(seed)

    def draw(b):
        counts = rng.poisson(measure.total_mass * grid.horizon, b)
        total = int(counts.sum())
        times = grid.horizon * (1.0 - rng.random(total))
        marks = measure.sample_marks(rng, total)
        path_of = np.repeat(np.arange(b), counts)
        jumps = np.broadcast_to(np.asarray(integrand(times, marks), dtype=np.float64), times.shape)
        first_idx = np.searchsorted(pts, times, side="left")
        flat = np.bincount(path_of * (n + 1) + first_idx, weights=jumps, minlength=b * (n + 1))
        return np.cumsum(flat.reshape(b, n + 1), axis=1) - comp

    return _one_shot_ensemble(n_paths, draw)


_JUMP_INTEGRAND = lambda s, xi: (1.0 + np.asarray(s)) * xi
_BUILDER_CASES = {
    "brownian": (
        lambda grid, n, seed: brownian_martingale_ensemble(grid, lambda s: 0.3 + s, n, seed),
        lambda grid, n, seed: _one_shot_brownian(grid, lambda s: 0.3 + s, n, seed),
    ),
    "jump-quadrature": (
        lambda grid, n, seed: compensated_jump_ensemble(grid, LevyMeasure.lognormal(3.0), _JUMP_INTEGRAND, n, seed),
        lambda grid, n, seed: _one_shot_jump(grid, LevyMeasure.lognormal(3.0), _JUMP_INTEGRAND, n, seed),
    ),
    "jump-zero-mass": (
        lambda grid, n, seed: compensated_jump_ensemble(grid, LevyMeasure.empty(), _JUMP_INTEGRAND, n, seed),
        lambda grid, n, seed: _one_shot_jump(grid, LevyMeasure.empty(), _JUMP_INTEGRAND, n, seed),
    ),
}


@pytest.mark.parametrize("case", sorted(_BUILDER_CASES))
@pytest.mark.parametrize(
    "n_paths",
    [1, analysis._BLOCK - 1, analysis._BLOCK + 1, 3 * analysis._BLOCK + 3],
    ids=["1", "block-1", "block+1", "3blocks+3"],
)
def test_block_streamed_builders_equal_the_one_shot_builders_bitwise(case, n_paths):
    streamed, one_shot = _BUILDER_CASES[case]
    grid = build_grid(1.0, 8)
    ens = streamed(grid, n_paths, 21)
    sup_sq, terminal_sq, terminal = one_shot(grid, n_paths, 21)
    for got, want in ((ens.sup_sq, sup_sq), (ens.terminal_sq, terminal_sq), (ens.terminal, terminal)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["brownian", "jump-quadrature"])
def test_builder_memory_is_bounded_by_a_block(case):
    # the returned arrays and the two per-path reductions take 32 bytes a
    # path; everything else the builder holds must not grow with n_paths
    streamed = _BUILDER_CASES[case][0]
    grid = build_grid(1.0, 128)
    working = {}
    for n_paths in (20_000, 100_000):
        tracemalloc.start()
        try:
            streamed(grid, n_paths, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if n_paths == 100_000:
            assert peak < 8e6
        working[n_paths] = peak - 32 * n_paths
    assert working[100_000] <= working[20_000] + 0.25e6


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
