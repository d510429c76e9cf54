"""Grid construction, seeded noise sampling, and mark-measure quadrature."""

import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from svie import grid_noise
from svie.errors import ConfigurationError, NumericalError
from svie.grid_noise import (
    LevyMeasure,
    NoisePath,
    _gauss_kronrod,
    build_grid,
    compensator_integral,
    sample_brownian,
    sample_jumps,
    sample_noise_ensemble,
    sample_noise_path,
)
from svie.coefficients import MARK_INTEGRAL_REL_TOL, example_coefficients, linear_test_coefficients

E_XI = 1.6487212707001282  # E[xi] for the standard lognormal mark law
E_XI_SQ = 7.38905609893065  # E[xi^2]
E_XI_4TH = 2980.9579870417283  # E[xi^4]


def test_grid_points_are_uniform_and_inclusive():
    grid = build_grid(0.5, 4)
    np.testing.assert_allclose(grid.points, [0.0, 0.125, 0.25, 0.375, 0.5])
    assert grid.dt == 0.125
    assert grid.points.flags.writeable is False


@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (math.inf, 4), (0.5, 0), (0.5, -3), (0.5, 2.7), (0.5, math.nan)])
def test_grid_rejects_bad_parameters(horizon, steps):
    with pytest.raises(ConfigurationError):
        build_grid(horizon, steps)


def test_brownian_increments_are_lineage_deterministic():
    grid = build_grid(1.0, 64)
    a = sample_brownian(grid, (123, 7))
    b = sample_brownian(grid, (123, 7))
    np.testing.assert_array_equal(a, b)
    c = sample_brownian(grid, (123, 8))
    assert not np.array_equal(a, c)
    d = sample_brownian(grid, (124, 7))
    assert not np.array_equal(a, d)


def test_brownian_increment_moments():
    grid = build_grid(1.0, 4)
    draws = np.array([sample_brownian(grid, (99, i)) for i in range(20000)])
    assert abs(draws.mean()) < 4.0 * 0.5 / math.sqrt(draws.size)
    assert draws.var() == pytest.approx(grid.dt, rel=0.05)


def test_lineage_bounds_are_enforced():
    grid = build_grid(1.0, 4)
    with pytest.raises(ConfigurationError):
        sample_brownian(grid, (2**64, 0))
    with pytest.raises(ConfigurationError):
        sample_brownian(grid, (0, 2**32))
    with pytest.raises(ConfigurationError):
        sample_brownian(grid, (-1, 0))
    with pytest.raises(ConfigurationError):
        sample_brownian(grid, (1.5, 0))
    with pytest.raises(ConfigurationError):
        sample_brownian(grid, (0, 0.5))
    for lineage in ((math.nan, 0), (math.inf, 0), (0, math.nan)):
        with pytest.raises(ConfigurationError):
            sample_brownian(grid, lineage)
    with pytest.raises(ConfigurationError, match=r"^seed lineage must be a \(master_seed, path_index\) pair, got 5$"):
        sample_brownian(grid, 5)


def test_master_seeds_above_2_63_do_not_collide():
    grid = build_grid(1.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it casts a key entry through float64
        assert not np.array_equal(sample_brownian(grid, (2**63, 0)), sample_brownian(grid, (2**63 + 1, 0)))
        assert not np.array_equal(sample_brownian(grid, (2**64 - 1, 3)), sample_brownian(grid, (0, 3)))


@pytest.mark.parametrize("seed", [0, 5, 2**53 + 1, 2**62 + 7, 2**63 - 1])
def test_seeds_below_2_63_draw_as_a_list_key_does(seed):
    for idx, role in ((0, 0), (7, 1)):
        by_list = np.random.Generator(np.random.Philox(key=[seed, (idx << 32) | role]))
        np.testing.assert_array_equal(grid_noise._generator((seed, idx), role).random(16), by_list.random(16))


def test_empty_measure_has_no_jumps():
    grid = build_grid(1.0, 8)
    measure = LevyMeasure.empty()
    times, marks = sample_jumps(grid, measure, (5, 0))
    assert times.size == 0 and marks.size == 0
    assert measure.integrate(lambda xi: xi * xi) == 0.0


def test_jump_times_sorted_inside_window_and_marks_positive():
    grid = build_grid(2.0, 16)
    measure = LevyMeasure.lognormal(3.0)
    seen = 0
    for idx in range(200):
        path = sample_noise_path(grid, measure, (42, idx))
        t = path.jump_times
        if t.size:
            seen += t.size
            assert np.all(np.diff(t) >= 0.0)
            assert t[0] > 0.0 and t[-1] <= grid.horizon
            assert np.all(path.jump_marks > 0.0)
    assert seen > 0


def test_jump_count_matches_poisson_mean():
    grid = build_grid(2.0, 4)
    measure = LevyMeasure.lognormal(3.0)
    counts = np.array([sample_jumps(grid, measure, (7, i))[0].size for i in range(20000)])
    mean = measure.total_mass * grid.horizon
    assert counts.mean() == pytest.approx(mean, rel=0.05)
    assert counts.var() == pytest.approx(mean, rel=0.05)


def test_mark_moments_match_lognormal_law():
    measure = LevyMeasure.lognormal(1.0)
    rng = np.random.default_rng(2024)
    marks = measure.sample_marks(rng, 100_000)
    assert marks.mean() == pytest.approx(E_XI, rel=0.05)
    assert (marks**2).mean() == pytest.approx(E_XI_SQ, rel=0.05)


def test_measure_integrate_matches_closed_form_moments():
    measure = LevyMeasure.lognormal(1.0)
    assert measure.integrate(lambda xi: 1.0) == pytest.approx(1.0, rel=1e-8)
    assert measure.integrate(lambda xi: xi) == pytest.approx(E_XI, rel=1e-8)
    assert measure.integrate(lambda xi: xi * xi) == pytest.approx(E_XI_SQ, rel=1e-8)
    assert measure.integrate(lambda xi: xi**4) == pytest.approx(E_XI_4TH, rel=1e-8)


def test_measure_integrate_scales_with_total_mass():
    measure = LevyMeasure.lognormal(2.5)
    assert measure.integrate(lambda xi: xi * xi) == pytest.approx(2.5 * E_XI_SQ, rel=1e-8)


def laplace(xi):
    return 0.5 * np.exp(-np.abs(xi))


def negative_exponential(xi):
    return np.exp(xi)


def uniform_1_2(xi):
    return np.where((1.0 <= xi) & (xi <= 2.0), 1.0, 0.0)


@pytest.mark.parametrize(
    "support,density,fn,per_mass",
    [
        ((-math.inf, math.inf), laplace, lambda xi: xi * xi, 2.0),
        ((-math.inf, math.inf), laplace, abs, 1.0),
        ((-math.inf, math.inf), laplace, lambda xi: xi + 2.0, 2.0),
        ((-math.inf, 0.0), negative_exponential, lambda xi: xi, -1.0),
        ((-math.inf, 0.0), negative_exponential, lambda xi: np.stack([xi, xi * xi]), [-1.0, 2.0]),
        ((1.0, 2.0), uniform_1_2, lambda xi: xi, 1.5),
    ],
    ids=["laplace-xi2", "laplace-abs", "laplace-shifted", "negative-xi", "negative-vector", "uniform-xi"],
)
def test_integrate_on_two_sided_negative_and_bounded_supports(support, density, fn, per_mass):
    mass = 2.5
    measure = LevyMeasure(total_mass=mass, mark_density=density, support=support)
    np.testing.assert_allclose(measure.integrate(fn), mass * np.asarray(per_mass), rtol=1e-10, atol=0.0)


def test_measure_rejects_unnormalized_density():
    with pytest.raises(ConfigurationError):
        LevyMeasure(total_mass=1.0, mark_density=lambda xi: 2.0 * np.exp(-np.asarray(xi)), mark_sampler=None)


def test_measure_rejects_a_nan_density():
    # a nan norm fails the normalisation check instead of slipping past it
    with pytest.raises(ConfigurationError, match="integrates to nan"):
        LevyMeasure(total_mass=1.0, mark_density=lambda xi: math.nan)


def test_lognormal_rejects_a_non_finite_mu():
    for mu in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="mu"):
            LevyMeasure.lognormal(1.0, mu=mu)


@pytest.mark.parametrize(
    "density",
    [
        lambda xi: math.exp(-xi),  # one float mark at a time
        lambda xi: 1.0 if xi < 1.0 else 0.0,  # a scalar branch
        lambda xi: np.exp(-xi)[:-1],  # one value short
    ],
    ids=["math-exp", "scalar-branch", "wrong-length"],
)
def test_measure_rejects_a_density_off_the_array_contract(density):
    with pytest.raises(ConfigurationError, match="1-D array of marks"):
        LevyMeasure(total_mass=1.0, mark_density=density)


EXPONENTIAL = lambda xi: np.exp(-np.asarray(xi))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LevyMeasure(0.0, support=(1.0, 1.0)), "support must be an interval (lo, hi) with lo < hi"),
        (lambda: LevyMeasure(1.0), "a positive-mass measure needs a mark_density"),
        (
            lambda: LevyMeasure(1.0, EXPONENTIAL).sample_marks(np.random.default_rng(0), 3),
            "this measure has no mark_sampler",
        ),
        (
            lambda: LevyMeasure(1.0, EXPONENTIAL, lambda rng, size: rng.exponential(size=size + 1)).sample_marks(
                np.random.default_rng(0), 3
            ),
            "mark_sampler returned shape (4,), expected (3,)",
        ),
    ],
    ids=["empty-support", "no-density", "no-sampler", "sampler-shape"],
)
def test_a_malformed_measure_or_mark_sampler_is_rejected_naming_the_problem(build, message):
    with pytest.raises(ConfigurationError) as info:
        build()
    assert str(info.value).startswith(message)


def test_measure_rejects_negative_mass():
    with pytest.raises(ConfigurationError):
        LevyMeasure.lognormal(-1.0)


def test_compensator_closed_form_agrees_with_quadrature():
    # two routes to int h nu: the catalogue's closed form and direct
    # quadrature of h against the mark density
    coeffs = example_coefficients(0.1, rate=2.0)
    t, s, x = 0.5, 0.25, 3.0
    closed = coeffs.compensator(t, s, x)
    assert closed == pytest.approx(0.1 * x * 2.0 * E_XI_SQ, rel=1e-12)
    stripped = type(coeffs)(
        drift=coeffs.drift,
        diffusion=coeffs.diffusion,
        initial=coeffs.initial,
        measure=coeffs.measure,
        jump=coeffs.jump,
        compensator=None,
        growth_constant=coeffs.growth_constant,
        name="example-no-closed-form",
    )
    quadrature = compensator_integral(stripped, t, s, x)
    assert quadrature == pytest.approx(closed, rel=1e-7)


def test_compensator_integral_broadcasts_and_checks_ordering():
    coeffs = linear_test_coefficients(0.2, rate=1.5)
    s = np.array([0.0, 0.1, 0.2])
    x = np.array([1.0, -2.0, 0.5])
    out = compensator_integral(coeffs, 0.3, s, x)
    np.testing.assert_allclose(out, 0.2 * x * 1.5 * E_XI, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        compensator_integral(coeffs, 0.1, np.array([0.2]), np.array([1.0]))


def test_compensator_integral_without_jumps_is_zero_of_the_broadcast_shape():
    coeffs = dataclasses.replace(linear_test_coefficients(), jump=None, compensator=None)
    out = compensator_integral(coeffs, np.array([0.3, 0.4]), 0.1, np.array([[1.0], [2.0], [3.0]]))
    assert out.shape == (3, 2) and np.all(out == 0.0)


def test_compensator_integral_quadrature_names_a_jump_kernel_that_does_not_run_over_the_marks():
    coeffs = dataclasses.replace(linear_test_coefficients(), jump=lambda t, s, x, xi: np.ones(2), compensator=None)
    with pytest.raises(ConfigurationError, match=r"^integrand gave shape \(2,\), whose last axis does not run over"):
        compensator_integral(coeffs, 0.5, np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize(
    ("slot", "replacement"),
    [
        ("jump", {"jump": lambda t, s, x, xi: np.ones((3, np.size(xi))), "compensator": None}),
        ("compensator", {"compensator": lambda t, s, x: np.ones(3)}),
    ],
    ids=["jump", "compensator"],
)
def test_compensator_integral_names_a_slot_of_the_wrong_shape(slot, replacement):
    coeffs = dataclasses.replace(linear_test_coefficients(), **replacement)
    with pytest.raises(ConfigurationError, match=rf"^{slot} gave shape \(3,\), which does not broadcast to \(2,\)$"):
        compensator_integral(coeffs, 0.5, np.array([0.1, 0.2]), np.array([1.0, 2.0]))


def test_integrate_takes_a_last_axis_over_the_marks_or_of_length_one():
    measure = LevyMeasure.lognormal(2.0)
    np.testing.assert_allclose(measure.integrate(lambda xi: np.ones((3, 1))), [2.0, 2.0, 2.0], rtol=1e-8)
    assert measure.integrate(lambda xi: 1.0) == pytest.approx(2.0, rel=1e-8)
    for shape in [(2,), (160,), (161, 3)]:
        message = rf"^integrand gave shape \({', '.join(map(str, shape))},?\), whose last axis does not run over the 161"
        with pytest.raises(ConfigurationError, match=message):
            measure.integrate(lambda xi: np.ones(shape))


def test_integrate_survives_integrands_that_overflow_in_the_tail():
    measure = LevyMeasure.lognormal(1.0)
    value = measure.integrate(lambda xi: xi**4 * np.exp(np.minimum(xi, 0.0)))
    assert math.isfinite(value)


def test_integrate_reports_nonconvergence():
    measure = LevyMeasure.lognormal(1.0)
    with pytest.raises(NumericalError):
        # oscillates too fast for the certified tolerance
        measure.integrate(lambda xi: np.sin(1e9 * xi))


@pytest.mark.parametrize("master_seed", [0, 77, 2**63 - 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("measure", [LevyMeasure.lognormal(8.0), LevyMeasure.empty()], ids=["jumps", "zero-mass"])
def test_noise_ensemble_uses_consecutive_lineages(master_seed, measure):
    # row i of the batch is lineage (master_seed, i) drawn alone, bit for bit:
    # the guard against numpy changing the layout of its Philox state
    grid = build_grid(0.5, 8)
    batch = sample_noise_ensemble(grid, measure, 5, master_seed)
    assert batch.grid == grid and batch.brownian.shape == (5, grid.steps)
    assert (batch.jump_times.size > 0) == (measure.total_mass > 0.0)
    for idx in range(5):
        solo = sample_noise_path(grid, measure, (master_seed, idx))
        own = batch.jump_paths == idx
        for row, alone in zip(
            (batch.brownian[idx], batch.jump_times[own], batch.jump_marks[own]),
            (solo.brownian, solo.jump_times, solo.jump_marks),
        ):
            assert row.dtype == alone.dtype == np.float64
            assert np.array_equal(row.view(np.uint64), alone.view(np.uint64))
    assert np.all(np.diff(batch.jump_times) >= 0.0)
    np.testing.assert_array_equal(batch.jump_cells, np.searchsorted(batch.jump_times, grid.points, side="right"))


def test_noise_ensemble_checks_its_lineage_range_before_the_first_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a path was drawn before the lineage range was checked")

    monkeypatch.setattr(grid_noise, "sample_noise_path", no_draw)
    grid = build_grid(0.5, 4)
    with pytest.raises(ConfigurationError, match=r"^path_index must lie in \[0, 2\^32\), got 4294967296$"):
        sample_noise_ensemble(grid, LevyMeasure.empty(), 2**32 + 1, 0)
    with pytest.raises(ConfigurationError, match=r"^master_seed must lie in \[0, 2\^64\), got 18446744073709551616$"):
        sample_noise_ensemble(grid, LevyMeasure.empty(), 1, 2**64)


def test_noise_path_accepts_a_well_formed_hand_built_path():
    grid = build_grid(1.0, 4)
    path = NoisePath(grid, np.zeros(4), np.array([0.3, 0.3, 1.0]), np.ones(3), (0, 0))
    assert path.jump_times.size == 3


@pytest.mark.parametrize(
    "brownian,times,marks",
    [
        (np.zeros(4), np.array([0.9, 0.3]), np.ones(2)),  # unsorted times
        (np.zeros(4), np.array([0.0, 0.5]), np.ones(2)),  # a time at 0
        (np.zeros(4), np.array([0.5, 1.5]), np.ones(2)),  # a time beyond the horizon
        (np.zeros(4), np.array([0.2, math.nan]), np.ones(2)),  # a NaN time
        (np.array([0.1, math.inf, 0.0, 0.0]), np.empty(0), np.empty(0)),  # an infinite increment
        (np.array([0.1, math.nan, 0.0, 0.0]), np.empty(0), np.empty(0)),  # a NaN increment
        (np.zeros(4), np.array([0.5]), np.array([math.inf])),  # an infinite mark
        (np.zeros(4), np.array([0.5]), np.array([math.nan])),  # a NaN mark
        (np.zeros((4, 1)), np.empty(0), np.empty(0)),  # 2-D increments
        (np.zeros(4), np.array([[0.5]]), np.array([[1.0]])),  # 2-D jump arrays
        (np.zeros(3), np.empty(0), np.empty(0)),  # 3 increments on a 4-step grid
        (np.zeros(4), np.array([0.2, 0.5]), np.ones(1)),  # 2 times, 1 mark
    ],
)
def test_noise_path_rejects_malformed_inputs(brownian, times, marks):
    with pytest.raises(ConfigurationError):
        NoisePath(build_grid(1.0, 4), brownian, times, marks, (0, 0))


def test_integrate_returns_the_shape_of_fn():
    # every element meets the tolerance on its own, whatever its size
    measure = LevyMeasure.lognormal(1.0)
    powers = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    out = measure.integrate(lambda xi: xi ** powers[:, np.newaxis])
    assert out.shape == (5,)
    np.testing.assert_allclose(out, np.exp(0.5 * powers**2), rtol=1e-8)
    assert isinstance(measure.integrate(lambda xi: xi), float)


def test_compensator_quadrature_is_accurate_per_element():
    # a max-norm criterion would certify the small elements only relative to
    # the largest one; each element must meet the tolerance on its own
    coeffs = example_coefficients(0.1, rate=2.0)
    stripped = dataclasses.replace(coeffs, compensator=None)
    x = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 13), -np.geomspace(1e-6, 1e6, 5)])
    s = np.linspace(0.0, 0.5, x.size)
    got = compensator_integral(stripped, 0.5, s, x)
    want = 0.1 * 2.0 * E_XI_SQ * x
    assert got[0] == 0.0
    np.testing.assert_allclose(got[1:], want[1:], rtol=MARK_INTEGRAL_REL_TOL, atol=0.0)


def test_compensator_quadrature_integrates_each_row_on_its_own():
    # a row's values must not depend on the rows batched with it; h peaks
    # at xi = 1/|x|, so different rows need different subdivisions
    coeffs = dataclasses.replace(
        example_coefficients(0.1, rate=2.0),
        jump=lambda t, s, x, xi: np.sin(x) * xi / (1.0 + np.square(x * xi)),
        compensator=None,
    )
    s = np.linspace(0.0, 0.25, 4)
    x = np.array([[1.0, -2.0, 0.5, 3.0], [1e4, 1e-3, 0.0, 7.0]])
    both = compensator_integral(coeffs, 0.5, s, x)
    assert both.shape == (2, 4)
    for k in range(2):
        assert np.array_equal(both[k], compensator_integral(coeffs, 0.5, s, x[k]))


def test_integrate_reports_a_nan_between_probes():
    # no probe lands in (2, 50), so only the adaptive pass meets the nan;
    # it must not come back as a value that passed the error check
    measure = LevyMeasure.lognormal(1.0)
    gap = lambda xi, bad, other: np.where((2.0 < xi) & (xi < 50.0), bad, other)
    with pytest.raises(NumericalError):
        measure.integrate(lambda xi: gap(xi, math.nan, 1.0))
    with pytest.raises(NumericalError):
        measure.integrate(lambda xi: np.stack([np.ones_like(xi), gap(xi, math.nan, xi)]))
    with pytest.raises(NumericalError):
        measure.integrate(lambda xi: np.stack([np.ones_like(xi), gap(xi, math.inf, xi)]))


@pytest.mark.xfail(strict=True, reason="known defect: a peak between two probes, 1.9 decades apart, integrates to 0")
def test_integrate_finds_a_peak_narrower_than_the_probe_spacing():
    # a dense trapezoid rule on [2.5, 3.5] gives 0.0257914; the quadrature
    # returns 0.0 with no error, so a fix has to flip this test
    value = LevyMeasure.lognormal(4.0).integrate(lambda xi: np.exp(-(((xi - 3) / 0.05) ** 2)))
    assert value == pytest.approx(0.02579, rel=1e-3)


def test_integrate_calls_fn_once_to_probe_and_once_per_panel(monkeypatch):
    # every call gets a 1-D array of marks: 161 probes first, then the 21
    # nodes of one Gauss-Kronrod panel per call
    measure = LevyMeasure.lognormal(2.0)
    panels = []
    panel = grid_noise._gk21_panel
    monkeypatch.setattr(grid_noise, "_gk21_panel", lambda f, a, b: panels.append((a, b)) or panel(f, a, b))
    shapes = []
    x = np.array([[1.0], [-2.0], [0.5]])
    value = measure.integrate(lambda xi: shapes.append(np.shape(xi)) or x * xi * xi)
    np.testing.assert_allclose(value, 2.0 * E_XI_SQ * x[:, 0], rtol=MARK_INTEGRAL_REL_TOL, atol=0.0)
    assert shapes[0] == (161,)
    assert shapes[1:] == [(21,)] * len(panels)
    assert 0 < len(panels) < 40


# --- the adaptive Gauss-Kronrod rule ------------------------------------------


def gauss_kronrod(f, a, b, points=None):
    return _gauss_kronrod(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200, points=points)


def test_gauss_kronrod_integrates_a_vector_across_interior_points():
    powers = np.arange(5.0)
    value, err = gauss_kronrod(lambda x: x ** powers[:, np.newaxis], 0.0, 1.0, points=[0.25, 0.5, 0.9])
    assert value.shape == (5,)
    np.testing.assert_allclose(value, 1.0 / (powers + 1.0), rtol=1e-12, atol=0.0)
    assert 0.0 < err < 1e-12


def test_gauss_kronrod_maps_an_infinite_end():
    value, _ = gauss_kronrod(np.exp, -math.inf, 0.0)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_gauss_kronrod_integrates_a_piecewise_zero_integrand():
    # zero left of 1/3, a vector right of it; panels around 1/3 mix both
    def f(x):
        d = x - 1.0 / 3.0
        return np.where(d < 0.0, 0.0, np.stack([d * d, d**3]))

    value, _ = gauss_kronrod(f, 0.0, 1.0)
    np.testing.assert_allclose(value, [(2.0 / 3.0) ** 3 / 3.0, (2.0 / 3.0) ** 4 / 4.0], rtol=1e-12, atol=0.0)


def test_gauss_kronrod_bisects_a_lone_panel_before_trusting_it():
    # one panel can look converged while its nodes miss a bump; a constant
    # is exact on every panel, so the loop stops right after the first split
    calls = []
    value, _ = gauss_kronrod(lambda x: calls.append(len(x)) or np.ones_like(x), 0.0, 1.0)
    assert value == pytest.approx(1.0, rel=1e-15)
    assert calls == [21] * 3  # one call per panel, all 21 nodes at once


def test_gauss_kronrod_stops_at_a_non_finite_value():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.where(x > 0.9, math.inf, 1.0)

    _, err = gauss_kronrod(f, 0.0, 1.0)
    assert not math.isfinite(err)
    assert calls == [21]  # the first panel met the inf; nothing was split


def test_import_and_normalization_quadrature_load_no_scipy(child_env):
    code = (
        "import sys, svie\n"
        "svie.coefficient_catalogue('example', 0.1, 2.0)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
