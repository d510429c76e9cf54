"""Lower-triangular recursion, successive approximation, and ensembles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from svie.coefficients import (
    CoefficientSet,
    SeparableKernel,
    deterministic_ode_coefficients,
    example_coefficients,
    linear_test_coefficients,
    zero_coefficients,
)
from svie.errors import ConfigurationError, ExplosionError
from svie.grid_noise import (
    LevyMeasure,
    NoiseBatch,
    NoisePath,
    build_grid,
    compensator_integral,
    sample_noise_ensemble,
    sample_noise_path,
)
from svie.solver import (
    DiscretePath,
    _iterates,
    _sweep,
    direct_recursion,
    ensemble_simulate,
    picard_iterates,
    picard_solve,
)


def quiet_path(grid, jump_times=(), jump_marks=()):
    """A noise path with zero Brownian increments and prescribed jumps."""
    return NoisePath(
        grid=grid,
        brownian=np.zeros(grid.steps),
        jump_times=np.asarray(jump_times, dtype=np.float64),
        jump_marks=np.asarray(jump_marks, dtype=np.float64),
        lineage=(0, 0),
    )


def jump_only_coefficients():
    """h(t,s,x,xi) = x*xi with the compensator forced to zero.

    Isolates the raw jump sum so the state-reading convention can be
    checked against hand-computed values.
    """
    return CoefficientSet(
        drift=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(1.0),
        jump=lambda t, s, x, xi: np.asarray(x) * np.asarray(xi),
        compensator=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        growth_constant=math.exp(2.0),
        name="jump-only",
    )


# --- direct recursion oracles -------------------------------------------------


def test_two_step_ode_recursion_matches_hand_computation():
    # f = x/2, phi = 1, T = 1, n = 2: x = (1, 1.25, 1.5625)
    grid = build_grid(1.0, 2)
    path = direct_recursion(deterministic_ode_coefficients(), quiet_path(grid))
    np.testing.assert_allclose(path.values, [1.0, 1.25, 1.5625], rtol=0.0, atol=0.0)


@pytest.mark.parametrize("steps", [1, 2, 4, 16, 128])
def test_ode_recursion_closed_form(steps):
    # left-endpoint sums with f = x/2 compound exactly: x(1) = (1 + 1/(2n))^n
    grid = build_grid(1.0, steps)
    path = direct_recursion(deterministic_ode_coefficients(), quiet_path(grid))
    assert path.values[-1] == pytest.approx((1.0 + 0.5 / steps) ** steps, rel=1e-14)


def test_brownian_only_recursion_accumulates_increments():
    grid = build_grid(1.0, 2)
    coeffs = CoefficientSet(
        drift=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=lambda t, s, x: 1.0,
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.empty(),
        name="unit-diffusion",
    )
    noise = NoisePath(
        grid=grid,
        brownian=np.array([0.3, -0.2]),
        jump_times=np.empty(0),
        jump_marks=np.empty(0),
        lineage=(0, 0),
    )
    np.testing.assert_allclose(direct_recursion(coeffs, noise).values, [1.0, 1.3, 1.1], atol=0.0)


def test_jump_on_grid_point_reads_strictly_earlier_state():
    # jump at tau = 0.5 lands on t_1 and must read x(t_0), not x(t_1)
    grid = build_grid(1.0, 2)
    noise = quiet_path(grid, jump_times=[0.5], jump_marks=[2.0])
    path = direct_recursion(jump_only_coefficients(), noise)
    np.testing.assert_allclose(path.values, [1.0, 3.0, 3.0], atol=0.0)


def test_jump_between_grid_points_reads_floor_state():
    grid = build_grid(1.0, 2)
    noise = quiet_path(grid, jump_times=[0.6], jump_marks=[2.0])
    path = direct_recursion(jump_only_coefficients(), noise)
    np.testing.assert_allclose(path.values, [1.0, 1.0, 3.0], atol=0.0)


def test_compensator_subtracts_from_the_drift_side():
    # no jumps land, but a positive compensator still pulls the state down
    grid = build_grid(1.0, 2)
    coeffs = CoefficientSet(
        drift=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(1.0),
        jump=lambda t, s, x, xi: np.asarray(x) * np.asarray(xi),
        compensator=lambda t, s, x: 0.5 * np.ones_like(np.asarray(x, dtype=np.float64)),
        name="constant-compensator",
    )
    path = direct_recursion(coeffs, quiet_path(grid))
    np.testing.assert_allclose(path.values, [1.0, 0.75, 0.5], atol=1e-15)


def test_explosion_raises_with_grid_index():
    grid = build_grid(1.0, 4)
    coeffs = CoefficientSet(
        drift=lambda t, s, x: 1e160 * np.asarray(x, dtype=np.float64),
        diffusion=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.empty(),
        name="explosive",
    )
    with np.errstate(over="ignore"), pytest.raises(ExplosionError) as info:
        direct_recursion(coeffs, quiet_path(grid))
    assert info.value.grid_index == 2


def test_overflow_in_a_later_row_is_reported_where_that_row_is_reached():
    # row 3 alone takes 1e308 + 1e308 = inf from column 0 and -inf from
    # column 1, so its sum is nan while rows 1 and 2 stay finite; row 4 is
    # never reached, because every path has exploded by then
    grid = build_grid(4.0, 4)
    big = lambda t, s, x: np.where(np.abs(t - 3.0) < 0.5, np.where(s < 0.5, 1e308, -1e308), 0.0) * x
    coeffs = CoefficientSet(
        drift=big,
        diffusion=big,
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.empty(),
        name="overflow-at-row-3",
    )
    noise = dataclasses.replace(quiet_path(grid), brownian=np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ExplosionError) as info:
        direct_recursion(coeffs, noise)
    assert info.value.grid_index == 3
    # the Picard sweep from phi meets the same nan; it parks the row it
    # stopped on and the row it never reached at 0
    stream = _iterates(coeffs, NoiseBatch.of([noise]))
    next(stream)
    state, explosion = next(stream)
    assert explosion.tolist() == [3]
    np.testing.assert_array_equal(state, [[1.0, 1.0, 1.0, 0.0, 0.0]])
    # a quiet path in the same batch keeps its own, finite solution
    out = np.empty((2, grid.steps + 1))
    assert _sweep(coeffs, NoiseBatch.of([noise, quiet_path(grid)]), out, out).tolist() == [3, -1]
    assert bitwise_equal(out[1], direct_recursion(coeffs, quiet_path(grid)).values)


def test_a_jump_free_model_ignores_the_jumps_of_its_noise():
    # jump=None switches the jump term off, even when the noise carries jumps
    coeffs = dataclasses.replace(example_coefficients(0.02, rate=40.0), jump=None, compensator=None)
    grid = build_grid(0.5, 16)
    brownian = np.random.default_rng(5).normal(0.0, math.sqrt(grid.dt), grid.steps)
    jumpy = dataclasses.replace(quiet_path(grid, (0.1, 0.11, 0.3, 0.5), (2.0, 0.5, 3.0, 1.0)), brownian=brownian)
    plain = dataclasses.replace(quiet_path(grid), brownian=brownian)
    expected = direct_recursion(coeffs, plain).values
    assert bitwise_equal(direct_recursion(coeffs, jumpy).values, expected)
    out = np.empty((2, grid.steps + 1))
    assert _sweep(coeffs, NoiseBatch.of([quiet_path(grid, (0.2,), (5.0,)), jumpy]), out, out).tolist() == [-1, -1]
    assert bitwise_equal(out[1], expected)


def loop_reference(coeffs, noise):
    """The scheme of the solver module's docstring, one scalar kernel call per term."""
    pts, dt = noise.grid.points, noise.grid.dt
    x = np.empty(pts.size)
    for i, t in enumerate(pts):
        val = float(coeffs.initial(t))
        for j in range(i):
            val += coeffs.drift(t, pts[j], x[j]) * dt + coeffs.diffusion(t, pts[j], x[j]) * noise.brownian[j]
            val -= coeffs.compensator(t, pts[j], x[j]) * dt
        for tau, xi in zip(noise.jump_times, noise.jump_marks):
            if tau <= t:
                val += coeffs.jump(t, tau, x[np.searchsorted(pts, tau, side="left") - 1], xi)
        x[i] = val
    return x


def time_dependent_coefficients(c=0.1, rate=20.0):
    """Kernels that depend on t - s: f = (1 + t - s) x / 4, g = x / 2, h = c xi x e^{-(t - s)}."""
    decay = lambda t, s: np.exp(-(np.asarray(t, dtype=np.float64) - s))
    return CoefficientSet(
        drift=lambda t, s, x: 0.25 * (1.0 + np.asarray(t, dtype=np.float64) - s) * x,
        diffusion=lambda t, s, x: 0.5 * np.asarray(x, dtype=np.float64),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(rate),
        jump=lambda t, s, x, xi: c * np.asarray(xi, dtype=np.float64) * x * decay(t, s),
        compensator=lambda t, s, x: c * rate * math.exp(0.5) * np.asarray(x, dtype=np.float64) * decay(t, s),
        name="time-dependent",
    )


def separable_time_dependent_coefficients(c=0.1, rate=20.0):
    """``time_dependent_coefficients`` with separable kernels.

    f = (1 + t) x / 4 + (-s) x / 4 has two terms; h = e^{-t} e^{s} c xi x and
    its compensator carry the factor e^{-t} e^{s}.
    """
    as_float = lambda u: np.asarray(u, dtype=np.float64)
    quarter_x = lambda x: 0.25 * as_float(x)
    decay, growth = (lambda t: np.exp(-as_float(t))), (lambda s: np.exp(as_float(s)))
    return CoefficientSet(
        drift=SeparableKernel(
            ((lambda t: 1.0 + as_float(t), None, quarter_x), (None, lambda s: -as_float(s), quarter_x))
        ),
        diffusion=SeparableKernel(((None, None, lambda x: 0.5 * as_float(x)),)),
        initial=lambda t: np.ones_like(as_float(t)),
        measure=LevyMeasure.lognormal(rate),
        jump=SeparableKernel(((decay, growth, lambda x, xi: c * as_float(xi) * x),)),
        compensator=SeparableKernel(((decay, growth, lambda x: c * rate * math.exp(0.5) * as_float(x)),)),
        name="separable-time-dependent",
    )


def plain(kernel):
    """``kernel`` behind a plain lambda, so the sweep pushes its cells; None stays None."""
    return None if kernel is None else (lambda *args: kernel(*args))


def plain_twin(coeffs):
    """The same model with every kernel behind a plain lambda, so the sweep pushes the cells of every kernel."""
    kernels = ("drift", "diffusion", "jump", "compensator")
    return dataclasses.replace(coeffs, **{name: plain(getattr(coeffs, name)) for name in kernels})


@pytest.mark.parametrize(
    "coeffs",
    [
        example_coefficients(0.02, rate=40.0),
        linear_test_coefficients(0.2, rate=5.0),
        time_dependent_coefficients(),
        separable_time_dependent_coefficients(),
    ],
)
def test_direct_recursion_matches_a_plain_loop(coeffs):
    # summation order differs from the loop, so agreement is to rounding only
    grid = build_grid(0.5, 48)
    for idx in range(3):
        noise = sample_noise_path(grid, coeffs.measure, (17, idx))
        np.testing.assert_allclose(direct_recursion(coeffs, noise).values, loop_reference(coeffs, noise), rtol=1e-12)


def test_kernels_see_later_grid_times_a_scalar_s_and_a_column_of_states():
    grid = build_grid(0.5, 48)
    base = time_dependent_coefficients()
    seen = []

    def drift(t, s, x):
        seen.append((np.shape(t), np.shape(s), np.shape(x)))
        return base.drift(t, s, x)

    ensemble_simulate(dataclasses.replace(base, drift=drift), grid, 5, master_seed=17)
    assert seen == [((grid.steps - j,), (), (5, 1)) for j in range(grid.steps)]


def test_time_dependent_kernels_do_not_depend_on_the_batch():
    coeffs = time_dependent_coefficients()
    grid = build_grid(0.5, 48)
    runs = {size: ensemble_simulate(coeffs, grid, size, master_seed=29) for size in (1, 7, 200)}
    # paths with many jumps exercise the jump pushes
    assert max(sample_noise_path(grid, coeffs.measure, (29, idx)).jump_times.size for idx in range(7)) > 8
    assert not runs[200].exploded.any()
    assert bitwise_equal(runs[1].values[0], runs[7].values[0])
    assert bitwise_equal(runs[7].values, runs[200].values[:7])


# --- successive approximation -------------------------------------------------


@pytest.mark.parametrize("solve", [direct_recursion, lambda coeffs, noise: picard_iterates(coeffs, noise, (0,))])
def test_an_initial_curve_that_does_not_fit_the_grid_is_rejected(solve):
    coeffs = dataclasses.replace(deterministic_ode_coefficients(), initial=lambda t: np.ones(3))
    message = r"^initial gave shape \(3,\), which does not broadcast to \(9,\)$"
    with pytest.raises(ConfigurationError, match=message):
        solve(coeffs, quiet_path(build_grid(1.0, 8)))


@pytest.mark.parametrize(
    "term,part",
    [((lambda t: np.ones(3), None, lambda x: x), "time"), ((None, lambda s: np.ones(3), lambda x: x), "lag")],
    ids=["time", "lag"],
)
def test_a_separable_factor_that_does_not_fit_the_grid_is_named(term, part):
    coeffs = dataclasses.replace(linear_test_coefficients(), drift=SeparableKernel((term,), name="f"))
    message = rf"^f: term 0 {part} gave shape \(3,\), which does not broadcast to \(9,\)$"
    with pytest.raises(ConfigurationError, match=message):
        direct_recursion(coeffs, quiet_path(build_grid(1.0, 8)))


def test_first_iterate_uses_initial_curve_everywhere():
    grid = build_grid(1.0, 2)
    coeffs = deterministic_ode_coefficients()
    iterates = picard_iterates(coeffs, quiet_path(grid), (1, 2))
    np.testing.assert_allclose(iterates[1].values, [1.0, 1.25, 1.5], atol=0.0)
    np.testing.assert_allclose(iterates[2].values, [1.0, 1.25, 1.5625], atol=0.0)


def test_iterate_k_is_exact_on_the_first_k_entries():
    grid = build_grid(0.5, 32)
    coeffs = example_coefficients(0.1)
    noise = sample_noise_path(grid, coeffs.measure, (21, 0))
    final = direct_recursion(coeffs, noise).values
    iterates = picard_iterates(coeffs, noise, (1, 5, 12, 33))
    for k in (1, 5, 12):
        np.testing.assert_array_equal(iterates[k].values[: k + 1], final[: k + 1])
    np.testing.assert_array_equal(iterates[33].values, final)


def test_picard_terminates_exactly_within_steps_plus_one():
    grid = build_grid(0.5, 48)
    coeffs = example_coefficients(0.15, rate=3.0)
    noise = sample_noise_path(grid, coeffs.measure, (99, 4))
    run = picard_solve(coeffs, noise, tolerance=0.0, k_max=grid.steps + 1)
    assert run.converged
    assert run.iterations <= grid.steps + 1
    assert run.sup_diffs[-1] == 0.0


def test_picard_final_is_bitwise_equal_to_direct_recursion():
    grid = build_grid(0.5, 64)
    coeffs = example_coefficients(0.1)
    noise = sample_noise_path(grid, coeffs.measure, (7, 3))
    run = picard_solve(coeffs, noise, tolerance=0.0, k_max=grid.steps + 1)
    direct = direct_recursion(coeffs, noise)
    assert np.array_equal(run.final.values, direct.values)


def test_picard_reports_nonconvergence_when_capped():
    grid = build_grid(0.5, 16)
    coeffs = example_coefficients(0.1)
    noise = sample_noise_path(grid, coeffs.measure, (11, 0))
    run = picard_solve(coeffs, noise, tolerance=0.0, k_max=1)
    assert not run.converged
    assert run.iterations == 1
    assert run.sup_diffs[-1] > 0.0


def test_zero_coefficients_converge_in_one_iteration():
    grid = build_grid(1.0, 8)
    run = picard_solve(zero_coefficients(), quiet_path(grid), tolerance=0.0, k_max=9)
    assert run.converged
    assert run.iterations == 1
    assert run.sup_diffs == (0.0,)
    np.testing.assert_array_equal(run.final.values, np.ones(9))


def test_picard_iterates_sweep_no_further_than_the_last_wanted_k():
    grid = build_grid(1.0, 4)
    calls = []
    base = deterministic_ode_coefficients()
    coeffs = dataclasses.replace(base, drift=lambda t, s, x: calls.append(t) or base.drift(t, s, x))
    noise = quiet_path(grid)
    assert picard_iterates(coeffs, noise, ()) == {}
    assert list(picard_iterates(coeffs, noise, (0,))) == [0]
    assert calls == []
    assert list(picard_iterates(coeffs, noise, (2, 0))) == [0, 2]
    # one drift call per row i = 1..n, for each of the two sweeps
    assert len(calls) == 2 * grid.steps


def test_discrete_path_validates_shape():
    with pytest.raises(ConfigurationError):
        DiscretePath(grid=build_grid(1.0, 4), values=np.ones(3))


# --- ensembles ----------------------------------------------------------------


def test_ensemble_rows_match_single_path_solves():
    grid = build_grid(0.5, 16)
    coeffs = linear_test_coefficients(0.2, rate=2.0)
    ens = ensemble_simulate(coeffs, grid, 6, master_seed=31)
    for idx in (0, 3, 5):
        noise = sample_noise_path(grid, coeffs.measure, (31, idx))
        np.testing.assert_array_equal(ens.values[idx], direct_recursion(coeffs, noise).values)


def test_ensemble_seed_changes_paths():
    grid = build_grid(0.5, 16)
    coeffs = example_coefficients(0.1)
    a = ensemble_simulate(coeffs, grid, 4, master_seed=1)
    b = ensemble_simulate(coeffs, grid, 4, master_seed=2)
    assert not np.array_equal(a.values, b.values)


def test_ensemble_flags_exploded_paths_and_keeps_survivor_rows():
    grid = build_grid(1.0, 4)
    coeffs = CoefficientSet(
        drift=lambda t, s, x: 1e160 * np.asarray(x, dtype=np.float64),
        diffusion=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.empty(),
        name="explosive",
    )
    with np.errstate(over="ignore"):
        ens = ensemble_simulate(coeffs, grid, 3, master_seed=1)
    assert ens.exploded.all()
    assert np.isnan(ens.values[:, -1]).all()
    assert set(ens.explosion_index.tolist()) == {2}
    assert ens.survivors.shape == (0, 5)


def bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def broadcasting_coefficients():
    """Kernels that return a scalar or an s-only row instead of one value per state."""
    rate = 30.0
    return CoefficientSet(
        drift=lambda t, s, x: np.cos(t - np.asarray(s, dtype=np.float64)),
        diffusion=lambda t, s, x: 1.0,
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(rate),
        jump=lambda t, s, x, xi: 0.01,
        compensator=lambda t, s, x: 0.01 * rate,
        name="broadcasting",
    )


def most_jumps_in_one_cell(noise):
    """The largest number of the path's jumps with one floor(tau), 0 without jumps."""
    return np.bincount(np.searchsorted(noise.grid.points, noise.jump_times) - 1).max(initial=0)


@pytest.mark.parametrize("coeffs", [example_coefficients(0.02, rate=40.0), broadcasting_coefficients()])
def test_ensemble_rows_do_not_depend_on_the_batch(coeffs):
    grid = build_grid(0.5, 64)
    runs = {size: ensemble_simulate(coeffs, grid, size, master_seed=13) for size in (1, 7, 1000)}
    noises = [sample_noise_path(grid, coeffs.measure, (13, idx)) for idx in range(7)]
    # two jumps of one path in one cell: np.add.at must add them in time order
    assert max(most_jumps_in_one_cell(noise) for noise in noises) >= 2
    assert not runs[1000].exploded.any()
    assert bitwise_equal(runs[1].values[0], runs[7].values[0])
    assert bitwise_equal(runs[7].values, runs[1000].values[:7])
    for idx, noise in enumerate(noises):
        assert bitwise_equal(runs[7].values[idx], direct_recursion(coeffs, noise).values)


def test_quadrature_compensator_rows_do_not_depend_on_the_batch():
    # without a closed form each path's compensator row is its own vector
    # quadrature, whose subdivision must not see the other paths
    coeffs = dataclasses.replace(example_coefficients(0.1, rate=2.0), compensator=None)
    grid = build_grid(0.5, 8)
    ens = ensemble_simulate(coeffs, grid, 3, master_seed=21)
    assert not ens.exploded.any()
    for idx in range(3):
        noise = sample_noise_path(grid, coeffs.measure, (21, idx))
        assert bitwise_equal(ens.values[idx], direct_recursion(coeffs, noise).values)


def batch_iterates(coeffs, noises, keep):
    """Iterates {k: (paths, n + 1) block} of one batched Picard stream; no path may explode."""
    stream = dict(zip(range(max(keep) + 1), _iterates(coeffs, NoiseBatch.of(noises))))
    assert (stream[max(keep)][1] < 0).all()
    return {k: stream[k][0] for k in keep}


def test_picard_iterates_do_not_depend_on_the_batch():
    coeffs = example_coefficients(0.02, rate=40.0)
    grid = build_grid(0.5, 32)
    last = grid.steps + 1
    noises = [sample_noise_path(grid, coeffs.measure, (19, idx)) for idx in range(200)]
    # two jumps of one path in one cell: np.add.at must add them in time order
    assert max(most_jumps_in_one_cell(noise) for noise in noises[:7]) >= 2
    keep = (1, 2, last)
    runs = {size: batch_iterates(coeffs, noises[:size], keep) for size in (7, 200)}
    for k in keep:
        assert bitwise_equal(runs[7][k], runs[200][k][:7])
    for idx in range(7):
        alone = batch_iterates(coeffs, [noises[idx]], keep)
        for k in keep:
            assert bitwise_equal(alone[k][0], runs[7][k][idx])
    for idx, noise in enumerate(noises):
        assert bitwise_equal(runs[200][last][idx], direct_recursion(coeffs, noise).values)


def test_quadrature_compensator_picard_iterates_do_not_depend_on_the_batch():
    # the mark-space quadrature runs inside every sweep of the Picard batch
    coeffs = dataclasses.replace(example_coefficients(0.1, rate=2.0), compensator=None)
    grid = build_grid(0.5, 8)
    last = grid.steps + 1
    noises = [sample_noise_path(grid, coeffs.measure, (23, idx)) for idx in range(3)]
    keep = (1, 2, last)
    batch = batch_iterates(coeffs, noises, keep)
    for idx, noise in enumerate(noises):
        alone = batch_iterates(coeffs, [noise], keep)
        for k in keep:
            assert bitwise_equal(alone[k][0], batch[k][idx])
        assert bitwise_equal(batch[last][idx], direct_recursion(coeffs, noise).values)


def peaked_mark_coefficients():
    """Jump kernel c x xi exp(-xi |x| / (1 + t - s)), peaked at xi = (1 + t - s) / |x|; no closed-form compensator.

    Where the peak sits, and so how the mark-space quadrature subdivides,
    depends on each path's state and on the row's time; a strong diffusion
    spreads the states, so the paths of a batch need different panels.
    """
    c = 0.2

    def jump(t, s, x, xi):
        xi = np.asarray(xi, dtype=np.float64)
        return c * x * xi * np.exp(-xi * np.abs(x) / (1.0 + np.asarray(t, dtype=np.float64) - s))

    return CoefficientSet(
        drift=lambda t, s, x: 0.25 * np.asarray(x, dtype=np.float64),
        diffusion=lambda t, s, x: 2.0 * np.asarray(x, dtype=np.float64),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(4.0),
        jump=jump,
        name="peaked-marks",
    )


def test_state_dependent_mark_quadrature_does_not_depend_on_the_batch(monkeypatch):
    # each path's column of compensator cells is its own vector quadrature;
    # one quadrature over the whole (paths, n - j) block would subdivide
    # where any path's peak sits and move the others' values
    coeffs = peaked_mark_coefficients()
    grid = build_grid(0.5, 8)
    last = grid.steps + 1
    shapes = []

    def recorded(*args):
        shapes.append(np.shape(result := compensator_integral(*args)))
        return result

    monkeypatch.setattr("svie.solver.compensator_integral", recorded)
    ens = ensemble_simulate(coeffs, grid, 3, master_seed=41)
    monkeypatch.undo()
    assert shapes == [(3, grid.steps - j) for j in range(grid.steps)]
    assert not ens.exploded.any()
    noises = [sample_noise_path(grid, coeffs.measure, (41, idx)) for idx in range(3)]
    keep = (1, 2, last)
    batch = batch_iterates(coeffs, noises, keep)
    for idx, noise in enumerate(noises):
        assert bitwise_equal(ens.values[idx], direct_recursion(coeffs, noise).values)
        alone = batch_iterates(coeffs, [noise], keep)
        for k in keep:
            assert bitwise_equal(alone[k][0], batch[k][idx])
        assert bitwise_equal(batch[last][idx], ens.values[idx])


def test_exploding_ensemble_warns_nothing_and_flags_every_path():
    # the finiteness check reports the overflow; numpy need not warn about it
    coeffs = example_coefficients(1e150, rate=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = ensemble_simulate(coeffs, build_grid(0.5, 16), 10, master_seed=1)
    assert ens.exploded.all()


def test_ensemble_mixes_exploded_and_surviving_paths():
    # the jump kernel overflows, so exactly the paths that jump explode
    grid = build_grid(1.0, 16)
    coeffs = CoefficientSet(
        drift=lambda t, s, x: 0.5 * np.asarray(x, dtype=np.float64),
        diffusion=lambda t, s, x: 0.3 * np.asarray(x, dtype=np.float64),
        initial=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
        measure=LevyMeasure.lognormal(1.0),
        jump=lambda t, s, x, xi: 1e308 * 10.0 * np.asarray(xi) * x,
        compensator=lambda t, s, x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        name="jump-overflow",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ens = ensemble_simulate(coeffs, grid, 16, master_seed=3)
        assert 0 < ens.exploded.sum() < 16
        for idx in range(16):
            noise = sample_noise_path(grid, coeffs.measure, (3, idx))
            assert ens.exploded[idx] == (noise.jump_times.size > 0)
            if ens.exploded[idx]:
                with pytest.raises(ExplosionError) as info:
                    direct_recursion(coeffs, noise)
                assert np.isnan(ens.values[idx]).all()
                assert ens.explosion_index[idx] == info.value.grid_index
            else:
                assert ens.explosion_index[idx] == -1
                assert bitwise_equal(ens.values[idx], direct_recursion(coeffs, noise).values)


# --- the fold for separable kernels -----------------------------------------------

SEPARABLE_MODELS = {
    "example": example_coefficients(0.02, rate=40.0),
    "linear_test": linear_test_coefficients(0.05, rate=40.0),
    "time_dependent": separable_time_dependent_coefficients(rate=40.0),
}


# one plain kernel beside separable ones: the sweep folds the separable kernels and pushes the plain one's cells
MIXED_MODELS = {
    name: dataclasses.replace(SEPARABLE_MODELS[base], **{slot: plain(getattr(SEPARABLE_MODELS[base], slot))})
    for name, base, slot in (
        ("example_plain_diffusion", "example", "diffusion"),
        ("time_dependent_plain_drift", "time_dependent", "drift"),
        ("linear_test_plain_jump", "linear_test", "jump"),
    )
}
FOLDING_MODELS = {**SEPARABLE_MODELS, **MIXED_MODELS}


@pytest.mark.parametrize("name", FOLDING_MODELS)
def test_separable_ensemble_rows_do_not_depend_on_the_batch(name):
    coeffs = FOLDING_MODELS[name]
    grid = build_grid(0.5, 64)
    runs = {size: ensemble_simulate(coeffs, grid, size, master_seed=37) for size in (1, 7, 200)}
    noises = [sample_noise_path(grid, coeffs.measure, (37, idx)) for idx in range(7)]
    # two jumps of one path in one cell: np.add.at must add them in time order
    assert max(most_jumps_in_one_cell(noise) for noise in noises) >= 2
    assert not runs[200].exploded.any()
    assert bitwise_equal(runs[1].values[0], runs[7].values[0])
    assert bitwise_equal(runs[7].values, runs[200].values[:7])
    for idx, noise in enumerate(noises):
        assert bitwise_equal(runs[7].values[idx], direct_recursion(coeffs, noise).values)


@pytest.mark.parametrize("name", FOLDING_MODELS)
def test_separable_picard_iterates_do_not_depend_on_the_batch_and_end_at_the_direct_solve(name):
    coeffs = FOLDING_MODELS[name]
    grid = build_grid(0.5, 32)
    last = grid.steps + 1
    noises = [sample_noise_path(grid, coeffs.measure, (43, idx)) for idx in range(200)]
    assert max(most_jumps_in_one_cell(noise) for noise in noises[:7]) >= 2
    keep = (1, 2, last)
    # the stream picard_gap reads its iterates from
    runs = {size: batch_iterates(coeffs, noises[:size], keep) for size in (7, 200)}
    for k in keep:
        assert bitwise_equal(runs[7][k], runs[200][k][:7])
    for idx, noise in enumerate(noises[:7]):
        alone = batch_iterates(coeffs, [noise], keep)
        for k in keep:
            assert bitwise_equal(alone[k][0], runs[7][k][idx])
        direct = direct_recursion(coeffs, noise).values
        assert bitwise_equal(runs[200][last][idx], direct)
        assert bitwise_equal(picard_solve(coeffs, noise, tolerance=0.0).final.values, direct)


@pytest.mark.parametrize("name", FOLDING_MODELS)
def test_separable_models_agree_with_their_column_push_twins(name):
    coeffs = FOLDING_MODELS[name]
    grid = build_grid(0.5, 64)
    factored = ensemble_simulate(coeffs, grid, 50, master_seed=47)
    column = ensemble_simulate(plain_twin(coeffs), grid, 50, master_seed=47)
    assert not column.exploded.any()
    scale = np.max(np.abs(column.values))
    assert np.max(np.abs(factored.values - column.values)) <= 1e-12 * scale
    # the two pushes sum in different orders
    assert not bitwise_equal(factored.values, column.values)


def test_separable_states_see_one_value_per_path():
    # the factored push calls a state part with the column's 1-D states (and
    # the column's jump marks), a time or lag factor once per sweep
    seen = []

    def recorded(kind, fn):
        return lambda *args: seen.append((kind, tuple(np.shape(a) for a in args))) or fn(*args)

    base = linear_test_coefficients(0.05, rate=40.0)
    grid = build_grid(0.5, 16)
    x_state = lambda x: 0.25 * np.asarray(x, dtype=np.float64)
    coeffs = dataclasses.replace(
        base,
        drift=SeparableKernel(((recorded("time", np.cos), recorded("lag", np.sin), recorded("state", x_state)),)),
    )
    ensemble_simulate(coeffs, grid, 5, master_seed=3)
    assert seen == [("time", ((grid.steps + 1,),)), ("lag", ((grid.steps + 1,),))] + [("state", ((5,),))] * grid.steps


def test_a_model_without_a_closed_form_compensator_folds_its_separable_kernels(monkeypatch):
    coeffs = dataclasses.replace(example_coefficients(0.1, 2.0), compensator=None)
    grid = build_grid(0.5, 8)
    shapes = []

    def recorded(*args):
        shapes.append(np.shape(result := compensator_integral(*args)))
        return result

    monkeypatch.setattr("svie.solver.compensator_integral", recorded)
    ens = ensemble_simulate(coeffs, grid, 3, master_seed=53)
    assert shapes == [(3, grid.steps - j) for j in range(grid.steps)]
    assert not ens.exploded.any()
    column = ensemble_simulate(plain_twin(coeffs), grid, 3, master_seed=53).values
    assert np.max(np.abs(ens.values - column)) <= 1e-12 * np.max(np.abs(column))
    assert not bitwise_equal(ens.values, column)


def test_a_separable_drift_with_a_plain_diffusion_folds_its_separable_kernels():
    base = example_coefficients(0.1, 2.0)
    grid = build_grid(0.5, 16)
    seen = []

    def diffusion(t, s, x):
        seen.append((np.shape(t), np.shape(s), np.shape(x)))
        return base.diffusion(t, s, x)

    coeffs = dataclasses.replace(base, diffusion=diffusion)
    ens = ensemble_simulate(coeffs, grid, 4, master_seed=59)
    assert seen == [((grid.steps - j,), (), (4, 1)) for j in range(grid.steps)]
    column = ensemble_simulate(plain_twin(base), grid, 4, master_seed=59).values
    assert np.max(np.abs(ens.values - column)) <= 1e-12 * np.max(np.abs(column))
    assert not bitwise_equal(ens.values, column)


@pytest.mark.parametrize("name", MIXED_MODELS)
def test_a_mixed_model_never_calls_a_separable_kernel_whole(name):
    whole, seen = [], []

    class Counting(SeparableKernel):
        def __call__(self, *args):
            whole.append(self.name)
            return super().__call__(*args)

    def recorded(kernel):
        return lambda *args: seen.append(tuple(np.shape(a) for a in args)) or kernel(*args)

    coeffs = MIXED_MODELS[name]
    kernels = {k: getattr(coeffs, k) for k in ("drift", "diffusion", "jump", "compensator")}
    counted = {
        k: Counting(v.terms, k) if isinstance(v, SeparableKernel) else recorded(v) for k, v in kernels.items()
    }
    grid, paths = build_grid(0.5, 16), 5
    ensemble_simulate(dataclasses.replace(coeffs, **counted), grid, paths, master_seed=73)
    assert whole == []
    if isinstance(coeffs.jump, SeparableKernel):
        # the plain drift or diffusion: once per column
        expected = [((grid.steps - j,), (), (paths, 1)) for j in range(grid.steps)]
    else:
        # the plain jump: once per column with jumps, with a column per jump
        per_column = np.diff(sample_noise_ensemble(grid, coeffs.measure, paths, 73).jump_cells)
        expected = [((grid.steps - j,), (m, 1), (m, 1), (m, 1)) for j, m in enumerate(per_column) if m]
        assert len(expected) > 1
    assert seen == expected
