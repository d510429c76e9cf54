"""Coefficient catalogue, continuity moduli, and the assumption audits."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from svie.coefficients import (
    AUDIT_SLACK,
    COEFFICIENT_SETS,
    MARK_INTEGRAL_REL_TOL,
    MODULI,
    CoefficientSet,
    SeparableKernel,
    _jump_square_integral,
    audit_linear_growth,
    audit_modulus,
    bihari_integral,
    coefficient_catalogue,
    deterministic_ode_coefficients,
    domain_sampler,
    example_coefficients,
    linear_modulus,
    linear_test_coefficients,
    log_modulus,
    modulus_catalogue,
    osgood_ladder,
    pair_sampler,
    quadratic_modulus,
    scale_for_log_modulus,
    zero_coefficients,
)
from svie.errors import ConfigurationError
from svie.grid_noise import LevyMeasure, build_grid, sample_noise_path
from svie.solver import direct_recursion

E_XI_SQ = math.exp(2.0)
E_XI_4TH = math.exp(8.0)


# --- catalogue kernels ------------------------------------------------------


def test_example_kernels_at_pinned_points():
    coeffs = example_coefficients(0.5)
    assert coeffs.drift(0.3, 0.1, 2.0) == pytest.approx(1.0)
    assert coeffs.diffusion(0.7, 0.7, 1.0) == pytest.approx(4.0)
    assert coeffs.jump(0.3, 0.1, 1.0, 2.0) == pytest.approx(2.0)
    assert coeffs.initial(0.42) == pytest.approx(1.0)


def test_example_diffusion_depends_on_time_gap_only():
    coeffs = example_coefficients(0.1)
    lag = 0.3
    for base in (0.0, 0.2, 0.5):
        assert coeffs.diffusion(base + lag, base, 2.0) == pytest.approx(8.0 * math.cos(lag) ** 2)


def test_example_compensator_closed_form():
    coeffs = example_coefficients(0.25, rate=2.0)
    assert coeffs.compensator(0.5, 0.1, 3.0) == pytest.approx(0.25 * 3.0 * 2.0 * E_XI_SQ, rel=1e-12)


def test_example_growth_constant_is_the_worst_kernel():
    # drift gives 1/4, diffusion 16, jumps rate * E[xi^4] * c^2
    assert example_coefficients(0.01).growth_constant == pytest.approx(16.0)
    assert example_coefficients(0.1, rate=2.0).growth_constant == pytest.approx(2.0 * E_XI_4TH * 0.01, rel=1e-12)


def test_example_rejects_bad_jump_coefficient():
    with pytest.raises(ConfigurationError):
        example_coefficients(0.0)
    with pytest.raises(ConfigurationError):
        example_coefficients(-1.0)


@pytest.mark.parametrize("factory", [example_coefficients, linear_test_coefficients])
@pytest.mark.parametrize("rate", [-1.0, math.nan])
def test_factories_reject_a_bad_jump_rate(factory, rate):
    with pytest.raises(ConfigurationError, match="jump rate must be finite and non-negative"):
        factory(0.1, rate)
    with pytest.raises(ConfigurationError, match="jump rate must be finite and non-negative"):
        coefficient_catalogue(factory(0.1, 0.0).name, 0.1, rate)


def test_deterministic_ode_has_no_noise():
    coeffs = deterministic_ode_coefficients()
    assert coeffs.drift(1.0, 0.5, 2.0) == pytest.approx(1.0)
    assert coeffs.diffusion(1.0, 0.5, 2.0) == 0.0
    assert coeffs.jump is None
    assert coeffs.measure.total_mass == 0.0


def test_linear_test_kernels():
    coeffs = linear_test_coefficients(0.2, rate=1.5)
    assert coeffs.drift(0.4, 0.1, 2.0) == pytest.approx(0.5)
    assert coeffs.diffusion(0.4, 0.1, 2.0) == pytest.approx(1.0)
    assert coeffs.jump(0.4, 0.1, 2.0, 3.0) == pytest.approx(0.2 * 3.0 * 2.0)


def test_zero_coefficients_are_identically_zero():
    coeffs = zero_coefficients()
    assert coeffs.drift(0.5, 0.2, 7.0) == 0.0
    assert coeffs.diffusion(0.5, 0.2, 7.0) == 0.0
    assert coeffs.growth_constant == 0.0


def test_catalogue_dispatch_and_unknown_name():
    for name in COEFFICIENT_SETS:
        assert coefficient_catalogue(name, 0.1, 2.0).name == name
    assert coefficient_catalogue("zero").name == "zero"
    with pytest.raises(ConfigurationError) as info:
        coefficient_catalogue("no-such-set")
    assert all(name in str(info.value) for name in COEFFICIENT_SETS)


def test_empty_measure_switches_jumps_off():
    assert example_coefficients(0.1, rate=0.0).jump is None
    assert linear_test_coefficients(0.1, rate=0.0).compensator is None
    coeffs = CoefficientSet(
        drift=lambda t, s, x: 0.0,
        diffusion=lambda t, s, x: 0.0,
        initial=lambda t: 1.0,
        measure=LevyMeasure.empty(),
        jump=lambda t, s, x, xi: x,
        compensator=lambda t, s, x: x,
    )
    assert coeffs.jump is None
    assert coeffs.compensator is None


def test_jump_requires_mark_sampler():
    measure = LevyMeasure(
        total_mass=1.0,
        mark_density=LevyMeasure.lognormal(1.0).mark_density,
        mark_sampler=None,
    )
    with pytest.raises(ConfigurationError):
        CoefficientSet(
            drift=lambda t, s, x: 0.0,
            diffusion=lambda t, s, x: 0.0,
            initial=lambda t: 1.0,
            measure=measure,
            jump=lambda t, s, x, xi: x,
        )


# --- separable kernels --------------------------------------------------------


def bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_separable_kernels_broadcast_in_every_call_shape():
    rng = np.random.default_rng(8)
    separable = SeparableKernel(((np.exp, np.cos, lambda x, xi: x * xi), (None, None, lambda x, xi: xi)))
    plain = lambda t, s, x, xi: np.exp(t) * np.cos(s) * x * xi + xi
    diffusion = example_coefficients(0.1).diffusion
    old_diffusion = lambda t, s, x: 4.0 * np.cos(np.asarray(t, dtype=np.float64) - s) ** 2 * x
    t, s = np.linspace(0.2, 0.5, 6), 0.1
    # the column push: later grid times, a scalar s (jump times for the jump
    # kernel, as columns), a column of states
    x, times, marks = rng.normal(size=(4, 1)), rng.random((3, 1)) * 0.1, rng.random((3, 1))
    np.testing.assert_allclose(diffusion(t, s, x), old_diffusion(t, s, x), rtol=1e-13, atol=1e-14)
    assert separable(t, times, x[:3], marks).shape == (3, 6)
    np.testing.assert_allclose(separable(t, times, x[:3], marks), plain(t, times, x[:3], marks), rtol=1e-14)
    # mark quadrature: the states on a leading axis, the marks trailing
    xi = rng.random(5)
    got = separable(t[:, None], s, x[:1].T.repeat(6, axis=0), xi)
    assert got.shape == (6, 5)
    np.testing.assert_allclose(got, plain(t[:, None], s, x[:1].T.repeat(6, axis=0), xi), rtol=1e-14)
    # the audits: one value per sample
    tt, ss, xx = domain_sampler(0.5, seed=4)(7)
    np.testing.assert_allclose(diffusion(tt, ss, xx), old_diffusion(tt, ss, xx), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(separable(tt, ss, xx, xi[:1]), plain(tt, ss, xx, xi[:1]), rtol=1e-14)


def test_a_term_without_time_or_lag_factors_is_the_old_kernel_bitwise():
    c, rate = 0.3, 2.0
    coeffs = example_coefficients(c, rate)
    old_drift = lambda t, s, x: 0.5 * np.asarray(x, dtype=np.float64)
    old_jump = lambda t, s, x, xi: c * np.asarray(xi, dtype=np.float64) ** 2 * x
    old_compensator = lambda t, s, x: c * rate * E_XI_SQ * np.asarray(x, dtype=np.float64)
    t, s, x = domain_sampler(0.5, seed=6)(200)
    xi = np.random.default_rng(6).lognormal(size=200)
    assert bitwise_equal(coeffs.drift(t, s, x), old_drift(t, s, x))
    assert bitwise_equal(coeffs.compensator(t, s, x), old_compensator(t, s, x))
    assert bitwise_equal(coeffs.jump(t, s, x, xi), old_jump(t, s, x, xi))
    assert bitwise_equal(coeffs.jump(t, s[:, None], x[:, None], xi), old_jump(t, s[:, None], x[:, None], xi))


def test_a_kernel_without_terms_is_zero_of_the_broadcast_shape():
    zero = SeparableKernel(())
    assert bitwise_equal(zero(np.ones(3), 0.1, np.ones((2, 1))), np.zeros((2, 3)))
    assert bitwise_equal(SeparableKernel(())(0.2, 0.1, np.ones(4), np.ones((5, 1))), np.zeros((5, 4)))
    assert bitwise_equal(zero(0.2, 0.1, 3.0), 0.0)


STATE = lambda x: x
MARKED_STATE = lambda x, xi: x * xi


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SeparableKernel(((2.0, None, STATE),), name="k"), "k: term 0 time must be a function of t or None"),
        (lambda: SeparableKernel(((None, "s", STATE),), name="k"), "k: term 0 lag must be a function of s or None"),
        (lambda: SeparableKernel(((None, None, None),), name="k"), "k: term 0 state must be a function of x"),
        (lambda: SeparableKernel(((np.exp, None, STATE), (None, None)), name="k"), "k: term 1 must be a (time"),
        (lambda: SeparableKernel(((lambda t, u: t, None, STATE),), name="k"), "k: term 0 time must be a function of t"),
        (lambda: SeparableKernel(None, name="k"), "k: terms must be a tuple of (time, lag, state) terms, got None"),
        (lambda: SeparableKernel(3, name="k"), "k: terms must be a tuple of (time, lag, state) terms, got 3"),
    ],
)
def test_malformed_separable_terms_name_the_kernel(build, message):
    with pytest.raises(ConfigurationError) as info:
        build()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "slot, kernel, message",
    [
        ("jump", SeparableKernel(((None, None, STATE),), name="h"), "h: term 0 state must be a function of (x, xi)"),
        ("drift", SeparableKernel(((None, None, MARKED_STATE),), name="f"), "f: term 0 state must be a function of x"),
        (
            "compensator",
            SeparableKernel(((None, None, STATE), (np.exp, None, MARKED_STATE)), name="c"),
            "c: term 1 state must be a function of x",
        ),
        ("jump", SeparableKernel(((None, None, np.exp),), name="h"), "h: term 0 state must be a function of (x, xi)"),
        ("drift", lambda t, s: t, "drift must be a function of (t, s, x), got <function"),
        ("drift", np.add, "drift must be a function of (t, s, x), got <ufunc 'add'>"),
        ("diffusion", lambda t, s, x, xi: x, "diffusion must be a function of (t, s, x), got <function"),
        ("jump", lambda t, s, x: x, "jump must be a function of (t, s, x, xi), got <function"),
        ("compensator", lambda x: x, "compensator must be a function of (t, s, x), got <function"),
        ("initial", lambda: 1.0, "initial must be a function of t, got <function"),
        (
            "initial",
            SeparableKernel(((None, None, STATE),), name="phi"),
            "initial must be a function of t, got SeparableKernel(",
        ),
    ],
)
def test_a_kernel_is_checked_against_the_arguments_of_its_slot(slot, kernel, message):
    with pytest.raises(ConfigurationError) as info:
        dataclasses.replace(example_coefficients(0.1), **{slot: kernel})
    assert str(info.value).startswith(message)


def test_a_malformed_jump_is_reported_even_on_an_empty_measure():
    with pytest.raises(ConfigurationError, match=r"^jump must be a function of \(t, s, x, xi\)"):
        dataclasses.replace(zero_coefficients(), jump=lambda t, s, x: x)
    with pytest.raises(ConfigurationError, match=r"^h: term 0 state must be a function of \(x, xi\)"):
        dataclasses.replace(zero_coefficients(), jump=SeparableKernel(((None, None, STATE),), name="h"))


@pytest.mark.parametrize(
    "slot, kernel",
    [
        ("drift", lambda *args: 0.0),
        ("jump", lambda t, s, x, xi=None: x),
        ("jump", SeparableKernel(((None, np.exp, lambda *state: state[0]),))),
        ("initial", np.ones_like),
        ("compensator", SeparableKernel(())),
        ("jump", SeparableKernel(((None, None, np.multiply),))),
        ("drift", SeparableKernel(((np.exp, np.exp, STATE),))),
    ],
)
def test_a_kernel_that_takes_its_slots_arguments_is_accepted(slot, kernel):
    assert getattr(dataclasses.replace(example_coefficients(0.1), **{slot: kernel}), slot) is kernel


@pytest.mark.parametrize(
    "slot, value, message",
    [
        ("drift", 2.0, "drift must be callable, got 2.0"),
        ("diffusion", None, "diffusion must be callable, got None"),
        ("initial", "x", "initial must be callable, got 'x'"),
        ("jump", 1.0, "jump must be callable or None, got 1.0"),
        ("compensator", 3, "compensator must be callable or None, got 3"),
        ("measure", None, "measure must be a LevyMeasure, got None"),
    ],
)
def test_a_malformed_model_slot_is_rejected_naming_the_slot(slot, value, message):
    with pytest.raises(ConfigurationError) as info:
        dataclasses.replace(example_coefficients(0.1), **{slot: value})
    assert str(info.value) == message


# --- moduli -----------------------------------------------------------------


def test_linear_modulus_is_identity():
    mod = linear_modulus(3.0)
    assert mod.kappa(0.0) == 0.0
    assert float(mod.kappa(0.25)) == 0.25
    assert mod.scale == 3.0
    assert mod.osgood_divergent


def test_log_modulus_values_and_flat_extension():
    mod = log_modulus(1.0)
    cap = math.exp(-1.0)
    assert mod.kappa(0.0) == 0.0
    assert mod.kappa(math.exp(-2.0)) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert mod.kappa(cap) == pytest.approx(cap, rel=1e-12)
    assert mod.kappa(0.5) == pytest.approx(cap, rel=1e-12)
    assert mod.kappa(10.0) == pytest.approx(cap, rel=1e-12)
    grid = np.geomspace(1e-14, 20.0, 200)
    vals = np.asarray(mod.kappa(grid))
    assert np.all(np.diff(vals) >= -1e-15)


def test_modulus_catalogue_names():
    assert modulus_catalogue("linear", 1.0).name == "linear"
    assert modulus_catalogue("log", 1.0).name == "log"
    assert modulus_catalogue("quadratic", 1.0).name == "quadratic"
    with pytest.raises(ConfigurationError) as info:
        modulus_catalogue("cubic", 1.0)
    assert all(kind in str(info.value) for kind in MODULI)


def test_scale_for_log_modulus_dominates_the_linear_bound():
    for linear_scale, d_max in [(16.0, 0.01), (16.0, 400.0), (59.0, 1.0), (2.0, math.exp(-1.0))]:
        scale = scale_for_log_modulus(linear_scale, d_max)
        mod = log_modulus(1.0)
        d = np.geomspace(1e-12, d_max, 500)
        assert np.all(linear_scale * d <= scale * np.asarray(mod.kappa(d)) * (1.0 + 1e-12))


def test_modulus_rejects_bad_scale():
    with pytest.raises(ConfigurationError):
        linear_modulus(-1.0)
    with pytest.raises(ConfigurationError):
        linear_modulus(math.nan)


# --- osgood ladder ----------------------------------------------------------


def test_osgood_ladder_linear_matches_logarithm():
    probe = osgood_ladder(linear_modulus(1.0))
    # int_eps^1 du/u = ln(1/eps), decade ladder from 1e-2 down
    expected = np.log(1.0 / np.asarray(probe.epsilons))
    np.testing.assert_allclose(probe.values, expected, rtol=1e-8)
    assert probe.divergent


def test_osgood_ladder_log_modulus_diverges():
    assert osgood_ladder(log_modulus(1.0)).divergent


def test_osgood_ladder_detects_convergent_integral():
    # kappa(u) = sqrt(u) is concave and monotone but int du/kappa converges
    root = type(linear_modulus(1.0))(
        kappa=lambda u: np.sqrt(np.asarray(u, dtype=np.float64)),
        scale=1.0,
        osgood_divergent=True,
        name="sqrt",
    )
    probe = osgood_ladder(root)
    assert not probe.divergent
    # int_eps^1 du / sqrt(u) = 2 (1 - sqrt(eps)) on every rung
    expected = 2.0 * (1.0 - np.sqrt(np.asarray(probe.epsilons)))
    np.testing.assert_allclose(probe.values, expected, rtol=1e-12)


def test_osgood_ladder_log_modulus_matches_closed_form():
    # int_eps^1 du / kappa = log log(1/eps) below the cap 1/e, plus e - 1 above it
    probe = osgood_ladder(log_modulus(1.0))
    expected = np.log(np.log(1.0 / np.asarray(probe.epsilons))) + math.e - 1.0
    np.testing.assert_allclose(probe.values, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("decades", [0, 1])
def test_osgood_ladder_needs_two_decades(decades):
    # the verdict compares the last increment with the second one
    with pytest.raises(ConfigurationError, match=f"decades must be at least 2, got {decades}"):
        osgood_ladder(linear_modulus(1.0), decades)
    assert len(osgood_ladder(linear_modulus(1.0), 2).values) == 2


def test_bihari_integral_reverses_sign_with_its_bounds():
    mod = log_modulus(1.0)
    assert bihari_integral(mod, 1e-6, 0.9) == -bihari_integral(mod, 0.9, 1e-6)


# --- linear-growth audit ------------------------------------------------------


def test_growth_audit_passes_catalogue_sets():
    for name in ("example", "linear_test", "deterministic_ode"):
        coeffs = coefficient_catalogue(name, 0.1, 2.0)
        audit = audit_linear_growth(coeffs, domain_sampler(0.5, 10.0, seed=3), 400)
        assert audit.passed, name
        assert audit.estimated_constant <= coeffs.growth_constant + AUDIT_SLACK


def test_growth_audit_zero_coefficients_estimate_zero():
    audit = audit_linear_growth(zero_coefficients(), domain_sampler(1.0, 10.0, seed=1), 100)
    assert audit.estimated_constant == 0.0
    assert audit.passed


def test_growth_audit_is_monotone_in_the_sample_set():
    coeffs = example_coefficients(0.1)
    pool_t = np.linspace(0.0, 0.5, 256)
    pool_s = pool_t * 0.7
    pool_x = np.linspace(-10.0, 10.0, 256)

    def pooled(n):
        return pool_t[:n], pool_s[:n], pool_x[:n]

    small = audit_linear_growth(coeffs, pooled, 64).estimated_constant
    large = audit_linear_growth(coeffs, pooled, 256).estimated_constant
    assert large >= small


def test_growth_audit_flags_undersupplied_constant():
    coeffs = example_coefficients(0.1)
    tight = CoefficientSet(
        drift=coeffs.drift,
        diffusion=coeffs.diffusion,
        initial=coeffs.initial,
        measure=coeffs.measure,
        jump=coeffs.jump,
        compensator=coeffs.compensator,
        growth_constant=1.0,
        name="undersupplied",
    )
    audit = audit_linear_growth(tight, domain_sampler(0.5, 10.0, seed=3), 200)
    assert not audit.passed
    assert audit.estimated_constant > 1.0


def test_growth_audit_names_a_nan_sample():
    coeffs = zero_coefficients()
    broken = CoefficientSet(
        drift=lambda t, s, x: np.where(np.asarray(x) > 5.0, np.nan, 0.0),
        diffusion=coeffs.diffusion,
        initial=coeffs.initial,
        measure=coeffs.measure,
        name="nan-drift",
    )
    audit = audit_linear_growth(broken, domain_sampler(1.0, 10.0, seed=8), 300)
    assert not audit.passed
    assert audit.bad_points
    t, s, x = audit.bad_points[0]
    assert x > 5.0


def test_both_audits_report_nan_when_no_sample_is_finite():
    broken = dataclasses.replace(zero_coefficients(), drift=lambda t, s, x: np.full(np.shape(x), np.nan))
    growth = audit_linear_growth(broken, domain_sampler(1.0, 10.0, seed=8), 50)
    modulus = audit_modulus(broken, linear_modulus(1.0), pair_sampler(1.0, 10.0, seed=8), 50)
    assert math.isnan(growth.estimated_constant) and not growth.passed
    assert math.isnan(modulus.worst_slack) and not modulus.passed
    assert len(modulus.bad_points) == 50


def _audit(name, coeffs):
    if name == "growth":
        return audit_linear_growth(coeffs, domain_sampler(0.5, 10.0, seed=1), 50)
    return audit_modulus(coeffs, linear_modulus(1.0), pair_sampler(0.5, 10.0, seed=1), 50)


@pytest.mark.parametrize("slot", ["drift", "diffusion"])
@pytest.mark.parametrize("audit", ["growth", "modulus"])
def test_both_audits_name_a_slot_of_the_wrong_shape(audit, slot):
    broken = dataclasses.replace(linear_test_coefficients(), **{slot: lambda t, s, x: np.ones(3)})
    with pytest.raises(ConfigurationError, match=rf"^{slot} gave shape \(3,\), which does not broadcast to \(50,\)$"):
        _audit(audit, broken)


# --- modulus audit ----------------------------------------------------------


def test_modulus_audit_passes_lipschitz_sets_with_linear_kappa():
    for name in ("example", "linear_test"):
        coeffs = coefficient_catalogue(name, 0.1, 2.0)
        mod = linear_modulus(coeffs.growth_constant)
        audit = audit_modulus(coeffs, mod, pair_sampler(0.5, 10.0, seed=5), 300)
        assert audit.passed, (name, audit.worst_slack)
        assert audit.worst_slack <= AUDIT_SLACK


def test_modulus_audit_passes_example_with_log_kappa():
    coeffs = example_coefficients(0.1, rate=2.0)
    scale = scale_for_log_modulus(coeffs.growth_constant, (2.0 * 10.0) ** 2)
    audit = audit_modulus(coeffs, log_modulus(scale), pair_sampler(0.5, 10.0, seed=6), 300)
    assert audit.passed


def test_modulus_audit_pinned_diffusion_difference():
    # t = s, x = 1, y = 0 makes the diffusion difference exactly 4, squared 16
    coeffs = example_coefficients(0.01, rate=0.0)

    def pinned(n):
        t = np.full(n, 0.3)
        return t, t, np.ones(n), np.zeros(n)

    audit = audit_modulus(coeffs, linear_modulus(16.0), pinned, 8)
    assert audit.passed
    assert audit.worst_slack == pytest.approx(0.0, abs=1e-12)


def test_modulus_audit_equal_states_give_zero_slack():
    coeffs = linear_test_coefficients(0.3, rate=1.0)

    def diagonal(n):
        rng = np.random.default_rng(4)
        t = 0.5 * rng.random(n)
        x = 10.0 * (2.0 * rng.random(n) - 1.0)
        return t, t * rng.random(n), x, x.copy()

    audit = audit_modulus(coeffs, linear_modulus(coeffs.growth_constant), diagonal, 64)
    assert audit.passed
    assert audit.worst_slack <= 0.0


def test_modulus_audit_rejects_convex_kappa():
    coeffs = linear_test_coefficients(0.1)
    audit = audit_modulus(coeffs, quadratic_modulus(1e6), pair_sampler(0.5, 10.0, seed=7), 200)
    assert not audit.passed
    assert not audit.concave_ok


def test_modulus_audit_flags_undersized_scale():
    coeffs = example_coefficients(0.1, rate=2.0)
    audit = audit_modulus(coeffs, linear_modulus(1.0), pair_sampler(0.5, 10.0, seed=9), 200)
    assert not audit.passed
    assert audit.worst_slack > AUDIT_SLACK
    t, s, x, y = audit.worst_point
    assert 0.0 <= s <= t <= 0.5 and abs(x) <= 10.0 and abs(y) <= 10.0


def test_modulus_audit_rejects_false_divergence_claims():
    coeffs = zero_coefficients()
    sqrt_mod = linear_modulus(1.0)
    sqrt_mod = type(sqrt_mod)(
        kappa=lambda u: np.sqrt(np.asarray(u, dtype=np.float64)),
        scale=1.0,
        osgood_divergent=True,
        name="sqrt",
    )
    audit = audit_modulus(coeffs, sqrt_mod, pair_sampler(0.5, 10.0, seed=2), 100)
    assert not audit.passed
    assert not audit.osgood.divergent


# --- samplers ---------------------------------------------------------------


def test_domain_sampler_is_seed_deterministic_and_in_range():
    a = domain_sampler(0.7, 5.0, seed=11)
    b = domain_sampler(0.7, 5.0, seed=11)
    ta, sa, xa = a(500)
    tb, sb, xb = b(500)
    np.testing.assert_array_equal(ta, tb)
    np.testing.assert_array_equal(xa, xb)
    assert np.all((0.0 <= sa) & (sa <= ta) & (ta <= 0.7))
    assert np.all(np.abs(xa) <= 5.0)


def test_pair_sampler_covers_both_states():
    t, s, x, y = pair_sampler(0.5, 2.0, seed=12)(400)
    assert np.all((0.0 <= s) & (s <= t) & (t <= 0.5))
    assert np.all(np.abs(x) <= 2.0) and np.all(np.abs(y) <= 2.0)
    assert np.any(x != y)


# --- mark-space quadrature inside the audits --------------------------------


def test_audit_jump_terms_are_accurate_per_sample():
    # example: int h^2 nu = c^2 rate e^8 x^2, each sample certified on its own
    c, rate = 0.1, 2.0
    coeffs = example_coefficients(c, rate)
    x = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 13), -np.geomspace(1e-6, 1e6, 5)])
    y = np.concatenate([[0.0], -x[1:][::-1]])
    t = np.full(x.size, 0.5)
    s = np.linspace(0.0, 0.5, x.size)
    slope = c * c * rate * math.exp(8.0)
    plain = _jump_square_integral(coeffs, t, s, x)
    diff = _jump_square_integral(coeffs, t, s, x, y)
    assert plain[0] == 0.0 and diff[0] == 0.0
    np.testing.assert_allclose(plain[1:], slope * x[1:] ** 2, rtol=MARK_INTEGRAL_REL_TOL, atol=0.0)
    np.testing.assert_allclose(diff[1:], slope * (x[1:] - y[1:]) ** 2, rtol=MARK_INTEGRAL_REL_TOL, atol=0.0)


@pytest.mark.parametrize("audit", ["growth", "modulus"])
def test_both_audits_name_a_jump_kernel_that_does_not_run_over_the_marks(audit):
    broken = dataclasses.replace(linear_test_coefficients(), jump=lambda t, s, x, xi: np.ones(2))
    message = r"^integrand gave shape \(2,\), whose last axis does not run over the 161 marks$"
    with pytest.raises(ConfigurationError, match=message):
        _audit(audit, broken)


@pytest.mark.parametrize("audit", ["growth", "modulus"])
def test_both_audits_name_a_jump_integral_of_the_wrong_shape(audit):
    # the last axis runs over the marks, the other one has 3 entries, not one per sample
    broken = dataclasses.replace(linear_test_coefficients(), jump=lambda t, s, x, xi: np.ones((3, np.size(xi))))
    with pytest.raises(ConfigurationError, match=r"^jump gave shape \(3,\), which does not broadcast to \(50,\)$"):
        _audit(audit, broken)


def test_growth_audit_keeps_a_nan_jump_kernel_local():
    clean = example_coefficients(0.1, 2.0)
    broken = CoefficientSet(
        drift=clean.drift,
        diffusion=clean.diffusion,
        jump=lambda t, s, x, xi: np.where(np.asarray(x) > 9.5, np.nan, clean.jump(t, s, x, xi)),
        initial=clean.initial,
        measure=clean.measure,
        growth_constant=clean.growth_constant,
        name="nan-jump",
    )
    t, s, x = domain_sampler(0.5, 10.0, seed=5)(300)
    audit = audit_linear_growth(broken, domain_sampler(0.5, 10.0, seed=5), 300)
    assert not audit.passed
    assert sorted(p[2] for p in audit.bad_points) == sorted(x[x > 9.5].tolist())
    got = _jump_square_integral(broken, t, s, x)
    want = _jump_square_integral(clean, t, s, x)
    ok = x <= 9.5
    assert np.isnan(got[~ok]).all()
    np.testing.assert_allclose(got[ok], want[ok], rtol=MARK_INTEGRAL_REL_TOL, atol=0.0)


def test_audits_and_quadrature_solve_raise_no_warnings():
    coeffs = example_coefficients(0.1, 2.0)
    stripped = dataclasses.replace(coeffs, compensator=None)
    grid = build_grid(0.5, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert audit_linear_growth(coeffs, domain_sampler(0.5, 10.0, seed=1), 200).passed
        assert audit_modulus(
            coeffs, linear_modulus(coeffs.growth_constant), pair_sampler(0.5, 10.0, seed=2), 200
        ).passed
        direct_recursion(stripped, sample_noise_path(grid, coeffs.measure, (3, 0)))
        # E[xi^40] = e^800 overflows quietly
        assert coeffs.measure.integrate(lambda xi: xi**40) == math.inf
