"""Numerical counterparts of the inequalities behind well-posedness.

Everything here is a check, not a proof: Monte Carlo estimates carry
standard errors and are compared one-sidedly against theoretical
envelopes with a uniform four-standard-error allowance.

Contents
--------
* ``bihari_integral`` / ``bihari_bound``: the comparison function
  G(v) = int dv / kappa and its inverse, which turn an integral inequality
  y(t) <= y0 + int kappa(y) into the explicit bound G^{-1}(G(y0) + Z).
  With kappa(u) = u this collapses to the Gronwall bound y0 * exp(Z).
  ``bihari_integral`` is defined and exported by ``coefficients``, where
  the Osgood probe uses it too; ``bihari_bound`` here inverts it.
* ``doob_check``: L^p maximal inequality
  E sup |X|^p <= (p/(p-1))^p E |X(T)|^p for ensembles of martingales.
* ``uniform_moment_bound`` / ``moment_check``: the a priori envelope
  C1 = 4 (1 + E|phi(T)|^2) exp(4 C max(T,1)^2) on second moments of
  iterates, inf past exp's range.
* ``picard_gap``: E sup_{s<=t} |x^{k+m} - x^k|^2 against its linear-in-t
  envelope c3 * t with c3 = 12 max(T,1) * scale * kappa(4 C1), on a
  ``grid_noise.NoiseBatch`` such as the one an ``Ensemble`` was solved on.
* ``majorant_recursion``: the deterministic sequence psi_1 = c3 t,
  psi_{j+1} = int_0^t kappa(psi_j), which must decrease monotonically on a
  window where kappa(c3 t) <= c3.
* ``solution_martingales``: the solver's own stochastic integrals at the
  outer time T = t_n, formed from a solved ``Ensemble`` and its own noise
  batch with no new draw: N_i = sum_{j<i} g(T, t_j, x_j) dW_j, and M_i, the
  jumps h(T, tau, x_floor(tau), xi) up to t_i less the compensator the
  solver subtracted.  ``svie verify`` runs ``doob_check`` on these two.  M
  is an exact discrete martingale when the jump kernel does not depend on
  s, which holds for every catalogue model; otherwise it carries the
  scheme's O(dt) drift.
* ``brownian_martingale_ensemble`` / ``compensated_jump_ensemble``:
  synthetic martingale ensembles with deterministic integrands, drawn one
  grid step at a time, for the acceptance criteria and the demos.

The ensemble statistics these checks read, ``mean_stderr`` and the
column-block reductions, are the solver's (``solver.mean_stderr``), so that
simulating an ensemble does not need this module.

Both envelopes take C from ``CoefficientSet.growth_constant`` and raise
ConfigurationError naming the set when it is None; another constant goes
in through ``dataclasses.replace(coeffs, growth_constant=c)``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .coefficients import CoefficientSet, Modulus, _kappa, bihari_integral
from .errors import AnalysisError, ConfigurationError, DomainError, ExplosionError, NumericalError
from .errors import _check_int, _check_real, _check_shape
from .grid_noise import LevyMeasure, NoiseBatch, TimeGrid, _check_batch, _check_jump_mean
from .solver import Ensemble, _compensator, _initial_curve, _iterates
from .solver import _by_columns, _columns, _survivor_moments, mean_stderr
from .solver import picard_iterates  # noqa: F401 -- perfbench/tracer.py wraps analysis.picard_iterates by name

__all__ = [
    "bihari_bound",
    "DoobReport",
    "doob_check",
    "uniform_moment_bound",
    "MomentReport",
    "moment_check",
    "GapReport",
    "picard_gap",
    "MajorantSequence",
    "majorant_recursion",
    "MartingaleEnsemble",
    "solution_martingales",
    "brownian_martingale_ensemble",
    "compensated_jump_ensemble",
]

# --- inverse of the comparison function ------------------------------------


def bihari_bound(y0: float, z_integral: float, modulus: Modulus) -> float:
    """Solve G(v) = G(y0) + z for v, by monotone bisection on the integral.

    y0 = 0 with a divergent modulus returns 0: no initial mass plus the
    Osgood condition pins the solution at zero.  A target beyond the
    reachable range of G raises DomainError.
    """
    y0, z = _check_real("y0", y0, 0.0), _check_real("z_integral", z_integral, 0.0)
    if y0 == 0.0:
        if modulus.osgood_divergent:
            return 0.0
        raise DomainError("y0 = 0 needs a divergent int du/kappa to pin the bound at 0")
    if z == 0.0:
        return y0

    # grow the bracket by factors of 4, accumulating the integral piecewise
    # so every quadrature call spans a well-conditioned interval
    lo, g_lo = y0, 0.0
    hi = max(2.0 * y0, y0 + 1.0)
    g_hi = g_lo + bihari_integral(modulus, hi, lo)
    while g_hi < z:
        nxt = hi * 4.0
        if nxt > 1e300:
            raise DomainError(
                f"target {z!r} exceeds the reachable range of the comparison function "
                f"(G spans about {g_hi!r} by v = {hi!r})"
            )
        lo, g_lo = hi, g_hi
        g_hi = g_lo + bihari_integral(modulus, nxt, lo)
        hi = nxt
    anchor, g_anchor = lo, g_lo
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if g_anchor + bihari_integral(modulus, mid, anchor) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- maximal inequality ---------------------------------------------------


class DoobReport(NamedTuple):
    lhs: float
    rhs: float
    constant: float
    bound: float
    se_lhs: float
    se_rhs: float
    n_paths: int
    passed: bool


def doob_check(sup_sq: np.ndarray, terminal_sq: np.ndarray, p: float = 2.0, slack: float = 0.05) -> DoobReport:
    """Check E sup |X|^p <= (p/(p-1))^p E |X(T)|^p on an ensemble.

    Inputs are per-path running maxima of |X|^2 and terminal |X(T)|^2,
    raised to p/2.  The verdict allows the given relative slack plus four
    combined standard errors.  A bound that overflows bounds nothing, so it
    fails the check.
    """
    sup_sq = np.asarray(sup_sq, dtype=np.float64)
    terminal_sq = np.asarray(terminal_sq, dtype=np.float64)
    if sup_sq.shape != terminal_sq.shape or sup_sq.ndim != 1 or len(sup_sq) == 0:
        raise ConfigurationError("sup and terminal arrays must be 1-d, non-empty and aligned")
    p = _check_real("p", p, 1.0, strict=True)  # the maximal inequality needs p > 1
    slack = _check_real("slack", slack, 0.0)  # an infinite slack would pass any ensemble
    if not np.all(np.isfinite(sup_sq)) or not np.all(np.isfinite(terminal_sq)):
        raise AnalysisError("ensemble contains non-finite values")
    if np.any(sup_sq + 1e-12 < terminal_sq):
        raise AnalysisError("running maxima fall below terminal values; ensemble is inconsistent")
    with np.errstate(over="ignore"):  # a power past the largest double is an inf mean, which fails
        lhs, se_lhs = map(float, mean_stderr(np.power(sup_sq, 0.5 * p)))
        rhs, se_rhs = map(float, mean_stderr(np.power(terminal_sq, 0.5 * p)))
    constant = (p / (p - 1.0)) ** p
    bound = constant * rhs * (1.0 + slack) + 4.0 * math.hypot(se_lhs, constant * se_rhs)
    return DoobReport(
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        bound=bound,
        se_lhs=se_lhs,
        se_rhs=se_rhs,
        n_paths=len(sup_sq),
        passed=bool(lhs <= bound < math.inf),
    )


# --- second-moment envelope ------------------------------------------------


def uniform_moment_bound(growth_c: float, horizon: float, initial_sq_mean: float) -> float:
    """Envelope 4 (1 + E|phi(T)|^2) exp(4 C max(T, 1)^2); inf past exp's range, without a warning."""
    growth_c = _check_real("growth constant", growth_c, 0.0)
    horizon = _check_real("horizon", horizon, 0.0, strict=True)
    initial_sq_mean = _check_real("initial_sq_mean", initial_sq_mean, 0.0)
    t_tilde = max(horizon, 1.0)
    exponent = 4.0 * growth_c * t_tilde * t_tilde
    if exponent > 709.0:
        return math.inf
    return 4.0 * (1.0 + initial_sq_mean) * math.exp(exponent)


def _moment_envelope(coeffs: CoefficientSet, horizon: float) -> float:
    """C1 = uniform_moment_bound(C, T, phi(T)^2) with C the set's ``growth_constant``."""
    if coeffs.growth_constant is None:
        raise ConfigurationError(
            f"coefficient set {coeffs.name!r} has no growth_constant; "
            "give it one with dataclasses.replace(coeffs, growth_constant=C)"
        )
    phi_terminal = float(_check_shape("initial", coeffs.initial(horizon), ()))
    return uniform_moment_bound(coeffs.growth_constant, horizon, phi_terminal * phi_terminal)


class MomentReport(NamedTuple):
    times: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    bound: float
    passes: np.ndarray
    survivors: int
    exploded: int

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passes))


def moment_check(ensemble: Ensemble, coeffs: CoefficientSet) -> MomentReport:
    """Estimate E|x(t_i)|^2 per grid time and test it against the envelope.

    The bound is the envelope of ``coeffs.growth_constant``.  A time passes
    when estimate - 4 stderr <= bound; the envelope is one-sided, so only
    excesses beyond statistical noise count against it.
    """
    bound = _moment_envelope(coeffs, ensemble.grid.horizon)
    exploded = int(ensemble.exploded.sum())
    if exploded == ensemble.n_paths:
        raise AnalysisError("every path exploded; no surviving paths to estimate moments")
    _, estimates, stderrs = _survivor_moments(ensemble.values, ensemble.exploded)  # an inf estimate fails
    passes = estimates - 4.0 * stderrs <= bound
    return MomentReport(
        times=ensemble.grid.points,
        estimates=estimates,
        stderrs=stderrs,
        bound=bound,
        passes=passes,
        survivors=ensemble.n_paths - exploded,
        exploded=exploded,
    )


# --- gap between iterates ---------------------------------------------------


class GapReport(NamedTuple):
    times: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    envelope_slope: float
    passes: np.ndarray
    k: int
    m: int
    n_paths: int

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passes))


def gap_envelope_slope(coeffs: CoefficientSet, modulus: Modulus, horizon: float) -> float:
    """c3 = 12 max(T,1) * scale * kappa(4 C1), C1 the moment envelope of ``coeffs.growth_constant``."""
    c1 = _moment_envelope(coeffs, horizon)
    with np.errstate(over="ignore"):  # a kappa past the largest double is an inf slope
        kap = float(_kappa(modulus, 4.0 * c1)) if math.isfinite(c1) else math.inf
    return 12.0 * max(horizon, 1.0) * modulus.scale * kap


def picard_gap(coeffs: CoefficientSet, noise: NoiseBatch, k: int, m: int, modulus: Modulus) -> GapReport:
    """Monte Carlo curve t -> E sup_{s<=t} |x^{k+m}(s) - x^k(s)|^2 on the paths of a ``NoiseBatch``.

    ``noise`` may be ``Ensemble.noise``, so moments and gap read one draw,
    or a batch that ``NoiseBatch.of`` builds from rows of increments and
    jump trains.  Each time passes when the estimate stays below c3 * t
    within four standard errors, c3 = ``gap_envelope_slope(coeffs, modulus,
    T)``.  m = 0 compares an iterate with itself and is zero.  All paths
    iterate together, one batched sweep per iterate.  A ``noise`` that is
    not a ``NoiseBatch`` laid out as ``NoiseBatch.of`` lays one out, with
    finite increments and marks, raises ConfigurationError naming the
    field.  The first path in batch order that exploded in any of sweeps
    1..k+m, or whose squared gap is not finite, fails the curve: the first
    raises ExplosionError with the grid index of its earliest explosion,
    the second NumericalError naming the iterates and its first such grid
    time.
    """
    k, m = _check_int("k", k, 1), _check_int("m", m, 0)
    _check_batch(noise)
    grid = noise.grid
    c3 = gap_envelope_slope(coeffs, modulus, grid.horizon)
    n_paths = len(noise.brownian)
    if m == 0:
        zero = np.zeros(grid.steps + 1)
        return GapReport(grid.points, zero, zero.copy(), c3, np.ones(grid.steps + 1, dtype=bool), k, m, n_paths)
    # x^{k+m}, the last iterate taken, which _iterates reads no more, becomes the squared gap and its running max
    (lower, _), (sups, explosion) = itertools.islice(_iterates(coeffs, noise), k, k + m + 1, m)
    with np.errstate(over="ignore"):  # finite iterates can still be too far apart to square
        np.multiply(np.subtract(sups, lower, out=sups), sups, out=sups)
    del lower
    # a running max turns non-finite at a row's first non-finite square and stays so
    np.maximum.accumulate(sups, axis=1, out=sups)
    failed = (explosion >= 0) | ~np.isfinite(sups[:, -1])
    if failed.any():
        path = np.argmax(failed)
        if explosion[path] >= 0:
            raise ExplosionError(explosion[path])
        t_bad = float(grid.points[np.argmax(~np.isfinite(sups[path]))])
        raise NumericalError(f"squared gap between Picard iterates {k} and {k + m} overflows at t = {t_bad}")
    estimates, stderrs = _by_columns(mean_stderr, sups)
    # the envelope is 0 at t = 0 even when c3 overflows: inf * 0 is never formed
    envelope = np.multiply(c3, grid.points, out=np.zeros_like(grid.points), where=grid.points > 0.0)
    passes = estimates - 4.0 * stderrs <= envelope
    return GapReport(grid.points, estimates, stderrs, c3, passes, k, m, n_paths)


# --- deterministic majorant sequence ----------------------------------------


class MajorantSequence(NamedTuple):
    """Curves psi_1 = c3 t and psi_{j+1}(t) = int_0^t kappa(psi_j(s)) ds."""

    c3: float
    window: float
    times: np.ndarray
    curves: np.ndarray

    @property
    def final_value(self) -> float:
        return float(self.curves[-1, -1])


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting from 0 at x[0]."""
    return np.concatenate([[0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)])


def majorant_recursion(
    c3: float,
    modulus: Modulus,
    window: float,
    steps: int = 256,
    iterations: int = 30,
) -> MajorantSequence:
    """Iterate the concave majorant and verify it decreases monotonically.

    Preconditions: kappa(c3 * t) <= c3 on [0, window], checked on the grid;
    the first grid time violating it is named.  Integration is cumulative
    trapezoidal on the uniform grid.
    """
    c3, window = _check_real("c3", c3, 0.0), _check_real("window", window, 0.0, strict=True)
    steps, iterations = _check_int("steps", steps, 1), _check_int("iterations", iterations, 1)
    times = (window / steps) * np.arange(steps + 1, dtype=np.float64)
    # an overflowing kappa comes out as inf, which the precondition and
    # chain checks below reject on their own terms
    with np.errstate(over="ignore"):
        first_curve = c3 * times
        kap_first = _kappa(modulus, first_curve)
        tol = 1e-12 * max(c3, 1.0)
        bad = np.nonzero(kap_first > c3 + tol)[0]
        if bad.size:
            raise ConfigurationError(
                f"kappa(c3 t) = {float(kap_first[bad[0]])!r} exceeds c3 = {c3!r} at t = {float(times[bad[0]])!r}; "
                "shrink the window"
            )
        curves = np.empty((iterations, steps + 1), dtype=np.float64)
        curves[0] = first_curve
        for j in range(1, iterations):
            kap = _kappa(modulus, curves[j - 1])
            curves[j] = _cumulative_trapezoid(kap, times)
            allow = 1e-12 + 1e-9 * np.abs(curves[j - 1])  # rounding room, scales with magnitude
            if np.any(curves[j] < -1e-12) or np.any(curves[j] > curves[j - 1] + allow):
                raise AnalysisError(f"majorant chain broke at iteration {j + 1}: psi_{j + 1} > psi_{j} somewhere")
    return MajorantSequence(c3=c3, window=window, times=times, curves=curves)


# --- martingale ensembles ----------------------------------------------------


class MartingaleEnsemble(NamedTuple):
    """Per-path running max of |X|^2, terminal |X(T)|^2 and terminal X(T)."""

    sup_sq: np.ndarray
    terminal_sq: np.ndarray
    terminal: np.ndarray


def _reduced(paths: int, increments: Iterable[np.ndarray]) -> MartingaleEnsemble:
    """The ensemble of X_0 = 0, X_i = X_{i-1} + dX_i from its increments, (paths, c) blocks in grid order.

    Each block, which this overwrites, takes the running value into its first
    column and is summed along its rows.  The running value starts at -0.0,
    which leaves every x as it is, so X is bitwise the row ``cumsum`` of all
    increments at once.  Sums run under the caller's numpy error state;
    squares past the largest double are inf without a warning.
    """
    terminal, sup_abs = np.full(paths, -0.0), np.zeros(paths)
    for block in increments:
        block[:, 0] += terminal
        np.cumsum(block, axis=1, out=block)
        terminal = block[:, -1].copy()
        np.maximum(sup_abs, np.max(np.abs(block, out=block), axis=1), out=sup_abs)
    with np.errstate(over="ignore"):
        return MartingaleEnsemble(sup_sq=sup_abs * sup_abs, terminal_sq=terminal * terminal, terminal=terminal)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is doob_check's to reject, not numpy's to warn
def solution_martingales(coeffs: CoefficientSet, ensemble: Ensemble) -> tuple[MartingaleEnsemble, MartingaleEnsemble]:
    """The solver's own stochastic integrals (N, M) at the outer time T = t_n, on ``ensemble``'s surviving rows.

    With x the solved states and the ensemble's own ``NoiseBatch``,
    N_i = sum_{j<i} g(T, t_j, x_j) dW_j, and M_i is the sum of
    h(T, tau, x_floor(tau), xi) over the jumps up to t_i minus
    sum_{j<i} comp(T, t_j, x_j) dt.  Each jump lands at the first grid index
    at or after tau and reads the state one index earlier, as the sweep does,
    and comp is the compensator the sweep subtracts (``solver._compensator``).
    N is an exact discrete martingale in i.  So is M when h does not depend
    on s and the compensator is a closed form, as in every catalogue model;
    otherwise M carries the scheme's O(dt) drift, or a fitted compensator's
    certified quadrature error.  N calls the diffusion kernel a ``_columns``
    block of the (paths, n) states at a time, M the compensator once on all
    of them and the jump kernel once on the jump list, and ``_reduced`` sums
    each block of increments; nothing is drawn.  Without a closed form the
    compensator integrates one row of states per mark integral, for a
    separable jump kernel once per term, and each row is certified alone.
    Every step is elementwise per path or a running sum along a row, so a
    row does not depend on the batch.  A model without jumps has M = 0.
    Exploded rows are dropped, as ``moment_check`` drops them; if every row
    exploded this raises AnalysisError.  Values that overflow, in the
    integrals or their squares, stay inf or nan without a numpy warning, for
    ``doob_check`` to reject.
    """
    grid, brownian, jtimes, jmarks, jpath, jcells = ensemble.noise
    keep = ~ensemble.exploded
    paths = int(keep.sum())
    if paths == 0:
        raise AnalysisError("every path exploded; no surviving paths to form the solution martingales")
    pts, n = grid.points, grid.steps
    kept = slice(None) if paths == len(keep) else keep  # views when every row survived
    horizon, times, x = pts[-1], pts[:-1], ensemble.values[kept, :-1]

    # one block's diffusion is freed before the next block's call, and before the compensator's
    diffusion = (
        _check_shape("diffusion", coeffs.diffusion(horizon, times[c], x[:, c]), x[:, c].shape) * brownian[kept, c]
        for c in _columns(n)
    )
    brownian_part = _reduced(paths, diffusion)
    comp = _compensator(coeffs, grid, _initial_curve(coeffs, grid))
    if comp is None:
        return brownian_part, _reduced(paths, [np.zeros((paths, 1))])  # one zero increment: X(T) = +0.0
    # whole rows: a fitted compensator integrates, and certifies, each row alone
    increments = np.multiply(_check_shape("compensator", comp(horizon, times, x), x.shape), -grid.dt)
    live = keep[jpath]
    if live.any():
        # column j holds the jumps in (t_j, t_{j+1}]; they read x_j
        columns = np.repeat(np.arange(n), np.diff(jcells))[live]
        rows = (np.cumsum(keep) - 1)[jpath[live]]
        jumps = coeffs.jump(horizon, jtimes[live], x[rows, columns], jmarks[live])
        # unbuffered and in list order: each row adds its own jumps in time order
        np.add.at(increments, (rows, columns), _check_shape("jump", jumps, rows.shape))
    return brownian_part, _reduced(paths, [increments])


def brownian_martingale_ensemble(
    grid: TimeGrid,
    integrand: Callable,
    n_paths: int,
    seed: int,
) -> MartingaleEnsemble:
    """X(t_i) = sum_{j<i} sigma(t_j) dW_j for a deterministic sigma, in O(n_paths) memory.

    One ``np.random.default_rng(seed)`` draws the n_paths normals of dW_0, then
    those of dW_1, and so on, so a path depends on ``n_paths`` as well as on
    ``seed``.  Values changed when the draws stopped coming per 1 024-path block.
    """
    n_paths, seed = _check_int("n_paths", n_paths, 1), _check_int("seed", seed, 0)
    sigma = _check_shape("integrand", integrand(grid.points[:-1]), (grid.steps,))
    scale, rng = math.sqrt(grid.dt), np.random.default_rng(seed)
    # (z * scale) * sigma: not z * (scale * sigma), which rounds differently
    return _reduced(n_paths, (rng.standard_normal((n_paths, 1)) * scale * s for s in sigma))


def compensated_jump_ensemble(
    grid: TimeGrid,
    measure: LevyMeasure,
    integrand: Callable,
    n_paths: int,
    seed: int,
) -> MartingaleEnsemble:
    """X(t_i) = sum_{tau<=t_i} u(tau, xi) - int_0^{t_i} (int u(s, .) dnu) ds.

    ``integrand`` u(s, xi) must be deterministic and broadcast over arrays.
    The compensator rate int u(s, .) dnu comes from one ``measure.integrate``
    call over all grid times, which get a leading axis and the marks a
    trailing one; an integrand whose last axis does not run over the marks
    raises ConfigurationError there, and so, before it, does a mean jump
    count, total_mass * T, that numpy cannot draw.  The running max is
    evaluated at grid times.  Step by step, one ``np.random.default_rng(seed)``
    draws a Poisson(total_mass * dt) count per path, then that many times
    uniform on (t_j, t_{j+1}] and marks; a path's increment is its jumps in
    draw order less the step's trapezoid of the rate.  So a path depends on
    ``n_paths`` as well as on ``seed``, and memory is O(n_paths) beside the
    rate quadrature.  Values changed when the draws stopped coming per
    1 024-path block.
    """
    n_paths, seed = _check_int("n_paths", n_paths, 1), _check_int("seed", seed, 0)
    if measure.total_mass == 0.0:
        return _reduced(n_paths, [np.zeros((n_paths, 1))])  # one zero increment: X(T) = +0.0
    _check_jump_mean(measure, grid.horizon)
    pts, dt, rng, rows = grid.points, grid.dt, np.random.default_rng(seed), np.arange(n_paths)
    rate = _check_shape("integrand", measure.integrate(lambda xi: integrand(pts[:, np.newaxis], xi)), pts.shape)

    def steps() -> Iterator[np.ndarray]:
        # the trapezoids are the terms that _cumulative_trapezoid(rate, pts) sums
        for t, trapezoid in zip(pts, np.diff(pts) * (rate[1:] + rate[:-1]) / 2.0):
            counts = rng.poisson(measure.total_mass * dt, n_paths)
            times = t + dt * (1.0 - rng.random(counts.sum()))
            jumps = _check_shape("integrand", integrand(times, measure.sample_marks(rng, len(times))), times.shape)
            # bincount gives int zeros when the step has no jump
            sums = np.bincount(np.repeat(rows, counts), weights=jumps, minlength=n_paths)
            yield (sums - trapezoid)[:, np.newaxis]

    return _reduced(n_paths, steps())
