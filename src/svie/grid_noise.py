"""Uniform time grids and the random inputs of a jump-diffusion Volterra model.

A simulation consumes three sources of randomness per path: Brownian
increments on a uniform grid, a finite-activity jump train (Poisson count,
uniform times, i.i.d. marks), and nothing else.  Every draw is derived from
a ``(master_seed, path_index)`` lineage through a counter-based bit
generator, so any path drawn in any order or batch is identical; a batch
is one ``NoiseBatch``, the one noise layout that every solver reads.

Integrals against the mark density run on ``_gauss_kronrod``, a globally
adaptive vector-valued 21-point Gauss-Kronrod rule of our own, so the
package needs numpy only.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError, _check_int, _check_real, _check_shape

if TYPE_CHECKING:
    from .coefficients import CoefficientSet

__all__ = [
    "TimeGrid",
    "LevyMeasure",
    "NoisePath",
    "NoiseBatch",
    "build_grid",
    "sample_brownian",
    "sample_jumps",
    "sample_noise_path",
    "sample_noise_ensemble",
    "compensator_integral",
]

_MASK32 = 0xFFFFFFFF
_ROLE_BROWNIAN = 0
_ROLE_JUMPS = 1

# Quadrature constants for integrals against the mark density: probe grid
# resolution and magnitude range, relative floor below the probed peak at
# which the core bracket is cut, the subdivisions allowed per quadrature call
# beyond its initial panels, the safety factor on the reported error, and the
# certified relative error of every mark integral.
_PROBE_COUNT = 161
_PROBE_MIN = 1e-150
_PROBE_MAX = 1e150
_QUAD_SPLITS = 200
_CORE_FLOOR = 1e-18
_ERR_SAFETY = 10.0
MARK_INTEGRAL_REL_TOL = 1e-8

# QUADPACK's qk21 rule on [-1, 1]: the Kronrod nodes from 1 down to 0, their
# weights, and the 10-point Gauss weights on the odd-numbered nodes.
_KRONROD_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_W = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# all 21 nodes in ascending order, and one (2, 21) weight matrix whose rows
# give the Kronrod and the Gauss estimate in one product per panel
_GK_NODES = np.concatenate([np.negative(_KRONROD_X), _KRONROD_X[-2::-1]])
_GK_WEIGHTS = np.array([_KRONROD_W + _KRONROD_W[-2::-1], np.zeros(21)])
_GK_WEIGHTS[1, 1::2] = _GAUSS_W + _GAUSS_W[::-1]


def _check_lineage(lineage: tuple[int, int]) -> tuple[int, int]:
    try:
        seed, idx = lineage
    except (TypeError, ValueError):
        raise ConfigurationError(f"seed lineage must be a (master_seed, path_index) pair, got {lineage!r}")
    seed, idx = _check_int("master_seed", seed, 0), _check_int("path_index", idx, 0)
    if seed >= 2**64:
        raise ConfigurationError(f"master_seed must lie in [0, 2^64), got {seed}")
    if idx >= 2**32:
        raise ConfigurationError(f"path_index must lie in [0, 2^32), got {idx}")
    return seed, idx


def _generator(lineage: tuple[int, int], role: int) -> np.random.Generator:
    """Counter-style stream: the Philox key is (master_seed, path_index | role).

    Distinct keys give statistically independent streams, so per-path
    generators never depend on sampling order or thread scheduling.
    """
    seed, idx = _check_lineage(lineage)
    # a uint64 array, not a list: numpy casts list entries >= 2^63 through float64
    key = np.array([seed, ((idx & _MASK32) << 32) | (role & _MASK32)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_n = horizon.

    ``dt`` is computed once as ``horizon / steps`` and reused everywhere;
    grid points are ``i * dt`` so spacing never drifts with re-derivation.
    """

    horizon: float
    steps: int
    dt: float = field(init=False)
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        horizon = _check_real("horizon", self.horizon, 0.0, strict=True)
        steps = _check_int("steps", self.steps, 1)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "dt", horizon / steps)
        pts = self.dt * np.arange(steps + 1, dtype=np.float64)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Build the uniform grid used by every solver and analysis routine."""
    return TimeGrid(horizon, steps)


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity jump measure ``total_mass * mark_density(xi) dxi``.

    Parameters
    ----------
    total_mass : float
        Expected number of jumps per unit time; must be finite and >= 0.
    mark_density : callable or None
        Probability density of a single mark on ``support``.  It takes a
        1-D array of marks and returns one density value per mark (a
        scalar broadcasts).  Required whenever ``total_mass > 0``; it must
        integrate to one within 1e-6.
    mark_sampler : callable or None
        ``sampler(rng, size) -> ndarray`` drawing marks exactly in
        distribution.  Required for simulation when ``total_mass > 0``.
    support : (float, float)
        Interval carrying the marks; the origin is never included.
    """

    total_mass: float
    mark_density: Callable[[np.ndarray], np.ndarray] | None = None
    mark_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    support: tuple[float, float] = (0.0, math.inf)

    def __post_init__(self):
        mass = _check_real("total_mass", self.total_mass, 0.0)
        object.__setattr__(self, "total_mass", mass)
        lo, hi = self.support
        if not lo < hi:
            raise ConfigurationError(f"support must be an interval (lo, hi) with lo < hi, got {self.support!r}")
        if mass > 0.0:
            if self.mark_density is None:
                raise ConfigurationError("a positive-mass measure needs a mark_density")
            try:
                norm = self.integrate(lambda xi: 1.0) / mass
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"mark_density must map a 1-D array of marks to one value per mark: {exc}")
            if not abs(norm - 1.0) <= 1e-6:  # a nan norm fails too
                raise ConfigurationError(f"mark_density integrates to {norm!r}, expected 1 within 1e-6")

    @classmethod
    def empty(cls) -> "LevyMeasure":
        """Measure with no jumps at all."""
        return cls(total_mass=0.0)

    @classmethod
    def lognormal(cls, rate: float, mu: float = 0.0, sigma: float = 1.0) -> "LevyMeasure":
        """Jump rate ``rate`` with log-normal marks exp(mu + sigma * Z).

        Sampling exponentiates a standard normal draw, which is exact in
        distribution; the density is only used by quadrature checks.
        """
        rate = _check_real("rate", rate, 0.0)
        mu, sigma = _check_real("mu", mu), _check_real("sigma", sigma, 0.0, strict=True)
        norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

        def density(xi: np.ndarray) -> np.ndarray:
            safe = np.where(xi > 0.0, xi, 1.0)
            z = (np.log(safe) - mu) / sigma
            return np.where(xi > 0.0, norm * np.exp(-0.5 * z * z) / safe, 0.0)

        def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
            return np.exp(mu + sigma * rng.standard_normal(size))

        return cls(total_mass=rate, mark_density=density, mark_sampler=sampler, support=(0.0, math.inf))

    def sample_marks(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size == 0:
            return np.empty(0, dtype=np.float64)
        if self.mark_sampler is None:
            raise ConfigurationError("this measure has no mark_sampler; cannot draw marks")
        marks = np.asarray(self.mark_sampler(rng, size), dtype=np.float64)
        if marks.shape != (size,):
            raise ConfigurationError(f"mark_sampler returned shape {marks.shape}, expected ({size},)")
        return marks

    def integrate(self, fn: Callable[[np.ndarray], float | np.ndarray]) -> float | np.ndarray:
        """Integrate ``fn`` against the measure: total_mass * int fn * density.

        ``fn(xi)`` takes a 1-D array of marks and returns values whose last
        axis runs over them (a scalar or a last axis of length one
        broadcasts); values of any other shape raise ConfigurationError
        naming it.  The result has the shape of the other axes, each
        element integrated with its own certified relative error
        MARK_INTEGRAL_REL_TOL in one adaptive pass.  One
        call of fn probes a log-spaced grid; adaptive quadrature, one call
        per Gauss-Kronrod panel, then runs on the bracket carrying mass,
        with the residual tails added separately.  Probing guards against
        integrands (heavy mark powers) whose mass sits far from the bulk of
        the density.  An element that is zero on every probe integrates to
        0; one that is not finite on some probe is reported as inf, -inf or
        nan without being integrated.  Raises NumericalError when an
        element's certified error exceeds its target, or when the adaptive
        pass meets a non-finite value that no probe saw.  A measure without
        mass returns 0.0.  Probes sit about 1.9 decades apart: a peak of fn
        narrower than that can fall between two and integrate to 0 silently.
        """
        if self.total_mass == 0.0:
            return 0.0
        lo, hi = float(self.support[0]), float(self.support[1])

        def weighted(xi: np.ndarray) -> np.ndarray:
            density = np.broadcast_to(self.mark_density(xi), xi.shape)
            values = fn(xi)
            if np.shape(values)[-1:] not in ((), (1,), xi.shape):
                raise ConfigurationError(
                    f"integrand gave shape {np.shape(values)}, whose last axis does not run over the {xi.size} marks"
                )
            # where the density is 0 the product is 0 even if fn alone
            # overflows (large mark powers at huge xi)
            return np.where(density == 0.0, 0.0, values * density)

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if lo >= 0.0:
                value, err = _integrate_half_line(weighted, lo, hi)
            elif hi <= 0.0:
                value, err = _integrate_half_line(lambda r: weighted(-r), -hi, -lo)
            else:
                vpos, epos = _integrate_half_line(weighted, 0.0, hi)
                vneg, eneg = _integrate_half_line(lambda r: weighted(-r), 0.0, -lo)
                value, err = vpos + vneg, epos + eneg
            # non-finite elements carry no error; a nan error (the quadrature
            # met a non-finite value between probes) fails the check
            target = np.where(
                np.isfinite(value), _ERR_SAFETY * MARK_INTEGRAL_REL_TOL * np.maximum(np.abs(value), 1e-300), math.inf
            )
        if not np.all(err <= target):
            raise NumericalError(
                f"mark integral did not converge: estimate {value!r}, error {err!r}, "
                f"relative target {MARK_INTEGRAL_REL_TOL!r}"
            )
        value = self.total_mass * value
        return float(value) if value.ndim == 0 else value


def _integrate_half_line(w: Callable, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature of w over [lo, hi] with 0 <= lo < hi (hi may be inf).

    Returns each element's value and certified error, shaped like w's
    values without their last (point) axis.  The quadrature runs in
    u = log(xi) on w(e^u) e^u, where a log-normal bump is a Gaussian that
    few Gauss-Kronrod nodes resolve.  Every element is divided by its own
    probe-grid estimate of its integral of |w|, so the max-norm tolerance
    of one vector quadrature is a relative tolerance for each element.
    """
    plo = max(lo, min(_PROBE_MIN, 0.5 * hi))
    phi = min(hi, max(_PROBE_MAX, 2.0 * lo))
    probes = np.geomspace(plo, phi, _PROBE_COUNT)
    vals = w(probes) * probes  # the integrand in u = log(xi)
    shape, vals = vals.shape[:-1], vals.reshape(-1, _PROBE_COUNT)  # (element, probe)
    finite = np.isfinite(vals).all(axis=1)
    # a non-finite element is not integrated: inf, -inf or nan as its probes sum
    value = np.where(finite, 0.0, vals.sum(axis=1))
    err = np.zeros_like(value)
    mags = np.abs(vals)
    peak = mags.max(axis=1)
    live = finite & (peak > 0.0)
    if live.any():
        mags, peak = mags[live], peak[live]
        logs = np.log(probes)
        # the core is the union of every element's bracket of probe segments
        # above _CORE_FLOOR times its own peak, widened by one segment
        cols = np.flatnonzero((mags >= _CORE_FLOOR * peak[:, np.newaxis]).any(axis=0))
        edges = logs[max(cols[0] - 1, 0) : min(cols[-1] + 1, len(logs) - 1) + 1].tolist()
        scale = (np.diff(logs) * (mags[:, 1:] + mags[:, :-1]) / 2.0).sum(axis=1)  # trapezoid rule
        inv = 1.0 / scale[:, np.newaxis]
        index = slice(None) if live.all() else live

        def scaled(u: np.ndarray) -> np.ndarray:
            xi = np.exp(u)
            return (w(xi) * xi).reshape(-1, u.size)[index] * inv

        u_lo = math.log(lo) if lo > 0.0 else -math.inf
        u_hi = math.log(min(hi, sys.float_info.max))
        total = total_err = 0.0
        # piecewise over probe segments: one panel across many decades can
        # put all its nodes where the integrand is flat and miss the bump
        for a, b, points in ((edges[0], edges[-1], edges[1:-1]), (u_lo, edges[0], None), (edges[-1], u_hi, None)):
            if a < b:
                part, part_err = _gauss_kronrod(
                    scaled, a, b, epsabs=MARK_INTEGRAL_REL_TOL, limit=len(edges) + _QUAD_SPLITS, points=points
                )
                total = total + part
                total_err += part_err
        value[live] = total * scale
        err[live] = total_err * scale
    return value.reshape(shape), err.reshape(shape)


def _gk21_panel(f: Callable, a: float, b: float) -> tuple[np.ndarray, float, float]:
    """One 21-point Gauss-Kronrod panel on [a, b], one call of f on all its nodes.

    Returns the Kronrod estimate, QUADPACK's error estimate and the
    round-off floor 50 eps h int |f|, both as max norms over the elements.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    block = f(c + h * _GK_NODES)  # (element..., node)
    weights = _GK_WEIGHTS[0]
    # a non-finite node value makes the floor below inf or nan, which ends the loop
    with np.errstate(invalid="ignore", over="ignore"):
        sums = block @ _GK_WEIGHTS.T
        kronrod, gauss = sums[..., 0], sums[..., 1]
        err = h * float(np.max(np.abs(kronrod - gauss)))
        dabs = h * float(np.max(np.abs(block - 0.5 * kronrod[..., np.newaxis]) @ weights))
        floor = 50.0 * sys.float_info.epsilon * h * float(np.max(np.abs(block) @ weights))
    if dabs != 0.0 and err != 0.0:
        err = dabs * min(1.0, (200.0 * err / dabs) ** 1.5)
    if floor > sys.float_info.min:
        err = max(err, floor)
    return h * kronrod, err, floor


def _gauss_kronrod(
    f: Callable, a: float, b: float, *, epsabs: float = 0.0, epsrel: float = 0.0, limit: int, points=None
) -> tuple[np.ndarray, float]:
    """Globally adaptive 21-point Gauss-Kronrod quadrature of f over [a, b], a < b.

    ``f`` maps a 1-D array of points to an array whose last axis runs over
    them.  The panels start at the sorted interior ``points``; the panel
    with the largest error is bisected first.  Errors are max norms over
    the elements, summed over panels.  Once there are two panels, the loop
    stops when the error is below max(epsabs, epsrel * |value|) / 8 or not
    above the round-off floor summed over every panel evaluated; it also
    stops when either is not finite, and at ``limit`` panels.  An infinite
    end can only be the lower one, a = -inf, without interior points; it
    maps to t in (0, 1] by x = b - (1 - t) / t.  Returns the value and the
    error estimate plus the round-off floor.
    """
    if math.isinf(a):
        end, finite_f = b, f

        def f(t: np.ndarray):
            return finite_f(end - (1.0 - t) / t) / (t * t)

        a, b = 0.0, 1.0
    edges = [a, *(points or ()), b]
    heap = []
    value = error = rounding = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        part, part_err, floor = _gk21_panel(f, lo, hi)
        heap.append((-part_err, lo, hi, part))
        value, error, rounding = value + part, error + part_err, rounding + floor
    heapq.heapify(heap)
    while len(heap) < limit and math.isfinite(error) and math.isfinite(rounding):
        if len(heap) >= 2 and (error <= rounding or error < max(epsabs, epsrel * float(np.max(np.abs(value)))) / 8.0):
            break
        neg_err, lo, hi, part = heapq.heappop(heap)
        value, error = value - part, error + neg_err
        mid = 0.5 * (lo + hi)
        for x1, x2 in ((lo, mid), (mid, hi)):
            part, part_err, floor = _gk21_panel(f, x1, x2)
            heapq.heappush(heap, (-part_err, x1, x2, part))
            value, error, rounding = value + part, error + part_err, rounding + floor
    return value, error + rounding


@dataclass(frozen=True)
class NoisePath:
    """One path's random inputs: Brownian increments plus a jump train.

    ``brownian`` holds the n increments W(t_{i+1}) - W(t_i).  ``jump_times``
    is sorted inside (0, horizon]; ``jump_marks`` aligns with it.  All three
    are finite 1-D arrays.  The pair ``lineage = (master_seed, path_index)``
    fully determines every array.
    """

    grid: TimeGrid
    brownian: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    lineage: tuple[int, int]

    def __post_init__(self):
        for name in ("brownian", "jump_times", "jump_marks"):
            arr = getattr(self, name)
            if arr.ndim != 1:
                raise ConfigurationError(f"{name} must be a 1-D array, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise ConfigurationError(f"{name} must be finite")
        if self.brownian.shape != (self.grid.steps,):
            raise ConfigurationError(
                f"brownian increments have shape {self.brownian.shape}, expected ({self.grid.steps},)"
            )
        if self.jump_times.shape != self.jump_marks.shape:
            raise ConfigurationError("jump_times and jump_marks must align")
        times = self.jump_times
        if times.size and not (times[0] > 0.0 and times[-1] <= self.grid.horizon and (np.diff(times) >= 0.0).all()):
            raise ConfigurationError(f"jump_times must be sorted inside (0, {self.grid.horizon!r}]")


class NoiseBatch(NamedTuple):
    """The noise of a batch of paths on one grid, in the one layout every batched solve reads.

    ``brownian`` holds the (paths, n) increments, row p those of path p.  All
    jumps are in one stable time-sorted list, each with its row in
    ``jump_paths``, so a path meets its own in time order; column j holds
    ``jump_cells[j]:jump_cells[j + 1]``.  ``NoiseBatch.of`` lays out a list of
    ``NoisePath``s once; ``sample_noise_ensemble`` returns one.
    """

    grid: TimeGrid
    brownian: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    jump_paths: np.ndarray
    jump_cells: np.ndarray

    @classmethod
    def of(cls, noises: Sequence[NoisePath]) -> "NoiseBatch":
        """Lay out non-empty ``noises`` on one grid, path p in row p."""
        if not noises:
            raise ConfigurationError("need at least one noise path")
        grid = noises[0].grid
        if any(noise.grid != grid for noise in noises):
            raise ConfigurationError("all noise paths must share one grid")
        times = np.concatenate([noise.jump_times for noise in noises])
        order = np.argsort(times, kind="stable")
        times = times[order]
        marks = np.concatenate([noise.jump_marks for noise in noises])[order]
        paths = np.repeat(np.arange(len(noises)), [noise.jump_times.size for noise in noises])[order]
        cells = np.searchsorted(times, grid.points, side="right")
        return cls(grid, np.stack([noise.brownian for noise in noises]), times, marks, paths, cells)


def sample_brownian(grid: TimeGrid, lineage: tuple[int, int]) -> np.ndarray:
    """Draw the n Brownian increments, each N(0, dt), for one lineage."""
    rng = _generator(lineage, _ROLE_BROWNIAN)
    return math.sqrt(grid.dt) * rng.standard_normal(grid.steps)


def sample_jumps(grid: TimeGrid, measure: LevyMeasure, lineage: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Draw one path's jump train.

    The count is Poisson(total_mass * horizon); given the count, times are
    i.i.d. uniform on (0, horizon] and returned sorted, with marks drawn
    i.i.d. from the mark law.
    """
    rng = _generator(lineage, _ROLE_JUMPS)
    if measure.total_mass == 0.0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    count = int(rng.poisson(measure.total_mass * grid.horizon))
    times = grid.horizon * (1.0 - rng.random(count))
    order = np.argsort(times, kind="stable")
    times = times[order]
    marks = measure.sample_marks(rng, count)[order]
    return times, marks


def sample_noise_path(grid: TimeGrid, measure: LevyMeasure, lineage: tuple[int, int]) -> NoisePath:
    """Assemble a full NoisePath; Brownian and jump draws use disjoint streams."""
    times, marks = sample_jumps(grid, measure, lineage)
    return NoisePath(grid, sample_brownian(grid, lineage), times, marks, lineage=_check_lineage(lineage))


def sample_noise_ensemble(grid: TimeGrid, measure: LevyMeasure, n_paths: int, master_seed: int) -> NoiseBatch:
    """Lineages (master_seed, 0..n_paths-1), checked once, as one batch; row i is ``sample_noise_path``'s."""
    n_paths = _check_int("n_paths", n_paths, 1)
    master_seed, _ = _check_lineage((master_seed, n_paths - 1))
    return NoiseBatch.of([sample_noise_path(grid, measure, (master_seed, i)) for i in range(n_paths)])


def compensator_integral(coeffs: "CoefficientSet", t, s, x):
    """Mean jump contribution int h(t, s, x, xi) nu(dxi).

    Uses the coefficient set's closed form when present, otherwise one
    vector quadrature against the mark density per slice along the last
    axis (per path and column in the solver: one path's cells in the later
    rows, the marks on a trailing axis), each element with certified
    relative error MARK_INTEGRAL_REL_TOL.  Slices are integrated separately
    so that a path's values never depend on the other paths of a batch.
    ``t``, ``s`` and ``x`` may be arrays; ``s <= t`` is required elementwise.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    s_arr = np.asarray(s, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(s_arr > t_arr):
        raise ConfigurationError("compensator_integral requires s <= t")
    shape = np.broadcast_shapes(t_arr.shape, s_arr.shape, x_arr.shape)
    if coeffs.jump is None:
        out = np.zeros(shape, dtype=np.float64)
    elif coeffs.compensator is not None:
        out = _check_shape("compensator", coeffs.compensator(t, s, x), shape).copy()
    else:
        rows, width = math.prod(shape[:-1]), math.prod(shape[-1:])
        tb, sb, xb = (np.broadcast_to(a, shape).reshape(rows, width, 1) for a in (t_arr, s_arr, x_arr))
        jump, measure = coeffs.jump, coeffs.measure
        out = np.array(
            [
                _check_shape("jump", measure.integrate(lambda xi, tk=tk, sk=sk, xk=xk: jump(tk, sk, xk, xi)), (width,))
                for tk, sk, xk in zip(tb, sb, xb)
            ]
        ).reshape(shape)
    return float(out) if out.ndim == 0 else out
