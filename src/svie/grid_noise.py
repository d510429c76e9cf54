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

import functools
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
    "MarkRule",
    "build_grid",
    "sample_brownian",
    "sample_jumps",
    "sample_noise_path",
    "sample_noise_ensemble",
    "compensator_integral",
]

_MASK32 = 0xFFFFFFFF
# numpy's largest Poisson mean (POISSON_LAM_MAX); a larger one raises a bare ValueError from the draw
_POISSON_MAX = float(2**63 - 1) - math.sqrt(2**63 - 1) * 10.0
_ROLE_BROWNIAN = 0
_ROLE_JUMPS = 1
_FRESH_PHILOX = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

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


def _generator() -> np.random.Generator:
    """A generator for ``_stream`` to reset, seeded from a fixed ``SeedSequence``.

    The first reset overwrites its state, so building it reads no OS entropy.
    The seed is made on first use: importing this module does not import
    numpy.random.
    """
    return np.random.Generator(np.random.Philox(_fixed_seed()))


@functools.cache
def _fixed_seed() -> np.random.SeedSequence:
    return np.random.SeedSequence(0)


def _stream(rng: np.random.Generator, seed: int, idx: int, role: int) -> np.random.Generator:
    """``rng`` reset to a fresh ``Philox(key=(seed, idx << 32 | role))``, at about a tenth of the cost of building one.

    Distinct keys give statistically independent streams, so a path never depends on sampling order or batch.
    """
    key = [seed, ((idx & _MASK32) << 32) | (role & _MASK32)]
    rng.bit_generator.state = {**_FRESH_PHILOX, "state": {"counter": [0, 0, 0, 0], "key": key}}
    return rng


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
        return self._adaptive(self._half_lines(fn))

    def _half_lines(self, fn: Callable) -> list[tuple[float, Callable, float, float]]:
        """fn times the density on each half-line of the support, positive half first.

        Each half-line is ``(sign, w, lo, hi)``: its marks are sign * r for
        r in [lo, hi], 0 <= lo < hi, and w(r) is the weighted integrand at
        those marks, as ``_integrate_half_line`` takes it.  ``w(r, density)``
        takes the density at those marks instead of evaluating it.
        """
        lo, hi = float(self.support[0]), float(self.support[1])

        def weighted(xi: np.ndarray, density: np.ndarray | None = None) -> np.ndarray:
            if density is None:
                density = np.broadcast_to(self.mark_density(xi), xi.shape)
            # where the density is 0 the product is 0 even if fn alone
            # overflows (large mark powers at huge xi); zeroed in place
            vals = _over_marks(fn, xi) * density
            np.copyto(vals, 0.0, where=density == 0.0)
            return vals

        def mirrored(r: np.ndarray, density: np.ndarray | None = None) -> np.ndarray:
            return weighted(-r, density)

        if lo >= 0.0:
            return [(1.0, weighted, lo, hi)]
        if hi <= 0.0:
            return [(-1.0, mirrored, -hi, -lo)]
        return [(1.0, weighted, 0.0, hi), (-1.0, mirrored, 0.0, -lo)]

    def _adaptive(self, halves: list, probed=None) -> float | np.ndarray:
        """The adaptive pass of ``integrate`` on ``_half_lines(fn)``.

        ``probed`` gives each half-line's ``(probes, values)`` when a caller
        has already evaluated them, so the pass does not evaluate them again.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            known = probed or [None] * len(halves)
            values, errs, _ = zip(*(_integrate_half_line(w, a, b, p) for (_, w, a, b), p in zip(halves, known)))
            value, err = sum(values[1:], values[0]), sum(errs[1:], errs[0])
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


def _over_marks(fn: Callable, xi: np.ndarray):
    """fn(xi), whose last axis must run over the marks xi (or broadcast: a scalar or a last axis of one)."""
    values = fn(xi)
    if np.shape(values)[-1:] not in ((), (1,), xi.shape):
        raise ConfigurationError(
            f"integrand gave shape {np.shape(values)}, whose last axis does not run over the {xi.size} marks"
        )
    return values


def _probes(lo: float, hi: float) -> np.ndarray:
    """The 161 log-spaced probes r of ``_integrate_half_line`` on [lo, hi]."""
    return np.geomspace(max(lo, min(_PROBE_MIN, 0.5 * hi)), min(hi, max(_PROBE_MAX, 2.0 * lo)), _PROBE_COUNT)


def _probe(w: Callable, probes: np.ndarray, density: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_integrate_half_line``'s ``probed``: the probes, and w's integrand in u = log(r) on them (on ``density``)."""
    vals = w(probes, density)
    vals *= probes
    return probes, vals


def _integrate_half_line(
    w: Callable, lo: float, hi: float, probed: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, Callable[[], tuple]]:
    """Quadrature of w over [lo, hi] with 0 <= lo < hi (hi may be inf).

    Returns each element's value and certified error, shaped like w's
    values without their last (point) axis, and a function giving the
    pass's leaves.  The quadrature runs in u = log(xi) on w(e^u) e^u, where
    a log-normal bump is a Gaussian that few Gauss-Kronrod nodes resolve.
    Every element is divided by its own probe-grid estimate of its
    integral of |w|, so the max-norm tolerance of one vector quadrature is
    a relative tolerance for each element.  The leaves ``(core, nodes,
    jacobians)`` are the first and last probe index of the core bracket
    ((161, -1) when no element carries mass), and the final panels'
    (panels, 21) nodes xi with the factors that make sum Kronrod weight x
    jacobian x w(node) each panel's estimate of the integral of w.
    ``probed``, the result of ``_probe`` when a caller has it already,
    saves the probe call; the pass overwrites its values.
    """
    probes, vals = _probe(w, _probes(lo, hi)) if probed is None else probed
    shape, vals = vals.shape[:-1], vals.reshape(-1, _PROBE_COUNT)  # (element, probe)
    finite = np.isfinite(vals).all(axis=1)
    # a non-finite element is not integrated: inf, -inf or nan as its probes sum
    value = np.where(finite, 0.0, vals.sum(axis=1))
    err = np.zeros_like(value)
    mags = np.abs(vals, out=vals)  # the values are not read again
    del vals
    peak = mags.max(axis=1)
    live = finite & (peak > 0.0)
    core, rules = (_PROBE_COUNT, -1), []
    if live.any():
        index = slice(None) if live.all() else live
        mags, peak = mags[index], peak[index]  # views when every element is live
        logs = np.log(probes)
        # the core is the union of every element's bracket of probe segments
        # above _CORE_FLOOR times its own peak, widened by one segment
        cols = np.flatnonzero((mags >= _CORE_FLOOR * peak[:, np.newaxis]).any(axis=0))
        core = (int(cols[0]), int(cols[-1]))
        edges = logs[max(cols[0] - 1, 0) : min(cols[-1] + 1, len(logs) - 1) + 1].tolist()
        # trapezoid rule, (d * (right + left)) / 2 summed, in blocks of 64
        # elements so that no second (element, probe) array is made
        steps, scale = np.diff(logs), np.empty(len(mags))
        for rows in range(0, len(mags), 64):
            part = mags[rows : rows + 64]
            block = np.add(part[:, 1:], part[:, :-1])
            block = np.divide(np.multiply(steps, block, out=block), 2.0, out=block)
            block.sum(axis=1, out=scale[rows : rows + len(part)])
        del mags  # the adaptive pass below keeps no probe values
        inv = 1.0 / scale[:, np.newaxis]

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
                part, part_err, rule = _gauss_kronrod(
                    scaled, a, b, epsabs=MARK_INTEGRAL_REL_TOL, limit=len(edges) + _QUAD_SPLITS, points=points
                )
                total = total + part
                total_err += part_err
                rules.append(rule)
        value[live] = total * scale
        err[live] = total_err * scale

    def leaves() -> tuple:
        panels = [rule() for rule in rules]
        u = np.concatenate([np.empty((0, 21))] + [nodes for nodes, _ in panels])
        xi = np.exp(u)  # back from u to xi: the panels integrate w(e^u) e^u
        return core, xi, np.concatenate([np.empty((0, 21))] + [jac for _, jac in panels]) * xi

    return value.reshape(shape), err.reshape(shape), leaves


def _gk21_panel(f: Callable, a: float, b: float) -> tuple[np.ndarray, float, float]:
    """One 21-point Gauss-Kronrod panel on [a, b], one call of f on all its nodes.

    Returns the Kronrod estimate, QUADPACK's error estimate and the
    round-off floor 50 eps h int |f|, both as max norms over the elements.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    block = f(c + h * _GK_NODES)  # (element..., node)
    weights = _GK_WEIGHTS[0]
    # a non-finite node value makes the floor below inf or nan, which ends the loop
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        sums = block @ _GK_WEIGHTS.T
        kronrod, gauss = sums[..., 0], sums[..., 1]
        err, floor = _qk21_error(
            h * np.max(np.abs(kronrod - gauss)),
            h * np.max(np.abs(block - 0.5 * kronrod[..., np.newaxis]) @ weights),
            h * np.max(np.abs(block) @ weights),
        )
    return h * kronrod, float(err), float(floor)


def _qk21_error(err, dabs, resabs) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 error estimate and round-off floor, elementwise.

    From ``err`` = |Kronrod - Gauss| and the Kronrod integrals ``dabs`` of
    |f - mean| and ``resabs`` of |f|: the floor is 50 eps resabs, and the
    estimate dabs min(1, (200 err / dabs)^1.5) where neither err nor dabs
    is 0, raised to the floor where the floor is a normal number.  Takes
    numpy arrays or numpy scalars, under the caller's ``np.errstate``.
    """
    floor = 50.0 * sys.float_info.epsilon * resabs
    # fmin: a nan ratio leaves dabs, not nan
    err = np.where((dabs != 0.0) & (err != 0.0), dabs * np.fmin(1.0, (200.0 * err / dabs) ** 1.5), err)
    return np.where(floor > sys.float_info.min, np.maximum(err, floor), err), floor


def _gauss_kronrod(
    f: Callable, a: float, b: float, *, epsabs: float = 0.0, epsrel: float = 0.0, limit: int, points=None
) -> tuple[np.ndarray, float, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """Globally adaptive 21-point Gauss-Kronrod quadrature of f over [a, b], a < b.

    ``f`` maps a 1-D array of points to an array whose last axis runs over
    them.  The panels start at the sorted interior ``points``; the panel
    with the largest error is bisected first.  Errors are max norms over
    the elements, summed over panels.  Once there are two panels, the loop
    stops when the error is below max(epsabs, epsrel * |value|) / 8 or not
    above the round-off floor summed over every panel evaluated; it also
    stops when either is not finite, and at ``limit`` panels.  An infinite
    end can only be the lower one, a = -inf, without interior points; it
    maps to t in (0, 1] by x = b - (1 - t) / t.  Returns the value, the
    error estimate plus the round-off floor, and a function that gives
    the final panels in ascending order as a fixed rule in x: their
    (panels, 21) nodes and jacobians, the half-width times dx/dt, so that
    each panel's Kronrod estimate is sum Kronrod weight x jacobian x
    f(node).  Only a caller that keeps the rule pays for building it.
    """
    end = None
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
    # the bounds alone: the heap holds every panel's values
    bounds = [(lo, hi) for _, lo, hi, _ in heap]

    def panels() -> tuple[np.ndarray, np.ndarray]:
        # the same node arithmetic as _gk21_panel and the map above, so a
        # rule evaluates f where this pass did
        lo, hi = np.array(sorted(bounds)).T[:, :, np.newaxis]
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes, jacobians = c + h * _GK_NODES, np.broadcast_to(h, (len(bounds), 21))
        if end is not None:
            nodes, jacobians = end - (1.0 - nodes) / nodes, jacobians / (nodes * nodes)
        return nodes, jacobians

    return value, error + rounding, panels


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

    ``brownian`` holds the (paths, n) increments, row p those of path p.  All jumps are in one stable
    time-sorted list, each with its row in ``jump_paths``, so a path meets its own in time order; column
    j holds ``jump_cells[j]:jump_cells[j + 1]``.  ``NoiseBatch.of`` lays out a list of ``NoisePath``s.
    ``sample_noise_ensemble`` draws every lineage with one generator, reset per stream, straight into the
    rows and the jump list, with no ``NoisePath`` per path and no stacked copy.  In a 256 x 500
    ``svie simulate``, which peaks near 41 MB RSS, the batch and the solution hold about 1 MB each and
    the interpreter and numpy 30 MB; paths.csv is written path by path, the moments 32 columns at a time.
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
        trains = [(noise.jump_times, noise.jump_marks) for noise in noises]
        return cls._laid_out(grid, np.stack([noise.brownian for noise in noises]), trains)

    @classmethod
    def _laid_out(cls, grid: TimeGrid, brownian: np.ndarray, trains: list) -> "NoiseBatch":
        """The batch of rows ``brownian`` whose row p has the jumps ``trains[p] = (times, marks)``, in any order."""
        times = np.concatenate([t for t, _ in trains])
        # stable: equal times keep path order, and within a path draw order
        order = np.argsort(times, kind="stable")
        times = times[order]
        marks = np.concatenate([m for _, m in trains])[order]
        paths = np.repeat(np.arange(len(trains)), [t.size for t, _ in trains])[order]
        if not np.isfinite(marks).all():
            raise ConfigurationError("jump_marks must be finite")
        return cls(grid, brownian, times, marks, paths, np.searchsorted(times, grid.points, side="right"))


def _check_batch(batch: NoiseBatch) -> None:
    """Raise ConfigurationError naming the first field of ``batch`` that is not laid out as ``_laid_out`` lays it out.

    ``brownian`` is (paths, n) with a path or more; the jump arrays are 1-D and aligned, times sorted
    inside (0, T], rows in range; ``jump_cells`` is what ``_laid_out`` computes from the times.
    """
    if not isinstance(batch, NoiseBatch):
        raise ConfigurationError(f"noise must be a NoiseBatch (see NoiseBatch.of), got {type(batch).__name__}")
    grid = batch.grid
    brownian, times, marks, paths, cells = map(np.asarray, batch[1:])
    if brownian.ndim != 2 or brownian.shape[1] != grid.steps or len(brownian) == 0:
        raise ConfigurationError(
            f"noise.brownian must have shape (paths, {grid.steps}) with paths >= 1, got {brownian.shape}"
        )
    if times.ndim != 1:
        raise ConfigurationError(f"noise.jump_times must be 1-D, got shape {times.shape}")
    for name, arr in (("jump_marks", marks), ("jump_paths", paths)):
        if arr.shape != times.shape:
            raise ConfigurationError(f"noise.{name} has shape {arr.shape}, expected {times.shape} as jump_times")
    if len(times) and not (times[0] > 0.0 and times[-1] <= grid.horizon and (np.diff(times) >= 0.0).all()):
        raise ConfigurationError(f"noise.jump_times must be sorted inside (0, {grid.horizon!r}]")
    if len(paths) and not (np.issubdtype(paths.dtype, np.integer) and 0 <= paths.min() and paths.max() < len(brownian)):
        raise ConfigurationError(f"noise.jump_paths must be integer rows in [0, {len(brownian)})")
    if not np.array_equal(cells, np.searchsorted(times, grid.points, side="right")):
        raise ConfigurationError(
            f"noise.jump_cells must hold, for each of the {grid.steps + 1} grid points, "
            "the count of jump_times at or before it"
        )


def _check_jump_mean(measure: LevyMeasure, horizon: float) -> None:
    """Raise ConfigurationError if a path's mean jump count, rate times horizon, is a Poisson mean numpy cannot draw."""
    if measure.total_mass * horizon > _POISSON_MAX:
        raise ConfigurationError(
            f"jump rate {measure.total_mass!r} times horizon {horizon!r} is a mean jump count above "
            f"{_POISSON_MAX!r}, the largest Poisson mean numpy draws"
        )


def _draw(rng: np.random.Generator, grid: TimeGrid, measure: LevyMeasure, seed: int, idx: int, row: np.ndarray):
    """Draw lineage (seed, idx): its n N(0, dt) increments into ``row``; return its jump times and marks.

    Each comes from its own stream (``_stream``).  The count is Poisson(total_mass * horizon); given
    the count, times are i.i.d. uniform on (0, horizon], in draw order, and marks i.i.d. from the mark law.
    """
    _stream(rng, seed, idx, _ROLE_BROWNIAN).standard_normal(out=row)
    row *= math.sqrt(grid.dt)
    if measure.total_mass == 0.0:
        return np.empty(0), np.empty(0)
    _stream(rng, seed, idx, _ROLE_JUMPS)
    count = int(rng.poisson(measure.total_mass * grid.horizon))
    times = grid.horizon * (1.0 - rng.random(count))
    return times, measure.sample_marks(rng, count)


def sample_brownian(grid: TimeGrid, lineage: tuple[int, int]) -> np.ndarray:
    """Draw the n Brownian increments, each N(0, dt), for one lineage."""
    return sample_noise_path(grid, LevyMeasure.empty(), lineage).brownian


def sample_jumps(grid: TimeGrid, measure: LevyMeasure, lineage: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Draw one path's jump train: times sorted inside (0, horizon], marks aligned (see ``_draw``)."""
    noise = sample_noise_path(grid, measure, lineage)
    return noise.jump_times, noise.jump_marks


def sample_noise_path(grid: TimeGrid, measure: LevyMeasure, lineage: tuple[int, int]) -> NoisePath:
    """Draw one lineage's NoisePath as ``sample_noise_ensemble`` draws its row; Brownian and jumps use two streams."""
    seed, idx = _check_lineage(lineage)
    _check_jump_mean(measure, grid.horizon)
    brownian = np.empty(grid.steps)
    times, marks = _draw(_generator(), grid, measure, seed, idx, brownian)
    order = np.argsort(times, kind="stable")
    return NoisePath(grid, brownian, times[order], marks[order], lineage=(seed, idx))


def sample_noise_ensemble(grid: TimeGrid, measure: LevyMeasure, n_paths: int, master_seed: int) -> NoiseBatch:
    """Lineages (master_seed, 0..n_paths-1), checked once, as one batch; row i is ``sample_noise_path``'s."""
    n_paths = _check_int("n_paths", n_paths, 1)
    master_seed, _ = _check_lineage((master_seed, n_paths - 1))
    _check_jump_mean(measure, grid.horizon)
    rng = _generator()  # one generator, reset for every stream
    brownian = np.empty((n_paths, grid.steps))
    trains = [_draw(rng, grid, measure, master_seed, idx, row) for idx, row in enumerate(brownian)]
    return NoiseBatch._laid_out(grid, brownian, trains)


class MarkRule(NamedTuple):
    """A fixed rule against a measure: the final panels of one adaptive pass, kept for other integrands.

    ``MarkRule.fit`` runs the pass of ``LevyMeasure.integrate`` on one
    integrand and keeps, per half-line of the support, its probes with the
    mark density at them, which probes lie outside its core bracket, and its
    leaf panels' marks with their weights density x jacobian.  ``integrate``
    applies the rule to another integrand and keeps its values only when
    every element passes the checks of the adaptive pass; otherwise it runs
    that pass.
    """

    measure: LevyMeasure
    probes: np.ndarray  # (half-lines, 161) probes r, the marks being sign * r
    density: np.ndarray  # (half-lines, 161) the mark density there
    outside: np.ndarray  # (half-lines, 161) True at the probes outside the core bracket
    nodes: np.ndarray  # (panels, 21) marks
    weights: np.ndarray

    @classmethod
    def fit(cls, measure: LevyMeasure, fn: Callable[[np.ndarray], np.ndarray]) -> "MarkRule":
        """Keep the panels that one adaptive pass of ``fn`` against ``measure`` ends with.

        The pass is not certified: each integrand the rule is applied to
        is.  A measure without mass, whose integrals are all 0, has no rule.
        """
        if measure.total_mass == 0.0:
            raise ConfigurationError("a measure without mass has no mark rule; its integrals are all 0")
        halves = measure._half_lines(fn)
        probes = [_probes(a, b) for _, _, a, b in halves]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # (core, nodes, jacobians) per half-line
            leaves = [_integrate_half_line(w, a, b)[2]() for _, w, a, b in halves]
            nodes = np.concatenate([sign * nodes for (sign, _, _, _), (_, nodes, _) in zip(halves, leaves)])
            flat = nodes.ravel()
            density = np.broadcast_to(measure.mark_density(flat), flat.shape).reshape(nodes.shape)
            jacobians = np.concatenate([jacobians for _, _, jacobians in leaves])
            # 0 where the density is, even where the jacobian overflows
            weights = np.where(density == 0.0, 0.0, density * jacobians)
        # the probes' density as the adaptive pass evaluates it, one half-line at a time
        marks = [-r if sign < 0.0 else r for (sign, _, _, _), r in zip(halves, probes)]
        index = np.arange(_PROBE_COUNT)
        return cls(
            measure,
            np.stack(probes),
            np.stack([np.broadcast_to(measure.mark_density(xi), xi.shape) for xi in marks]),
            np.stack([(index < first) | (last < index) for (first, last), _, _ in leaves]),
            nodes,
            weights,
        )

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray | float:
        """``measure.integrate(fn)``: on the rule's panels when every element is certified, else adaptively.

        An element is certified when every probe value is finite; when it is
        zero on every probe, its value must be exactly 0; otherwise, on each
        half-line where it is not zero on every probe, its core bracket (the
        probes at or above 1e-18 times its peak there) must lie inside the
        rule's, and its error must be at most MARK_INTEGRAL_REL_TOL times
        |value|.  The error is QUADPACK's per-panel estimate of the
        element, summed over the panels, plus the round-off floor.  Only
        elementwise products and last-axis sums run over the elements, so
        no element's value depends on the others.  The probe values are
        those of the adaptive pass, on the rule's density at the probes,
        and the pass takes them over when some element is not certified
        instead of evaluating them again.
        """
        halves = self.measure._half_lines(fn)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            probed = [_probe(w, r, d) for (_, w, _, _), r, d in zip(halves, self.probes, self.density)]
            value = self._certified(fn, np.stack([vals for _, vals in probed], axis=-2))
        if value is None:
            return self.measure._adaptive(halves, probed)
        value = self.measure.total_mass * value
        return float(value) if value.ndim == 0 else value

    def _certified(self, fn: Callable, probed: np.ndarray) -> np.ndarray | None:
        """The rule's integrals of fn times the density, or None unless every element is certified.

        ``probed`` holds each element's probe values, (element..., half-line, probe); this overwrites them.
        """
        if not np.isfinite(probed).all():
            return None
        mags = np.abs(probed, out=probed)
        peak = mags.max(axis=-1)
        # no probe outside the rule's core bracket reaches _CORE_FLOOR times the peak
        spill = mags.max(axis=-1, where=self.outside, initial=-math.inf)
        if not ((peak == 0.0) | (spill < _CORE_FLOOR * peak)).all():
            return None
        flat = self.weights.ravel()
        # where the weight is 0 the product is 0 even if fn alone overflows
        block = _over_marks(fn, self.nodes.ravel()) * flat
        np.copyto(block, 0.0, where=flat == 0.0)
        block = block.reshape(block.shape[:-1] + self.nodes.shape)[..., np.newaxis, :]  # (element..., panel, 1, node)
        # per panel, the Kronrod and Gauss estimates, then the Kronrod integrals of |f - mean| and |f|
        sums = (block * _GK_WEIGHTS).sum(axis=-1)
        kronrod = sums[..., 0]
        spread = np.abs(block - np.multiply.outer(kronrod, (0.5, 0.0))[..., np.newaxis])
        spread = (spread * _GK_WEIGHTS[0]).sum(axis=-1)
        err, floor = _qk21_error(np.abs(kronrod - sums[..., 1]), spread[..., 0], spread[..., 1])
        value, err = kronrod.sum(axis=-1), err.sum(axis=-1) + floor.sum(axis=-1)
        zero = (peak == 0.0).all(axis=-1)
        if not np.all((err <= MARK_INTEGRAL_REL_TOL * np.abs(value)) & ~(zero & (value != 0.0))):
            return None
        return value


def compensator_integral(coeffs: "CoefficientSet", t, s, x, rule: MarkRule | None = None):
    """Mean jump contribution int h(t, s, x, xi) nu(dxi).

    Uses the coefficient set's closed form when present, otherwise a
    quadrature against the mark density per slice along the last axis, each
    element with certified relative error MARK_INTEGRAL_REL_TOL.  The solver
    calls it only for a plain jump kernel, one slice per path and column: a
    path's cells in the later rows, the marks on a trailing axis.  The
    compensator of a ``SeparableKernel`` jump is separable, and the solver
    integrates its state parts instead (``solver._compensator``), one mark
    integral per path, column and term.  A slice takes the values of
    ``rule``, a ``MarkRule`` fitted to the jump kernel, when the rule
    certifies all of its elements, and otherwise the adaptive pass of
    ``LevyMeasure.integrate``, which reuses the rule's probe values.
    Slices are integrated separately, each deciding alone, so that a
    path's values never depend on the other paths of a batch.
    ``t``, ``s`` and ``x`` may be arrays; ``s <= t`` is required
    elementwise, and a nan time fails it.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    s_arr = np.asarray(s, dtype=np.float64)
    x_arr = np.asarray(x, dtype=np.float64)
    if not np.all(s_arr <= t_arr):
        raise ConfigurationError("compensator_integral requires s <= t")
    shape = np.broadcast_shapes(t_arr.shape, s_arr.shape, x_arr.shape)
    if coeffs.jump is None:
        out = np.zeros(shape, dtype=np.float64)
    elif coeffs.compensator is not None:
        out = _check_shape("compensator", coeffs.compensator(t, s, x), shape).copy()
    else:
        rows, width = math.prod(shape[:-1]), math.prod(shape[-1:])
        tb, sb, xb = (np.broadcast_to(a, shape).reshape(rows, width, 1) for a in (t_arr, s_arr, x_arr))
        quadrature = coeffs.measure if rule is None else rule
        out = np.array(
            [
                _check_shape("jump", quadrature.integrate(functools.partial(coeffs.jump, tk, sk, xk)), (width,))
                for tk, sk, xk in zip(tb, sb, xb)
            ]
        ).reshape(shape)
    return float(out) if out.ndim == 0 else out
