"""Coefficient sets, continuity moduli, and the audits that certify them.

A model is four kernels: drift f(t, s, x), diffusion g(t, s, x), jump
h(t, s, x, xi) and an initial curve phi(t), together with the jump measure
they integrate against.  Kernels must broadcast like numpy ufuncs over
``t``, ``s``, ``x`` and ``xi``; mark-space quadrature puts the marks on a
trailing axis.  A ``SeparableKernel``, a short sum of a(t) b(s) psi(x)
terms as in every catalogue model, lets the solver push in O(n r).

Two sampling audits back the standing assumptions:

* ``audit_linear_growth`` certifies max(|f|^2, |g|^2, int |h|^2 nu)
  <= C (1 + |x|^2) on a sampled domain and estimates the best C.
* ``audit_modulus`` certifies the squared differences of all three kernels
  against scale * kappa(|x - y|^2) for a concave modulus kappa, and probes
  kappa's own contract (zero at zero, positivity, monotonicity, midpoint
  concavity, divergence of int du / kappa(u) at the origin).

``bihari_integral`` is the comparison integral int du / kappa(u) that both
the Osgood probe here and the Bihari bound in ``analysis`` are built on; it
runs on the package's own adaptive Gauss-Kronrod rule from ``grid_noise``.

Audits are certificates over their sample set, not proofs.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AnalysisError, ConfigurationError, DomainError, _check_int, _check_real, _check_shape
from .grid_noise import MARK_INTEGRAL_REL_TOL, LevyMeasure, _gauss_kronrod

__all__ = [
    "AUDIT_SLACK",
    "CoefficientSet",
    "SeparableKernel",
    "Modulus",
    "GrowthAudit",
    "ModulusAudit",
    "OsgoodProbe",
    "example_coefficients",
    "deterministic_ode_coefficients",
    "linear_test_coefficients",
    "zero_coefficients",
    "COEFFICIENT_SETS",
    "coefficient_catalogue",
    "linear_modulus",
    "log_modulus",
    "quadratic_modulus",
    "MODULI",
    "modulus_catalogue",
    "scale_for_log_modulus",
    "domain_sampler",
    "pair_sampler",
    "audit_linear_growth",
    "audit_modulus",
    "bihari_integral",
    "osgood_ladder",
]

AUDIT_SLACK = 1e-12  # uniform absolute slack on audited inequalities

_E2 = math.exp(2.0)  # second moment of a standard log-normal mark
_E4 = math.exp(8.0)  # fourth moment
_E1 = math.exp(0.5)  # first moment


def _takes(fn, count: int) -> bool:
    """Whether ``fn`` can be called with ``count`` positional arguments, as far as its signature tells."""
    if not callable(fn):
        return False
    if isinstance(fn, np.ufunc):  # its signature lists ``out`` as a positional parameter
        return fn.nin == count
    try:
        inspect.signature(fn).bind(*range(count))
    except ValueError:  # no signature to read
        return True
    except TypeError:
        return False
    return True


@dataclass(frozen=True)
class SeparableKernel:
    """A kernel written as a sum of separable terms: sum_r time_r(t) lag_r(s) state_r(x[, xi]).

    ``terms`` is an ordered tuple of ``(time, lag, state)``.  ``time`` and
    ``lag`` are elementwise functions of one time, or None for the constant
    1; ``state`` is ``state(x)``, or ``state(x, xi)`` in the jump slot, as
    ``CoefficientSet`` checks.  The kernel is its factor sum: calling it
    adds the terms in order, skipping None factors, and broadcasts like any
    kernel, so a term with both factors None is exactly its ``state``.  A
    kernel with no terms is zero.  The solver folds each term, whatever the
    model's other kernels are: ``state`` gets 1-D arrays of states (and
    marks), ``time`` and ``lag`` the grid points (and jump times) per sweep.
    """

    terms: tuple
    name: str = "separable kernel"

    def __post_init__(self):
        try:
            object.__setattr__(self, "terms", tuple(self.terms))
        except TypeError:
            message = f"{self.name}: terms must be a tuple of (time, lag, state) terms, got {self.terms!r}"
            raise ConfigurationError(message) from None
        rules = {"time": "a function of t or None", "lag": "a function of s or None", "state": "a function of x[, xi]"}
        for k, term in enumerate(self.terms):
            if not (isinstance(term, tuple) and len(term) == 3):
                raise ConfigurationError(f"{self.name}: term {k} must be a (time, lag, state) tuple, got {term!r}")
            for (part, rule), fn in zip(rules.items(), term):
                if not (callable(fn) if part == "state" else fn is None or _takes(fn, 1)):
                    raise ConfigurationError(f"{self.name}: term {k} {part} must be {rule}, got {fn!r}")

    def __call__(self, t, s, *state):
        if not self.terms:
            return np.zeros(np.broadcast_shapes(*(np.shape(a) for a in (t, s, *state))))
        total = None
        for time, lag, part in self.terms:
            value = part(*state)
            value = value if lag is None else lag(s) * value
            value = value if time is None else time(t) * value
            total = value if total is None else total + value
        return total


_SLOTS = {"drift": "t s x", "diffusion": "t s x", "initial": "t", "jump": "t s x xi", "compensator": "t s x"}


def _function_of(arguments: list) -> str:
    return "a function of " + (arguments[0] if len(arguments) == 1 else f"({', '.join(arguments)})")


@dataclass(frozen=True)
class CoefficientSet:
    """Kernels of one jump-diffusion Volterra model.

    Each slot takes its own arguments (``_SLOTS``): ``drift``, ``diffusion``
    and ``compensator`` take (t, s, x), ``jump`` (t, s, x, xi), ``initial``
    t, and a ``SeparableKernel``'s ``state`` parts those after t and s.  A
    slot that is malformed or cannot take them raises ``ConfigurationError``
    naming it.  ``jump=None``, or a measure with no mass, switches jumps
    off: ``jump`` and ``compensator`` are then None, so ``jump is None`` is
    the one test for "no jumps".  ``compensator`` is an optional closed form
    for int h(t, s, x, xi) nu(dxi); without it the solver integrates h
    against ``measure`` by one vector quadrature per path and column, a few
    hundred times slower.  ``growth_constant`` is the analytic C of the
    linear-growth condition when one is known, finite and non-negative.
    Kernels broadcast like numpy ufuncs: the solver calls a plain kernel
    with the later grid times t_{j+1..n} as a 1-D ``t``, the scalar t_j as
    ``s`` (``jump`` gets columns of jump times and marks) and a (paths, 1)
    column of states as ``x``; mark-space quadrature calls ``jump`` with a
    1-D array of marks and the states on a trailing axis of length one.
    The solver folds each ``SeparableKernel`` and never calls it whole.
    """

    drift: Callable
    diffusion: Callable
    initial: Callable
    measure: LevyMeasure
    jump: Callable | None = None
    compensator: Callable | None = None
    growth_constant: float | None = None
    name: str = "custom"

    def __post_init__(self):
        if not isinstance(self.measure, LevyMeasure):
            raise ConfigurationError(f"measure must be a LevyMeasure, got {self.measure!r}")
        for slot, names in _SLOTS.items():
            kernel, arguments, optional = getattr(self, slot), names.split(), slot in ("jump", "compensator")
            if not (callable(kernel) or optional and kernel is None):
                raise ConfigurationError(f"{slot} must be callable{' or None' if optional else ''}, got {kernel!r}")
            if kernel is not None and not _takes(kernel, len(arguments)):
                raise ConfigurationError(f"{slot} must be {_function_of(arguments)}, got {kernel!r}")
            for k, (_, _, state) in enumerate(kernel.terms if isinstance(kernel, SeparableKernel) else ()):
                if not _takes(state, len(arguments) - 2):
                    rule = _function_of(arguments[2:])
                    raise ConfigurationError(f"{kernel.name}: term {k} state must be {rule}, got {state!r}")
        if self.growth_constant is not None:
            object.__setattr__(self, "growth_constant", _check_real("growth_constant", self.growth_constant, 0.0))
        if self.measure.total_mass == 0.0:
            object.__setattr__(self, "jump", None)
            object.__setattr__(self, "compensator", None)
        if self.jump is not None and self.measure.mark_sampler is None:
            raise ConfigurationError("a jump kernel with positive mass needs a measure that can sample marks")


@dataclass(frozen=True)
class Modulus:
    """Concave continuity modulus u -> scale * kappa(u).

    ``osgood_divergent`` declares that int_0+ du / kappa(u) diverges; the
    declaration is probed numerically by ``audit_modulus``.
    """

    kappa: Callable
    scale: float
    osgood_divergent: bool
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "scale", _check_real("modulus scale", self.scale, 0.0))


def _kappa(modulus: Modulus, u) -> np.ndarray:
    """kappa(u) as float64 of u's shape; any other shape raises ConfigurationError naming kappa."""
    return _check_shape("kappa", modulus.kappa(u), np.shape(u))


# --- modulus catalogue -------------------------------------------------


def linear_modulus(scale: float) -> Modulus:
    """kappa(u) = u; the globally Lipschitz special case."""
    return Modulus(kappa=lambda u: np.asarray(u, dtype=np.float64), scale=scale, osgood_divergent=True, name="linear")


def log_modulus(scale: float) -> Modulus:
    """kappa(u) = u log(1/u) near zero, frozen at its maximum 1/e beyond u = 1/e.

    The flat extension keeps kappa concave, non-decreasing and continuous
    while int du / kappa still diverges at the origin.
    """
    cap = math.exp(-1.0)

    def kappa(u):
        arr = np.asarray(u, dtype=np.float64)
        small = (arr > 0.0) & (arr <= cap)
        safe = np.where(small, arr, cap)
        out = np.where(small, -safe * np.log(safe), np.where(arr <= 0.0, 0.0, cap))
        return out if out.ndim else float(out)

    return Modulus(kappa=kappa, scale=scale, osgood_divergent=True, name="log")


def quadratic_modulus(scale: float) -> Modulus:
    """kappa(u) = u^2.  Convex, so it fails the concavity probe; kept for negative tests."""
    return Modulus(
        kappa=lambda u: np.square(np.asarray(u, dtype=np.float64)),
        scale=scale,
        osgood_divergent=True,
        name="quadratic",
    )


MODULI = {"linear": linear_modulus, "log": log_modulus, "quadratic": quadratic_modulus}


def modulus_catalogue(kind: str, scale: float) -> Modulus:
    """Named moduli reachable from run configurations."""
    if kind not in MODULI:
        raise ConfigurationError(f"unknown modulus kind {kind!r}; expected one of {', '.join(MODULI)}")
    return MODULI[kind](scale)


def scale_for_log_modulus(linear_scale: float, d_max: float) -> float:
    """Smallest scale putting L^2 * d under scale * kappa_log(d) for d in (0, d_max]."""
    linear_scale = _check_real("linear_scale", linear_scale, 0.0)
    d_max = _check_real("d_max", d_max, 0.0, strict=True)
    cap = math.exp(-1.0)
    if d_max <= cap:
        return linear_scale / math.log(1.0 / d_max)
    return linear_scale * math.e * d_max


# --- coefficient catalogue ---------------------------------------------


def _linear(slope: float, name: str) -> SeparableKernel:
    """slope * x: one term with no (t, s) factor."""
    return SeparableKernel(((None, None, lambda x: slope * np.asarray(x, dtype=np.float64)),), name=name)


def _ones_like(t):
    out = np.ones_like(np.asarray(t, dtype=np.float64))
    return out if out.ndim else 1.0


def _lognormal_measure(rate: float) -> LevyMeasure:
    """Log-normal marks at the given jump rate; rate 0 switches jumps off."""
    rate = _check_real("jump rate", rate, 0.0)
    return LevyMeasure.lognormal(rate=rate) if rate > 0.0 else LevyMeasure.empty()


def example_coefficients(c: float, rate: float = 2.0) -> CoefficientSet:
    """Worked jump-diffusion model with log-normal marks.

    f = x/2, g = 4 cos^2(t - s) x, h = c xi^2 x, phi = 1, with mark law
    exp(N(0, 1)) at the given jump rate.  The compensator has the closed
    form c * rate * e^2 * x, and the linear-growth constant is
    max(1/4, 16, rate * e^8 * c^2).  g has rank 3:
    4 cos^2(t - s) = 2 + 2 cos 2t cos 2s + 2 sin 2t sin 2s.
    """
    c = _check_real("jump coefficient c", c, 0.0, strict=True)
    measure = _lognormal_measure(rate)
    two_x = lambda x: 2.0 * np.asarray(x, dtype=np.float64)
    cos2 = lambda u: np.cos(2.0 * np.asarray(u, dtype=np.float64))
    sin2 = lambda u: np.sin(2.0 * np.asarray(u, dtype=np.float64))
    return CoefficientSet(
        drift=_linear(0.5, "example drift"),
        diffusion=SeparableKernel(
            ((None, None, two_x), (cos2, cos2, two_x), (sin2, sin2, two_x)), name="example diffusion"
        ),
        jump=SeparableKernel(
            ((None, None, lambda x, xi: c * np.asarray(xi, dtype=np.float64) ** 2 * x),), name="example jump"
        ),
        initial=_ones_like,
        measure=measure,
        compensator=_linear(c * rate * _E2, "example compensator"),
        growth_constant=max(0.25, 16.0, rate * _E4 * c * c),
        name="example",
    )


def deterministic_ode_coefficients() -> CoefficientSet:
    """f = x/2 with no noise at all; x(t) converges to exp(t/2) from phi = 1."""
    return CoefficientSet(
        drift=_linear(0.5, "deterministic_ode drift"),
        diffusion=SeparableKernel((), name="deterministic_ode diffusion"),
        jump=None,
        initial=_ones_like,
        measure=LevyMeasure.empty(),
        growth_constant=0.25,
        name="deterministic_ode",
    )


def linear_test_coefficients(c: float = 0.1, rate: float = 2.0) -> CoefficientSet:
    """Globally Lipschitz set: f = x/4, g = x/2, h = c xi x, phi = 1."""
    c = _check_real("jump coefficient c", c, 0.0, strict=True)
    measure = _lognormal_measure(rate)
    return CoefficientSet(
        drift=_linear(0.25, "linear_test drift"),
        diffusion=_linear(0.5, "linear_test diffusion"),
        jump=SeparableKernel(
            ((None, None, lambda x, xi: c * np.asarray(xi, dtype=np.float64) * x),), name="linear_test jump"
        ),
        initial=_ones_like,
        measure=measure,
        compensator=_linear(c * rate * _E1, "linear_test compensator"),
        growth_constant=max(0.0625, 0.25, c * c * rate * _E2),
        name="linear_test",
    )


def zero_coefficients() -> CoefficientSet:
    """All kernels zero; every path equals the initial curve phi = 1."""
    return CoefficientSet(
        drift=SeparableKernel((), name="zero drift"),
        diffusion=SeparableKernel((), name="zero diffusion"),
        jump=None,
        initial=_ones_like,
        measure=LevyMeasure.empty(),
        growth_constant=0.0,
        name="zero",
    )


# name -> factory(c, rate); the noise-free models ignore both arguments
COEFFICIENT_SETS = {
    "example": example_coefficients,
    "deterministic_ode": lambda c, rate: deterministic_ode_coefficients(),
    "linear_test": linear_test_coefficients,
    "zero": lambda c, rate: zero_coefficients(),
}


def coefficient_catalogue(name: str, c: float = 0.1, rate: float = 2.0) -> CoefficientSet:
    """Named models reachable from run configurations."""
    if name not in COEFFICIENT_SETS:
        raise ConfigurationError(f"unknown coefficient set {name!r}; expected one of {', '.join(COEFFICIENT_SETS)}")
    return COEFFICIENT_SETS[name](c, rate)


# --- samplers -----------------------------------------------------------


def _state_sampler(horizon: float, x_bound: float, seed: int, states: int) -> Callable:
    """Draw (t, s, x_1, ..., x_states) with 0 <= s <= t <= horizon and each |x_k| <= x_bound."""
    rng = np.random.default_rng(seed)

    def draw(n: int):
        t = horizon * rng.random(n)
        s = t * rng.random(n)
        return (t, s, *(x_bound * (2.0 * rng.random(n) - 1.0) for _ in range(states)))

    return draw


def domain_sampler(horizon: float, x_bound: float = 10.0, seed: int = 0) -> Callable:
    """Draw triples (t, s, x) with 0 <= s <= t <= horizon and |x| <= x_bound."""
    return _state_sampler(horizon, x_bound, seed, 1)


def pair_sampler(horizon: float, x_bound: float = 10.0, seed: int = 0) -> Callable:
    """Draw quadruples (t, s, x, y) on the same domain as ``domain_sampler``."""
    return _state_sampler(horizon, x_bound, seed, 2)


def _jump_square_integral(coeffs: CoefficientSet, t, s, x, y=None) -> np.ndarray:
    """int |h(t,s,x,xi) - h(t,s,y,xi)|^2 nu(dxi) per sample (y=None: plain |h|^2).

    One vector quadrature over all samples; each is certified to
    MARK_INTEGRAL_REL_TOL relative on its own.
    """
    n = len(t)
    if coeffs.jump is None:
        return np.zeros(n)
    jump = coeffs.jump
    t, s, x = t[:, np.newaxis], s[:, np.newaxis], x[:, np.newaxis]  # samples on a leading axis, marks trailing
    if y is None:
        fn = lambda xi: np.square(jump(t, s, x, xi))
    else:
        fn = lambda xi: np.square(jump(t, s, x, xi) - jump(t, s, y[:, np.newaxis], xi))
    return _check_shape("jump", coeffs.measure.integrate(fn), (n,))


# --- linear-growth audit -------------------------------------------------


@dataclass(frozen=True)
class GrowthAudit:
    """Outcome of a linear-growth audit over one sample set."""

    estimated_constant: float
    supplied_constant: float | None
    worst_point: tuple[float, float, float]
    bad_points: tuple
    n_samples: int
    passed: bool


def audit_linear_growth(coeffs: CoefficientSet, sampler: Callable, samples: int = 1000) -> GrowthAudit:
    """Estimate the best C with max(|f|^2, |g|^2, int |h|^2 nu) <= C (1 + |x|^2).

    The estimate is the worst sampled ratio, so it can only grow as samples
    are added.  Any non-finite kernel value fails the audit and is reported
    with the offending (t, s, x).
    """
    samples = _check_int("samples", samples, 1)
    t, s, x = sampler(samples)
    t, s, x = (np.asarray(a, dtype=np.float64) for a in (t, s, x))
    fsq = _check_shape("drift", coeffs.drift(t, s, x), (samples,)) ** 2
    gsq = _check_shape("diffusion", coeffs.diffusion(t, s, x), (samples,)) ** 2
    hsq = _jump_square_integral(coeffs, t, s, x)
    numer = np.maximum(np.maximum(fsq, gsq), hsq)
    ratios = numer / (1.0 + x * x)
    finite = np.isfinite(ratios)
    bad = tuple((float(t[k]), float(s[k]), float(x[k])) for k in np.nonzero(~finite)[0])
    if not finite.any():
        return GrowthAudit(math.nan, coeffs.growth_constant, bad[0], bad, samples, False)
    worst = int(np.nanargmax(np.where(finite, ratios, -math.inf)))
    estimate = float(ratios[worst])
    supplied = coeffs.growth_constant
    passed = not bad and (supplied is None or estimate <= float(supplied) + AUDIT_SLACK)
    return GrowthAudit(
        estimated_constant=estimate,
        supplied_constant=supplied,
        worst_point=(float(t[worst]), float(s[worst]), float(x[worst])),
        bad_points=bad,
        n_samples=samples,
        passed=passed,
    )


# --- modulus audit -------------------------------------------------------


@dataclass(frozen=True)
class OsgoodProbe:
    """Decade ladder of int_eps^1 du / kappa(u); divergence shows as
    increments that refuse to die out as eps shrinks."""

    epsilons: tuple
    values: tuple
    divergent: bool


def bihari_integral(modulus: Modulus, v: float, v_ref: float) -> float:
    """G(v) - G(v_ref) = int_{v_ref}^{v} du / kappa(u), adaptive to relative 1e-10.

    G is only defined up to an additive constant, so a reference point is
    part of the signature.  The integral runs in log coordinates (u = e^w),
    so steep integrands near the origin stay tame.  kappa must stay
    positive on the span (DomainError otherwise); an integral whose error
    estimate stays above 1e-6 relative raises AnalysisError.
    """
    v, v_ref = _check_real("v", v, 0.0, strict=True), _check_real("v_ref", v_ref, 0.0, strict=True)
    if v == v_ref:
        return 0.0

    def integrand(w: np.ndarray) -> np.ndarray:
        u = np.exp(w)
        k = _kappa(modulus, u)
        if not np.all(k > 0.0):
            i = int(np.argmin(k > 0.0))
            raise DomainError(f"kappa({float(u[i])!r}) = {float(k[i])!r}; the comparison integral needs kappa > 0")
        return u / k

    lo, hi = sorted((math.log(v_ref), math.log(v)))
    res, err = _gauss_kronrod(integrand, lo, hi, epsrel=1e-10, limit=400)
    if not err <= 1e-6 * max(abs(res), 1e-300):  # a nan error fails too
        raise AnalysisError(f"comparison integral did not converge: estimate {res!r}, error {err!r}")
    return float(res) if v > v_ref else -float(res)


def osgood_ladder(modulus: Modulus, decades: int = 11) -> OsgoodProbe:
    """Evaluate int_eps^1 du / kappa(u) for eps = 1e-2 ... 1e-(decades+1).

    Each rung is ``bihari_integral(modulus, 1, eps)``.  The ladder is judged
    divergent when the values keep increasing and the final decade still
    contributes at least a tenth of the first; it needs two decades at least.
    """
    decades = _check_int("decades", decades, 2)
    epsilons = tuple(10.0 ** (-(k + 2)) for k in range(decades))
    values = [bihari_integral(modulus, 1.0, eps) for eps in epsilons]
    increments = np.diff([0.0] + values)
    increasing = bool(np.all(increments > 0.0))
    divergent = increasing and increments[-1] >= 0.1 * increments[1]
    return OsgoodProbe(epsilons=epsilons, values=tuple(values), divergent=bool(divergent))


@dataclass(frozen=True)
class ModulusAudit:
    """Outcome of a continuity-modulus audit over one sample set.

    ``worst_slack`` is the largest excess of a squared kernel difference over
    scale * kappa(|x - y|^2) after subtracting the certified quadrature error
    of the jump term; the audit passes when it stays within AUDIT_SLACK.  It
    is nan when no sample gave finite values.
    """

    worst_slack: float
    worst_point: tuple
    kappa_zero_ok: bool
    positive_ok: bool
    monotone_ok: bool
    concave_ok: bool
    osgood: OsgoodProbe
    bad_points: tuple
    n_samples: int
    passed: bool


def _kappa_self_checks(modulus: Modulus, u_values: np.ndarray) -> tuple[bool, bool, bool, bool]:
    zero_ok = abs(float(_kappa(modulus, 0.0))) <= AUDIT_SLACK
    # repeated points leave every verdict below unchanged, so a sort suffices
    grid = np.sort(np.concatenate([np.geomspace(1e-12, 1.0, 49), u_values[u_values > 0.0]]))
    vals = _kappa(modulus, grid)
    positive_ok = bool(np.all(vals > 0.0)) and bool(np.all(np.isfinite(vals)))
    monotone_ok = bool(np.all(np.diff(vals) >= -AUDIT_SLACK))
    mids = _kappa(modulus, 0.5 * (grid[:-1] + grid[1:]))
    concave_ok = bool(np.all(mids + AUDIT_SLACK >= 0.5 * (vals[:-1] + vals[1:])))
    # concavity also across long ranges, not just neighbours
    lo, hi = grid[0], grid[-1]
    k_lo, k_hi = float(_kappa(modulus, lo)), float(_kappa(modulus, hi))
    chords = k_lo + (grid - lo) * (k_hi - k_lo) / (hi - lo)
    concave_ok = concave_ok and bool(np.all(vals + AUDIT_SLACK >= chords))
    return zero_ok, positive_ok, monotone_ok, concave_ok


def audit_modulus(coeffs: CoefficientSet, modulus: Modulus, sampler: Callable, samples: int = 1000) -> ModulusAudit:
    """Certify squared kernel differences against scale * kappa(|x - y|^2).

    Also probes kappa's own contract and the declared Osgood divergence.
    """
    samples = _check_int("samples", samples, 1)
    t, s, x, y = sampler(samples)
    t, s, x, y = (np.asarray(a, dtype=np.float64) for a in (t, s, x, y))
    fdiff, gdiff = (
        (_check_shape(slot, kernel(t, s, x), (samples,)) - _check_shape(slot, kernel(t, s, y), (samples,))) ** 2
        for slot, kernel in (("drift", coeffs.drift), ("diffusion", coeffs.diffusion))
    )
    hdiff = _jump_square_integral(coeffs, t, s, x, y)
    lhs = np.maximum(np.maximum(fdiff, gdiff), hdiff)
    d = (x - y) ** 2
    rhs = modulus.scale * _kappa(modulus, d)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    bad = tuple((float(t[k]), float(s[k]), float(x[k]), float(y[k])) for k in np.nonzero(~finite)[0])
    # the jump term is a quadrature estimate with certified relative error
    # MARK_INTEGRAL_REL_TOL; an excess smaller than that is indistinguishable
    # from integration rounding, so it is not counted as slack
    slack = np.subtract(lhs, rhs, where=finite, out=np.full(samples, -math.inf))
    np.subtract(slack, MARK_INTEGRAL_REL_TOL * np.abs(hdiff), where=finite, out=slack)
    worst = int(np.argmax(slack))
    zero_ok, positive_ok, monotone_ok, concave_ok = _kappa_self_checks(modulus, d)
    probe = osgood_ladder(modulus)
    inequality_ok = not bad and bool(np.all(slack[finite] <= AUDIT_SLACK))
    checks = (inequality_ok, zero_ok, positive_ok, monotone_ok, concave_ok, modulus.osgood_divergent, probe.divergent)
    passed = all(checks)
    return ModulusAudit(
        worst_slack=float(slack[worst]) if finite.any() else math.nan,
        worst_point=(float(t[worst]), float(s[worst]), float(x[worst]), float(y[worst])),
        kappa_zero_ok=zero_ok,
        positive_ok=positive_ok,
        monotone_ok=monotone_ok,
        concave_ok=concave_ok,
        osgood=probe,
        bad_points=bad,
        n_samples=samples,
        passed=bool(passed),
    )
