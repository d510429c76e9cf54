"""Explicit left-endpoint scheme and successive approximation for
jump-diffusion Volterra equations.

The state at a grid point t_i is

    x(t_i) = phi(t_i)
           + sum_{j<i} f(t_i, t_j, x_j) dt
           + sum_{j<i} g(t_i, t_j, x_j) dW_j
           + sum_{tau <= t_i} h(t_i, tau, x_{floor(tau)}, xi)
           - sum_{j<i} (int h(t_i, t_j, x_j, xi) nu(dxi)) dt

where floor(tau) is the last grid index strictly below tau (jumps landing
exactly on a grid point, a null event, read the state one step earlier so
the scheme stays adapted).  Every sum over j < i makes the update strictly
lower triangular, which is why successive approximation started from
x^0 = phi reproduces the direct recursion exactly after at most n
iterations and the (n+1)-th sweep changes nothing.

Every solver runs one sweep, ``_sweep``, over a (paths, n + 1) block and
the paths' ``grid_noise.NoiseBatch``, the one noise layout.  Each path sums
in the same order, j = 0, 1, ..., its own jumps in time order, so no value
depends on the other paths of the batch.  ``ensemble_simulate`` is one
batch, which its ``Ensemble`` keeps; ``direct_recursion`` is a batch of
one, so each ensemble row is bitwise equal to the single-path solve of its
lineage.  A Picard step is a sweep that pushes a previous iterate instead
of the rows it writes, so a converged Picard iterate is bitwise identical
to the direct solution.  Successive approximation also runs on a batch, one
sweep per iterate for all paths (``analysis.picard_gap`` uses it), and the
Picard functions are batches of one, so each path's iterates do not depend
on the batch either.

A plain kernel costs O(n^2) cells per path, but its (t, s) part is
evaluated only once per cell for the whole batch; a separable kernel costs
O(n r) per path for r terms.  So does the compensator of a separable jump
kernel without a closed form: it is separable too, with one mark integral
per path, column and term, where a plain jump kernel's needs one per cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .coefficients import CoefficientSet, SeparableKernel
from .errors import ConfigurationError, ExplosionError, _check_int, _check_real, _check_shape
from .grid_noise import LevyMeasure, MarkRule, NoiseBatch, NoisePath, TimeGrid, _check_batch, compensator_integral
from .grid_noise import sample_noise_ensemble
from .grid_noise import sample_noise_path  # noqa: F401 -- perfbench/tracer.py wraps solver.sample_noise_path by name

__all__ = [
    "DiscretePath",
    "PicardRun",
    "Ensemble",
    "direct_recursion",
    "picard_solve",
    "picard_iterates",
    "ensemble_simulate",
]

DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DiscretePath:
    """State values x(t_i) over a grid's n + 1 points."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.steps + 1,):
            raise ConfigurationError(f"path has shape {self.values.shape}, expected ({self.grid.steps + 1},)")


@dataclass(frozen=True)
class PicardRun:
    """Record of one successive-approximation run.

    ``sup_diffs[k-1]`` is max_i |x^k(t_i) - x^{k-1}(t_i)| for iteration k.
    """

    converged: bool
    iterations: int
    sup_diffs: np.ndarray
    final: DiscretePath


def _initial_curve(coeffs: CoefficientSet, grid: TimeGrid) -> np.ndarray:
    """phi on the grid points, which is also the Picard start x^0."""
    return np.array(_check_shape("initial", coeffs.initial(grid.points), grid.points.shape))


def _compensator(coeffs: CoefficientSet, grid: TimeGrid, initial: np.ndarray):
    """The compensator kernel that the sweep subtracts, None without jumps.

    It is the closed form when the set has one.  Otherwise it integrates on
    ``grid_noise.MarkRule``s fitted at a state x0 that no path changes: phi's
    largest magnitude on the grid, or 1 where phi is 0 everywhere.  The
    compensator of a ``SeparableKernel`` jump sum_k time_k(t) lag_k(s)
    state_k(x, xi) is sum_k time_k(t) lag_k(s) int state_k(x, xi) nu(dxi),
    separable too, with one rule per term (``_state_integral``).  A plain
    jump kernel gets one rule, fitted at (t_n, t_0, x0), for
    ``compensator_integral``.  ``initial`` is phi on the grid points.
    """
    jump, measure = coeffs.jump, coeffs.measure
    if jump is None:
        return None
    if coeffs.compensator is not None:
        return coeffs.compensator
    # a fit at phi(t_0) = 0 would see a state-linear h as 0 on every probe
    # and keep no panels, sending every slice to the adaptive pass
    x0 = initial[np.argmax(np.abs(initial))] or 1.0
    if isinstance(jump, SeparableKernel):
        terms = tuple((time, lag, _state_integral(measure, state, x0)) for time, lag, state in jump.terms)
        return SeparableKernel(terms, name=f"{jump.name} compensator")
    pts = grid.points
    rule = MarkRule.fit(measure, lambda xi: jump(pts[-1], pts[0], x0, xi))
    return lambda t, s, x: compensator_integral(coeffs, t, s, x, rule)


def _state_integral(measure: LevyMeasure, state, x0: float):
    """x -> int state(x, xi) nu(dxi) on a ``MarkRule`` fitted at x0, one ``rule.integrate`` per slice of x.

    A slice runs along x's first axis, one path (a row of states in
    ``analysis.solution_martingales``), so no path's values depend on the batch.
    """
    rule = MarkRule.fit(measure, lambda xi: state(x0, xi))
    return lambda x: np.array([rule.integrate(lambda xi: state(xk[..., np.newaxis], xi)) for xk in x])


@np.errstate(over="ignore", invalid="ignore")  # the finiteness check reports an overflow, not numpy
def _sweep(coeffs: CoefficientSet, batch: NoiseBatch, source: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the (paths, n + 1) block ``out`` column by column from ``source``.

    Rows start at phi; once column j of ``out`` is final, column j of
    ``source`` is pushed into the later rows, each kernel by its kind.  The
    drift, diffusion and compensator form one table of (kernel, increment)
    entries, with increments dt, dW_j and -dt.  A plain kernel is called once
    on t_{j+1..n}, the scalar t_j and the (paths, 1) column of states, and
    its cells times the increment go into every later row: O(n - j) cells.
    A ``SeparableKernel`` instead folds the column into one running sum A per
    term and path, lag(t_j) state(x_j) times the increment.  The column's
    jumps follow: a plain jump kernel scatters its cells into the later rows,
    a separable one adds lag(tau) state(x_j, xi) to its sums.  Row j + 1 then
    adds sum time(t_{j+1}) A in term order.  Jumps go in unbuffered and in
    list order, and every other step is elementwise per path, with no BLAS
    call whose blocking could see the batch.  The compensator is
    ``_compensator``'s.  Without a closed form it fits its ``MarkRule``s once
    per sweep; a separable jump's compensator is folded like the drift, one
    ``rule.integrate`` per path, column and term, and a plain jump's is
    pushed as cells, one quadrature slice per path and column.

    When ``source`` is ``out`` this is the direct recursion; when it is a
    previous iterate, one Picard step.  Returns each path's first grid index
    with a non-finite state, -1 where there is none.  That state is parked at
    0, so kernels only ever see finite states, and the caller discards the
    row.  The sweep stops once every path has exploded, and parks the rows it
    did not reach at 0 too.
    """
    grid, dW, jtimes, jmarks, jpath, jcells = batch
    pts = grid.points
    initial = _initial_curve(coeffs, grid)
    comp = _compensator(coeffs, grid, initial)

    def factor(kernel, k, part, fn, at):
        return None if fn is None else _check_shape(f"{kernel.name}: term {k} {part}", fn(at), at.shape)

    def running(kernel, lag_at):
        if not isinstance(kernel, SeparableKernel):
            return []
        return [
            (factor(kernel, k, "time", time, pts), factor(kernel, k, "lag", lag, lag_at), state, np.zeros(len(dW)))
            for k, (time, lag, state) in enumerate(kernel.terms)
        ]

    # each slot's increments as a (paths, n) block; dt and -dt are views of one scalar, not copies
    dt, minus_dt = (np.broadcast_to(step, dW.shape) for step in (grid.dt, -grid.dt))
    table = [
        (kernel, increments, running(kernel, pts))
        for kernel, increments in ((coeffs.drift, dt), (coeffs.diffusion, dW), (comp, minus_dt))
        if kernel is not None
    ]
    jumps = running(coeffs.jump, jtimes)
    folds = [terms for _, _, terms in table] + [jumps]
    sums = [(time, acc) for terms in folds for time, _, _, acc in terms]
    explosion = np.full(len(dW), -1, dtype=np.int64)
    out[:] = initial
    for j in range(out.shape[1]):
        col = out[:, j]
        # the sum is finite unless some state is not (or the sum overflows,
        # which the mask then clears); one reduction is cheaper than a mask
        if not math.isfinite(np.add.reduce(col)):
            bad = ~np.isfinite(col)
            explosion[bad & (explosion < 0)] = j
            if (explosion >= 0).all():
                out[:, j:] = 0.0
                break
            col[bad] = 0.0
        if j == grid.steps:
            break
        t, s = pts[j + 1 :], pts[j]
        # columns of the row-major blocks are strided; contiguous copies
        # halve the sweep at 10 000 paths and change no value
        x = source[:, j].copy()
        for kernel, increments, terms in table:
            if isinstance(kernel, SeparableKernel):
                increment = increments[:, j].copy()
                for _, lag, state, acc in terms:
                    cell = state(x) * increment
                    acc += cell if lag is None else lag[j] * cell
            else:
                out[:, j + 1 :] += kernel(t, s, x[:, None]) * increments[:, j, None]
        lo, hi = jcells[j], jcells[j + 1]
        if coeffs.jump is not None and lo < hi:
            # unbuffered and in list order: each path adds its own jumps
            # left to right, whatever else is in the batch
            paths, marks = jpath[lo:hi], jmarks[lo:hi]
            if isinstance(coeffs.jump, SeparableKernel):
                for _, lag, state, acc in jumps:
                    cell = state(x[paths], marks)
                    np.add.at(acc, paths, cell if lag is None else lag[lo:hi] * cell)
            else:
                cells = coeffs.jump(t, jtimes[lo:hi, None], x[paths, None], marks[:, None])
                np.add.at(out[:, j + 1 :], paths, cells)
        if sums:
            row = out[:, j + 1].copy()
            for time, acc in sums:
                row += acc if time is None else time[j + 1] * acc
            out[:, j + 1] = row
    return explosion


def direct_recursion(coeffs: CoefficientSet, noise: NoisePath) -> DiscretePath:
    """Solve the discretized equation exactly: the sweep on a batch of one.

    Raises ExplosionError with the first offending grid index if the state
    leaves the finite floats.
    """
    out = np.empty((1, noise.grid.steps + 1), dtype=np.float64)
    explosion = _sweep(coeffs, NoiseBatch.of([noise]), out, out)[0]
    if explosion >= 0:
        raise ExplosionError(explosion)
    return DiscretePath(grid=noise.grid, values=out[0])


def _iterates(coeffs: CoefficientSet, batch: NoiseBatch) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Successive approximations of a batch laid out once: x^0 = phi on every path, then one sweep per iterate.

    Yields ``(x^k, explosion)``: the (paths, n + 1) block of iterate k and,
    per path, the grid index at which it first exploded in sweeps 1..k (-1
    where it never did).  An exploded path's row is parked, not a solution.
    The generator reads a yielded block only in the sweep that makes the next
    iterate, so a caller may overwrite the last iterate it takes.
    """
    state = np.tile(_initial_curve(coeffs, batch.grid), (len(batch.brownian), 1))
    explosion = np.full(len(state), -1, dtype=np.int64)
    while True:
        yield state, explosion
        # x^{k-1} goes before x^{k+1} is made; empty, not zeros: the sweep writes every row, 0 where it stopped early
        source = state
        state = np.empty_like(source)
        explosion = np.where(explosion < 0, _sweep(coeffs, batch, source, state), explosion)


def _path_iterates(coeffs: CoefficientSet, noise: NoisePath) -> Iterator[np.ndarray]:
    """x^0, x^1, ... of one path: the batch of one, raising ExplosionError at the first exploding sweep."""
    for state, explosion in _iterates(coeffs, NoiseBatch.of([noise])):
        if explosion[0] >= 0:
            raise ExplosionError(explosion[0])
        yield state[0]


def picard_solve(
    coeffs: CoefficientSet,
    noise: NoisePath,
    tolerance: float = DEFAULT_TOLERANCE,
    k_max: int | None = None,
) -> PicardRun:
    """Iterate sweeps from x^0 = phi until sup |x^k - x^{k-1}| <= tolerance.

    The default ``k_max`` is n + 1: on a lower-triangular scheme iterate n
    is exact and iterate n + 1 repeats it, so tolerance 0 always converges
    within the default budget.
    """
    tolerance = _check_real("tolerance", tolerance, 0.0)
    k_max = noise.grid.steps + 1 if k_max is None else _check_int("k_max", k_max, 1)
    sup_diffs = []
    for prev, curr in itertools.pairwise(itertools.islice(_path_iterates(coeffs, noise), k_max + 1)):
        sup_diffs.append(float(np.max(np.abs(curr - prev))))
        if sup_diffs[-1] <= tolerance:
            break
    return PicardRun(
        converged=sup_diffs[-1] <= tolerance,
        iterations=len(sup_diffs),
        sup_diffs=np.asarray(sup_diffs, dtype=np.float64),
        final=DiscretePath(grid=noise.grid, values=curr),
    )


def picard_iterates(coeffs: CoefficientSet, noise: NoisePath, keep: Iterable[int]) -> dict[int, DiscretePath]:
    """Return the requested iterates {k: x^k}; k = 0 is the initial curve.

    No sweep runs past the largest requested k, so ``keep=(0,)`` runs none.
    """
    wanted = {_check_int("keep", k, 0) for k in keep}
    if not wanted:
        return {}
    # range first: zip stops before asking the stream for one sweep too many
    stream = zip(range(max(wanted) + 1), _path_iterates(coeffs, noise))
    return {k: DiscretePath(grid=noise.grid, values=state) for k, state in stream if k in wanted}


@dataclass(frozen=True)
class Ensemble:
    """Direct-recursion solutions over lineages (master_seed, 0..n_paths-1).

    ``noise`` is the batch they were solved on, which a later check on the
    same lineages reads instead of drawing it again.  Exploded paths are
    flagged and their rows are NaN; statistics run on the survivors.  A
    batch that is not laid out as ``NoiseBatch`` lays it out, or ``values``
    and ``explosion_index`` without a row per path and ``values`` without a
    column per grid time, raise ConfigurationError naming the field.
    """

    noise: NoiseBatch
    values: np.ndarray
    explosion_index: np.ndarray
    master_seed: int

    def __post_init__(self):
        _check_batch(self.noise)
        paths, width = len(self.noise.brownian), self.noise.grid.steps + 1
        for name, want in (("values", (paths, width)), ("explosion_index", (paths,))):
            if (shape := np.shape(getattr(self, name))) != want:
                raise ConfigurationError(f"{name} has shape {shape}, expected {want}")

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def exploded(self) -> np.ndarray:
        return self.explosion_index >= 0

    @property
    def survivors(self) -> np.ndarray:
        return self.values[~self.exploded]


def ensemble_simulate(coeffs: CoefficientSet, grid: TimeGrid, n_paths: int, master_seed: int) -> Ensemble:
    """Simulate n_paths independent paths as one batch through the sweep.

    Path index idx is the noise lineage (master_seed, idx), sampled from
    ``coeffs.measure``, the measure the sweep compensates with.  Its row is
    bitwise equal to ``direct_recursion`` on that lineage: no value depends
    on the batch.
    """
    noise = sample_noise_ensemble(grid, coeffs.measure, n_paths, master_seed)
    values = np.empty((len(noise.brownian), grid.steps + 1), dtype=np.float64)
    explosion_index = _sweep(coeffs, noise, values, values)
    values[explosion_index >= 0] = np.nan
    return Ensemble(noise=noise, values=values, explosion_index=explosion_index, master_seed=int(master_seed))
