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

Every solver runs one column-push sweep over a (paths, n + 1) block.  Each
row starts at phi; once column j is final, one call per kernel on the later
grid times t_{j+1..n} pushes it into every later row of all paths, and the
jumps with floor(tau) = j follow.  Each path sums its cells in the same
order, j = 0, 1, ..., its own jumps in time order, so no value depends on
the other paths of the batch.  ``ensemble_simulate`` is one batch;
``direct_recursion`` is a batch of one, so each ensemble row is bitwise
equal to the single-path solve of its lineage.  A Picard step is a sweep
that pushes a previous iterate instead of the rows it writes, so a converged
Picard iterate is bitwise identical to the direct solution.  Successive
approximation also runs on a batch, one sweep per iterate for all paths
(``analysis.picard_gap`` uses it), and the Picard functions are batches of
one, so each path's iterates do not depend on the batch either.  Each
solve checks and lays out its noise once, in ``_noise_batch``.

A sweep evaluates O(n^2) kernel cells per path, but the (t, s) part of a
kernel only once per cell for the whole batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigurationError, ExplosionError, _check_int, _check_real
from .grid_noise import NoisePath, TimeGrid, compensator_integral, sample_noise_ensemble
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
            raise ConfigurationError(
                f"path has shape {self.values.shape}, expected ({self.grid.steps + 1},)"
            )


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
    return np.array(np.broadcast_to(np.asarray(coeffs.initial(grid.points), dtype=np.float64), grid.points.shape))


class _NoiseBatch(NamedTuple):
    """A batch's noise on one grid, checked and laid out by ``_noise_batch`` once per solve.

    ``brownian`` holds the (paths, n) increments.  All jumps are in one stable
    time-sorted list, each with its row in ``jump_paths``, so a path meets its
    own in time order; column j holds ``jump_cells[j]:jump_cells[j + 1]``.
    """

    grid: TimeGrid
    brownian: np.ndarray
    jump_times: np.ndarray
    jump_marks: np.ndarray
    jump_paths: np.ndarray
    jump_cells: np.ndarray


def _noise_batch(noises: Sequence[NoisePath]) -> _NoiseBatch:
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
    brownian = np.stack([noise.brownian for noise in noises])
    return _NoiseBatch(grid, brownian, times, marks, paths, np.searchsorted(times, grid.points, side="right"))


@np.errstate(over="ignore", invalid="ignore")  # the finiteness check reports an overflow, not numpy
def _sweep(coeffs: CoefficientSet, batch: _NoiseBatch, source: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the (paths, n + 1) block ``out`` column by column from ``source``.

    Rows start at phi; once column j of ``out`` is final, column j of
    ``source`` is pushed into every later row.  When ``source`` is ``out``
    this is the direct recursion; when it is a previous iterate, one Picard
    step.  Returns each path's first grid index with a non-finite state, -1
    where there is none.  That state is parked at 0, so kernels only ever see
    finite states, and the caller discards the row.  The sweep stops once
    every path has exploded, and parks the rows it did not reach at 0 too.
    ``batch`` is checked and laid out once per solve, by ``_noise_batch``.
    """
    grid, dW, jtimes, jmarks, jpath, jcells = batch
    pts, dt = grid.points, grid.dt
    drift, diffusion, jump = coeffs.drift, coeffs.diffusion, coeffs.jump
    comp = None
    if jump is not None:
        comp = coeffs.compensator or (lambda t, s, x: compensator_integral(coeffs, t, s, x))
    explosion = np.full(len(dW), -1, dtype=np.int64)
    out[:] = _initial_curve(coeffs, grid)
    for j in range(len(pts)):
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
        t, s, x = pts[j + 1 :], pts[j], source[:, j, None]
        f = drift(t, s, x)
        if comp is not None:
            f = f - comp(t, s, x)
        out[:, j + 1 :] += f * dt + diffusion(t, s, x) * dW[:, j, None]
        lo, hi = jcells[j], jcells[j + 1]
        if jump is not None and lo < hi:
            # unbuffered and in list order: each path adds its own jumps
            # left to right, whatever else is in the batch
            paths = jpath[lo:hi]
            np.add.at(out[:, j + 1 :], paths, jump(t, jtimes[lo:hi, None], source[paths, j, None], jmarks[lo:hi, None]))
    return explosion


def direct_recursion(coeffs: CoefficientSet, noise: NoisePath) -> DiscretePath:
    """Solve the discretized equation exactly: the sweep on a batch of one.

    Raises ExplosionError with the first offending grid index if the state
    leaves the finite floats.
    """
    out = np.empty((1, noise.grid.steps + 1), dtype=np.float64)
    explosion = _sweep(coeffs, _noise_batch([noise]), out, out)[0]
    if explosion >= 0:
        raise ExplosionError(explosion)
    return DiscretePath(grid=noise.grid, values=out[0])


def _iterates(coeffs: CoefficientSet, batch: _NoiseBatch) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Successive approximations of a batch laid out once: x^0 = phi on every path, then one sweep per iterate.

    Yields ``(x^k, explosion)``: the (paths, n + 1) block of iterate k and,
    per path, the grid index at which it first exploded in sweeps 1..k (-1
    where it never did).  An exploded path's row is parked, not a solution.
    """
    state = np.tile(_initial_curve(coeffs, batch.grid), (len(batch.brownian), 1))
    explosion = np.full(len(state), -1, dtype=np.int64)
    while True:
        yield state, explosion
        # empty, not zeros: the sweep writes every row, 0 where an early stop left it
        source, state = state, np.empty_like(state)
        explosion = np.where(explosion < 0, _sweep(coeffs, batch, source, state), explosion)


def _path_iterates(coeffs: CoefficientSet, noise: NoisePath) -> Iterator[np.ndarray]:
    """x^0, x^1, ... of one path: the batch of one, raising ExplosionError at the first exploding sweep."""
    for state, explosion in _iterates(coeffs, _noise_batch([noise])):
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

    Exploded paths are flagged and their rows are NaN; statistics downstream
    run on the survivors and report the loss.
    """

    grid: TimeGrid
    values: np.ndarray
    explosion_index: np.ndarray
    master_seed: int

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
    batch = _noise_batch(sample_noise_ensemble(grid, coeffs.measure, n_paths, master_seed))
    values = np.empty((n_paths, grid.steps + 1), dtype=np.float64)
    explosion_index = _sweep(coeffs, batch, values, values)
    values[explosion_index >= 0] = np.nan
    return Ensemble(grid=grid, values=values, explosion_index=explosion_index, master_seed=int(master_seed))
