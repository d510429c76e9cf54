"""Exception hierarchy shared by all svie modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SvieError",
    "ConfigurationError",
    "ConfigParseError",
    "NumericalError",
    "DomainError",
    "ExplosionError",
    "AnalysisError",
]


class SvieError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SvieError):
    """A model object or argument violates a documented precondition."""


class ConfigParseError(ConfigurationError):
    """A run-configuration file is malformed; the message names the field."""


class NumericalError(SvieError):
    """A numerical routine failed to reach its accuracy target."""


class DomainError(SvieError):
    """A quantity left the domain on which an operation is defined."""


class ExplosionError(NumericalError):
    """A simulated path produced a non-finite value.

    Attributes
    ----------
    grid_index : int
        First grid index at which the state became non-finite.
    """

    def __init__(self, grid_index: int, message: str | None = None):
        self.grid_index = int(grid_index)
        super().__init__(message or f"path exploded at grid index {grid_index}")


class AnalysisError(SvieError):
    """A verification routine could not produce a meaningful verdict."""


def _check_int(name: str, value, low: int) -> int:
    """``value`` as an int of at least ``low``; integral floats and numpy integers pass."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):  # None, a string, nan, inf
        integral = False
    if not integral:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigurationError(f"{name} must be at least {low}, got {value!r}")
    return int(value)


def _check_real(name: str, value, low: float | None = None, strict: bool = False) -> float:
    """``value`` as a finite float at or above ``low`` (strictly above when ``strict``).

    None, strings, nan and inf fail; the message names the argument and its rule.
    """
    try:
        real = math.nan if isinstance(value, str) else float(value)
    except (TypeError, ValueError, OverflowError):
        real = math.nan
    if math.isfinite(real) and (low is None or (real > low if strict else real >= low)):
        return real
    if low is None:
        rule = "finite"
    elif low == 0.0:
        rule = "finite and positive" if strict else "finite and non-negative"
    else:
        rule = f"finite and {'greater than' if strict else 'at least'} {low:g}"
    raise ConfigurationError(f"{name} must be {rule}, got {value!r}")


def _check_shape(name: str, values, shape: tuple) -> np.ndarray:
    """``values`` as float64 broadcast to ``shape`` (a read-only view).

    An array that does not broadcast raises ConfigurationError naming the
    argument and both shapes, not numpy's ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    try:
        return np.broadcast_to(values, shape)
    except ValueError:
        raise ConfigurationError(f"{name} gave shape {values.shape}, which does not broadcast to {shape}") from None
