"""Command line front end: ``svie simulate | picard | verify``.

Runs are described by a plain-text key/value config (one ``key = value``
per line, ``#`` comments, schema-versioned).  Exit codes: 0 all checks
passed or the solve converged, 1 the Picard iteration did not converge,
2 a check failed or an analysis/configuration error occurred.  Outputs are
deterministic: rerunning an identical config and seed reproduces every
artifact byte for byte.  ``--threads`` is kept for compatibility: it is
validated (at least 1) and has no effect, since an ensemble is one batch
through the solver's sweep.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import analysis
from .coefficients import (
    AUDIT_SLACK,
    COEFFICIENT_SETS,
    MODULI,
    audit_linear_growth,
    audit_modulus,
    coefficient_catalogue,
    domain_sampler,
    modulus_catalogue,
    pair_sampler,
    scale_for_log_modulus,
)
from .errors import ConfigParseError, ConfigurationError, SvieError, _check_int, _check_real
from .grid_noise import _check_lineage, build_grid, sample_noise_path
from .grid_noise import sample_noise_ensemble  # noqa: F401 -- perfbench/tracer.py wraps cli.sample_noise_ensemble by name
from .solver import ensemble_simulate, picard_solve

__all__ = ["RunConfig", "parse_config", "emit_config", "load_config", "main"]

SCHEMA = "svie-run/1"

_AUDIT_X_BOUND = 10.0
_AUDIT_SAMPLES = 1000


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the output directory override.

    ``horizon`` is in model time units, ``jump_rate`` in expected jumps per
    unit time.  ``picard_k_max = None`` means the structural default
    steps + 1, which always suffices at tolerance 0.
    """

    coefficient_set: str = "example"
    modulus: str = "linear"
    horizon: float = 0.5
    steps: int = 128
    paths: int = 1000
    master_seed: int = 1
    jump_coefficient: float = 0.1
    jump_rate: float = 2.0
    picard_tolerance: float = 1e-10
    picard_k_max: int | None = None
    out_dir: str = "out"

    def __post_init__(self):
        if self.coefficient_set not in COEFFICIENT_SETS:
            raise ConfigurationError(
                f"coefficient_set must be one of {', '.join(COEFFICIENT_SETS)}, got {self.coefficient_set!r}"
            )
        if self.modulus not in MODULI:
            raise ConfigurationError(f"modulus must be one of {', '.join(MODULI)}, got {self.modulus!r}")
        # stored normalised (8.0 as 8), so emit_config writes text parse_config reads back
        checked = {
            "horizon": _check_real("horizon", self.horizon, 0.0, strict=True),
            "steps": _check_int("steps", self.steps, 1),
            "paths": _check_int("paths", self.paths, 1),
            "master_seed": _check_lineage((self.master_seed, 0))[0],
            "jump_coefficient": _check_real("jump_coefficient", self.jump_coefficient, 0.0, strict=True),
            "jump_rate": _check_real("jump_rate", self.jump_rate, 0.0),
            "picard_tolerance": _check_real("picard_tolerance", self.picard_tolerance, 0.0),
        }
        if self.picard_k_max is not None:
            checked["picard_k_max"] = _check_int("picard_k_max", self.picard_k_max, 1)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigurationError(f"out_dir must be a non-empty path string, got {self.out_dir!r}")
        # emit_config writes it on one line, which parse_config cuts at '#' and strips
        if "#" in self.out_dir or self.out_dir.strip() != self.out_dir or self.out_dir.splitlines() != [self.out_dir]:
            raise ConfigurationError(
                f"out_dir must hold no '#', line break or leading or trailing whitespace, got {self.out_dir!r}"
            )


# field -> the type its text is parsed with, from RunConfig's annotations;
# an optional field (int | None) is parsed as its non-None type
_FIELD_TYPES = {
    name: next((arg for arg in get_args(hint) if arg is not type(None)), hint)
    for name, hint in get_type_hints(RunConfig).items()
}


def parse_config(text: str) -> RunConfig:
    """Parse the key/value format; errors name the offending field or line."""
    data: dict[str, str] = {}
    schema = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if key == "schema":
            schema = value
            continue
        if key not in _FIELD_TYPES:
            raise ConfigParseError(f"line {lineno}: unknown field {key!r}")
        if key in data:
            raise ConfigParseError(f"line {lineno}: duplicate field {key!r}")
        data[key] = value
    if schema is None:
        raise ConfigParseError("missing required field 'schema'")
    if schema != SCHEMA:
        raise ConfigParseError(f"unsupported schema {schema!r}; this build reads {SCHEMA!r}")
    kwargs: dict = {}
    for key, value in data.items():
        try:
            kwargs[key] = _FIELD_TYPES[key](value)
        except ValueError:
            raise ConfigParseError(f"field {key!r}: cannot parse {value!r}")
    try:
        return RunConfig(**kwargs)
    except ConfigurationError as err:
        raise ConfigParseError(str(err)) from err


def emit_config(config: RunConfig) -> str:
    """Canonical text for a config; parse(emit(c)) == c and emit is stable.

    One line per field in declaration order; floats are written with repr so
    they round-trip exactly, and a field left at None is omitted.
    """
    lines = [
        "# svie run configuration",
        "# horizon in model time units; jump_rate in expected jumps per unit time",
        f"schema = {SCHEMA}",
    ]
    for field in fields(config):
        value = getattr(config, field.name)
        if value is not None:
            lines.append(f"{field.name} = {value!r}" if isinstance(value, float) else f"{field.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _config_echo(config: RunConfig) -> dict:
    # out_dir is a location, not an input of the run; leaving it out keeps
    # summaries byte-identical when only --out changes
    return {field.name: getattr(config, field.name) for field in fields(config) if field.name != "out_dir"}


def _build_model(config: RunConfig):
    coeffs = coefficient_catalogue(config.coefficient_set, config.jump_coefficient, config.jump_rate)
    linear_scale = float(coeffs.growth_constant)
    if config.modulus == "log":
        scale = scale_for_log_modulus(linear_scale, (2.0 * _AUDIT_X_BOUND) ** 2) if linear_scale > 0.0 else 0.0
    else:
        scale = linear_scale
    return coeffs, modulus_catalogue(config.modulus, scale)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _paths_csv(fh, times: np.ndarray, values: np.ndarray) -> None:
    """Write paths.csv to ``fh``: a ``path_id,t,x`` line per path and grid time, numbers as ``_fmt`` writes them.

    The grid times are formatted once, into line tails that each path's id joins into its template.
    """
    tails = ["", *(f",{_fmt(t)},%.17g\n" for t in times)]
    fh.write("path_id,t,x\n")
    fh.writelines(str(pid).join(tails) % tuple(vals.tolist()) for pid, vals in enumerate(values))


def _json_num(x) -> float | None:
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    """Simulate the configured ensemble; write paths.csv and summary.json."""
    grid = build_grid(config.horizon, config.steps)
    coeffs, _ = _build_model(config)
    ensemble = ensemble_simulate(coeffs, grid, config.paths, config.master_seed)
    with open(out_dir / "paths.csv", "w", encoding="utf-8") as fh:
        _paths_csv(fh, grid.points, ensemble.values)
    if ensemble.exploded.all():
        mean = second = second_se = None
    else:  # a moment past the largest double is written as null
        mean, second, second_se = ([_json_num(v) for v in a] for a in analysis._survivor_moments(ensemble))
    summary = {
        "schema": "svie-summary/1",
        "config": _config_echo(config),
        "n_paths": ensemble.n_paths,
        "exploded_paths": int(ensemble.exploded.sum()),
        "times": [float(t) for t in grid.points],
        "mean": mean,
        "second_moment": second,
        "second_moment_stderr": second_se,
    }
    _write_json(out_dir / "summary.json", summary)
    return 0


def cmd_picard(config: RunConfig, out_dir: Path) -> int:
    """Solve one fixed noise path by successive approximation; write picard.csv."""
    grid = build_grid(config.horizon, config.steps)
    coeffs, _ = _build_model(config)
    noise = sample_noise_path(grid, coeffs.measure, (config.master_seed, 0))
    run = picard_solve(coeffs, noise, config.picard_tolerance, config.picard_k_max)
    rows = ["k,sup_diff"]
    rows.extend(f"{k},{_fmt(d)}" for k, d in enumerate(run.sup_diffs, start=1))
    (out_dir / "picard.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    if not run.converged:
        print(
            f"picard: no convergence within {run.iterations} iterations "
            f"(last sup_diff {float(run.sup_diffs[-1])!r} > tolerance {config.picard_tolerance!r})",
            file=sys.stderr,
        )
        return 1
    print(f"picard: converged after {run.iterations} iterations")
    return 0


def cmd_verify(config: RunConfig, out_dir: Path) -> int:
    """Run the audit and inequality suite; write verification.json.

    Each check returns ``(value, bound, stderr, passed)`` and ``run_check``
    turns that into its ``{name, value, bound, stderr, pass}`` record, with
    non-finite numbers written as null.  A check that raises ``SvieError``
    is recorded with null numbers, ``pass: false`` and the message under
    ``error``.  No record's value feeds another check: the moment, gap and
    majorant envelopes read the model's analytic ``growth_constant``, the
    constant ``linear_growth`` audits.  The Doob, moment and gap records read
    one solved ensemble and its noise batch, so each lineage is drawn once.
    ``doob_brownian`` and ``doob_jump`` check Doob's inequality on the
    solution's own stochastic integrals at T = t_n
    (``analysis.solution_martingales``): sum g(T, t_j, x_j) dW_j, and the
    jumps h(T, tau, x, xi) less the compensator the solver subtracted.  The
    second is an exact discrete martingale when h does not depend on s, as
    in every catalogue model, and otherwise carries the scheme's O(dt)
    drift.  An ensemble that overflows fails both records.
    An overflowing gap envelope bounds nothing: both of its records fail.
    """
    grid = build_grid(config.horizon, config.steps)
    coeffs, modulus = _build_model(config)
    horizon = config.horizon
    seed = config.master_seed
    checks: list[dict] = []

    def run_check(name, fn) -> None:
        try:
            value, bound, stderr, passed = fn()
            record = {"value": _json_num(value), "bound": _json_num(bound), "stderr": _json_num(stderr), "pass": passed}
        except SvieError as err:
            record = {"value": None, "bound": None, "stderr": None, "pass": False, "error": str(err)}
        checks.append({"name": name, **record})

    def check_linear_growth():
        audit = audit_linear_growth(coeffs, domain_sampler(horizon, _AUDIT_X_BOUND, seed), _AUDIT_SAMPLES)
        return audit.estimated_constant, audit.supplied_constant, None, audit.passed

    def check_modulus():
        audit = audit_modulus(coeffs, modulus, pair_sampler(horizon, _AUDIT_X_BOUND, seed + 1), _AUDIT_SAMPLES)
        return audit.worst_slack, AUDIT_SLACK, None, audit.passed

    # one solve for the Doob records, moment_envelope and picard_gap; a solve
    # that raised is not cached, so each of them raises it again
    ensemble = functools.cache(lambda: ensemble_simulate(coeffs, grid, config.paths, seed))
    martingales = functools.cache(lambda: analysis.solution_martingales(coeffs, ensemble()))

    def doob(ens):
        rep = analysis.doob_check(ens.sup_sq, ens.terminal_sq)
        return rep.lhs, rep.bound, rep.se_lhs, rep.passed

    def check_doob_brownian():
        return doob(martingales()[0])

    def check_doob_jump():
        return doob(martingales()[1])

    def check_moment_envelope():
        rep = analysis.moment_check(ensemble(), coeffs)
        return np.max(rep.estimates - 4.0 * rep.stderrs), rep.bound, np.max(rep.stderrs), rep.all_pass

    def check_picard_gap():
        rep = analysis.picard_gap(coeffs, ensemble().noise, 1, 1, modulus)
        passed = rep.all_pass and math.isfinite(rep.envelope_slope)
        return np.max(rep.estimates), rep.envelope_slope * grid.horizon, np.max(rep.stderrs), passed

    def check_majorant():
        c3 = analysis.gap_envelope_slope(coeffs, modulus, horizon)
        if not math.isfinite(c3):
            # envelope overflowed: the chain cannot be computed and bounds nothing
            return None, None, None, False
        seq = analysis.majorant_recursion(c3, modulus, min(horizon, 1.0), config.steps, 30)
        return seq.final_value, seq.curves[0, -1], None, True

    run_check("linear_growth", check_linear_growth)
    run_check("modulus", check_modulus)
    run_check("doob_brownian", check_doob_brownian)
    run_check("doob_jump", check_doob_jump)
    run_check("moment_envelope", check_moment_envelope)
    run_check("picard_gap", check_picard_gap)
    run_check("majorant_chain", check_majorant)

    all_pass = all(c["pass"] for c in checks)
    _write_json(
        out_dir / "verification.json",
        {"schema": "svie-verification/1", "config": _config_echo(config), "checks": checks, "all_pass": all_pass},
    )
    for c in checks:
        print(f"{c['name']}: {'pass' if c['pass'] else 'FAIL'}")
    if not all_pass:
        failing = ", ".join(c["name"] for c in checks if not c["pass"])
        print(f"verification failed: {failing}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svie", description="jump-diffusion Volterra simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "simulate an ensemble of paths"),
        ("picard", "solve one noise path by successive approximation"),
        ("verify", "run the audit and inequality suite"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=str, default=None, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", type=str, default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=1, help="kept for compatibility; must be at least 1, has no effect")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        _check_int("--threads", args.threads, 1)
        out_dir = Path(args.out) if args.out else Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(config, out_dir)
        if args.command == "picard":
            return cmd_picard(config, out_dir)
        return cmd_verify(config, out_dir)
    except ConfigParseError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SvieError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
