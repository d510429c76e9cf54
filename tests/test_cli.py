"""Config round-tripping, artifact layout, and exit codes of the CLI."""

import io
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import PurePosixPath

import numpy as np
import pytest

from svie import analysis, cli, grid_noise, solver
from svie.analysis import uniform_moment_bound
from svie.cli import RunConfig, _build_model, emit_config, load_config, main, parse_config
from svie.coefficients import COEFFICIENT_SETS, MODULI, CoefficientSet
from svie.errors import ConfigParseError, ConfigurationError, NumericalError
from svie.grid_noise import LevyMeasure, build_grid

CUSTOM = RunConfig(
    coefficient_set="linear_test",
    modulus="log",
    horizon=0.25,
    steps=16,
    paths=8,
    master_seed=42,
    jump_coefficient=0.05,
    jump_rate=1.5,
    picard_tolerance=1e-9,
    picard_k_max=17,
    out_dir="results",
)


def write_config(tmp_path, config, name="run.cfg"):
    path = tmp_path / name
    path.write_text(emit_config(config), encoding="utf-8")
    return str(path)


# --- config format ------------------------------------------------------------


def test_config_round_trips_through_text():
    # integral floats are stored as ints, so their text parses back
    for config in (RunConfig(), CUSTOM, RunConfig(steps=8.0), RunConfig(master_seed=3.0)):
        assert parse_config(emit_config(config)) == config


@pytest.mark.parametrize(
    "out_dir, message",
    [(bad, "out_dir must hold no '#'") for bad in ("out#1", "a\nb", "a\rb", "a\u2028b", " out", "out\t", "out\n")]
    + [(PurePosixPath("out"), "out_dir must be a non-empty path string, got PurePosixPath('out')")],
)
def test_an_out_dir_the_config_text_cannot_hold_is_rejected(out_dir, message):
    with pytest.raises(ConfigurationError) as info:
        RunConfig(out_dir=out_dir)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("out_dir", ["out", "runs/a b", "./x=1", "C:\\runs", "ünïcode"])
def test_an_out_dir_round_trips_through_text(out_dir):
    config = RunConfig(out_dir=out_dir)
    assert parse_config(emit_config(config)) == config


def test_emitted_text_is_canonical():
    text = emit_config(CUSTOM)
    assert emit_config(parse_config(text)) == text


HEADER = (
    "# svie run configuration\n"
    "# horizon in model time units; jump_rate in expected jumps per unit time\n"
    "schema = svie-run/1\n"
)


@pytest.mark.parametrize(
    "config,body",
    [
        (
            RunConfig(),
            "coefficient_set = example\nmodulus = linear\nhorizon = 0.5\nsteps = 128\npaths = 1000\n"
            "master_seed = 1\njump_coefficient = 0.1\njump_rate = 2.0\npicard_tolerance = 1e-10\nout_dir = out\n",
        ),
        (
            CUSTOM,
            "coefficient_set = linear_test\nmodulus = log\nhorizon = 0.25\nsteps = 16\npaths = 8\n"
            "master_seed = 42\njump_coefficient = 0.05\njump_rate = 1.5\npicard_tolerance = 1e-09\n"
            "picard_k_max = 17\nout_dir = results\n",
        ),
    ],
)
def test_emitted_text_is_pinned(config, body):
    assert emit_config(config) == HEADER + body


def test_parse_accepts_comments_blanks_and_spacing():
    config = parse_config(
        "\n# leading comment\nschema = svie-run/1\n\n"
        "steps=64   # trailing comment\n   horizon =  2.0\n"
    )
    assert config.steps == 64
    assert config.horizon == 2.0
    assert config.coefficient_set == "example"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("steps = 4\n", "schema"),
        ("schema = svie-run/2\n", "schema"),
        ("schema = svie-run/1\nwave_speed = 3\n", "wave_speed"),
        ("schema = svie-run/1\nsteps = 4\nsteps = 8\n", "duplicate"),
        ("schema = svie-run/1\nsteps four\n", "key = value"),
        ("schema = svie-run/1\nsteps = four\n", "steps"),
        ("schema = svie-run/1\nhorizon = fast\n", "horizon"),
        ("schema = svie-run/1\nsteps = 0\n", "steps"),
        ("schema = svie-run/1\nmodulus = cubic\n", "modulus"),
        ("schema = svie-run/1\npicard_k_max = 2.5\n", "picard_k_max"),
        ("schema = svie-run/1\nsteps = 1e3\n", "steps"),
        ("schema = svie-run/1\nout_dir =\n", "out_dir must be a non-empty path"),
    ],
)
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ConfigParseError) as info:
        parse_config(text)
    assert fragment in str(info.value)


CATALOGUE = [
    (name, modulus)
    for name in ("example", "deterministic_ode", "linear_test", "zero")
    for modulus in ("linear", "log", "quadratic")
]


@pytest.mark.parametrize("name,modulus", CATALOGUE)
def test_every_catalogue_name_configures_and_builds(name, modulus):
    coeffs, built = _build_model(RunConfig(coefficient_set=name, modulus=modulus))
    assert coeffs.name == name
    assert built.name == modulus


def test_catalogue_names_come_from_the_registry():
    assert {name for name, _ in CATALOGUE} == set(COEFFICIENT_SETS)
    assert {modulus for _, modulus in CATALOGUE} == set(MODULI)
    for field, names in (("coefficient_set", COEFFICIENT_SETS), ("modulus", MODULI)):
        with pytest.raises(ConfigParseError) as info:
            parse_config(f"schema = svie-run/1\n{field} = nothing\n")
        assert all(name in str(info.value) for name in names)


def test_load_config_reads_files(tmp_path):
    path = write_config(tmp_path, CUSTOM)
    assert load_config(path) == CUSTOM


def test_float_fields_round_trip_losslessly():
    config = replace(RunConfig(), horizon=0.1 + 0.2, picard_tolerance=1.0 / 3.0)
    parsed = parse_config(emit_config(config))
    assert parsed.horizon == config.horizon
    assert parsed.picard_tolerance == config.picard_tolerance


# --- simulate ----------------------------------------------------------------


def simulate_config(**overrides):
    base = dict(
        coefficient_set="example",
        modulus="linear",
        horizon=0.25,
        steps=16,
        paths=6,
        master_seed=9,
        jump_coefficient=0.1,
        jump_rate=2.0,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_simulate_writes_csv_and_summary(tmp_path):
    cfg_path = write_config(tmp_path, simulate_config())
    out = tmp_path / "runout"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,t,x"
    assert len(lines) == 1 + 6 * 17
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == "svie-summary/1"
    assert summary["n_paths"] == 6 and summary["exploded_paths"] == 0
    assert list(summary["config"]) == [
        "coefficient_set",
        "modulus",
        "horizon",
        "steps",
        "paths",
        "master_seed",
        "jump_coefficient",
        "jump_rate",
        "picard_tolerance",
        "picard_k_max",
    ]
    assert len(summary["times"]) == 17
    assert summary["second_moment"][0] == 1.0


def test_simulate_outputs_do_not_depend_on_out_dir_or_threads(tmp_path):
    cfg_path = write_config(tmp_path, simulate_config())
    a, b = tmp_path / "a", tmp_path / "deeply" / "nested" / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(b), "--threads", "8"]) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_paths_csv_formats_every_number_as_the_per_value_formatter_does():
    times = build_grid(0.5, 12).points
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], size=(4, 13)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(4, 13))
    values[1] = np.nan  # an exploded path
    values[2, 3], values[2, 4], values[3, 0] = -0.0, 0.0, 1e5
    lines = ["path_id,t,x"]
    for pid, row in enumerate(values):
        lines.extend(f"{pid},{format(float(t), '.17g')},{format(float(x), '.17g')}" for t, x in zip(times, row))
    buffer = io.StringIO()
    cli._paths_csv(buffer, times, values)
    text = buffer.getvalue()
    assert text == "\n".join(lines) + "\n"
    assert "\n1,0.5,nan\n" in text and "\n2,0.125,-0\n" in text


def whole_paths_csv(times, values):
    """The paths.csv text as one string, formatted as before the file was written path by path."""
    lines = "".join(f"{{0}},{format(float(t), '.17g')},%.17g\n" for t in times)
    return "path_id,t,x\n" + "".join(lines.format(pid) % tuple(vals.tolist()) for pid, vals in enumerate(values))


def test_streamed_paths_csv_has_the_bytes_of_the_whole_text(tmp_path, monkeypatch):
    def check(config):
        out = tmp_path / f"{config.paths}"
        assert main(["simulate", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        grid = build_grid(config.horizon, config.steps)
        ensemble = solver.ensemble_simulate(_build_model(config)[0], grid, config.paths, config.master_seed)
        assert (out / "paths.csv").read_bytes() == whole_paths_csv(grid.points, ensemble.values).encode("utf-8")
        return ensemble

    assert check(simulate_config(paths=1)).n_paths == 1
    # phi(0) = 1.7e308 overflows where the first increments are large
    # enough: a batch with exploded paths among finite ones
    surging = CoefficientSet(
        drift=lambda t, s, x: 0.0 * (t + x),
        diffusion=lambda t, s, x: 1e308 + 0.0 * (t + x),
        jump=None,
        initial=lambda t: np.full(np.shape(t), 1.7e308),
        measure=LevyMeasure.empty(),
        growth_constant=0.0,
        name="surging",
    )
    monkeypatch.setattr(cli, "coefficient_catalogue", lambda *args: surging)
    assert 0 < check(simulate_config(horizon=1.0, steps=4, paths=8)).exploded.sum() < 8


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("jump_coefficient", [1000.0, 1e10], ids=["spread-overflows", "square-overflows"])
def test_simulate_writes_non_finite_moments_as_null(tmp_path, jump_coefficient):
    # paths stay finite but the spread of their squares, or the squares
    # themselves, overflow double precision
    cfg_path = write_config(tmp_path, RunConfig(jump_coefficient=jump_coefficient, paths=200, steps=32))
    out = tmp_path / "runout"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["exploded_paths"] == 0
    assert None in summary["second_moment_stderr"]


def test_simulate_writes_null_moments_when_every_path_explodes(tmp_path, monkeypatch):
    # phi(0) + f dt = 1.7e308 + 0.25e308 is past the largest double
    exploding = CoefficientSet(
        drift=lambda t, s, x: 1e308 + 0.0 * (t + x),
        diffusion=lambda t, s, x: 0.0 * (t + x),
        jump=None,
        initial=lambda t: np.full(np.shape(t), 1.7e308),
        measure=LevyMeasure.empty(),
        growth_constant=0.0,
        name="exploding",
    )
    monkeypatch.setattr(cli, "coefficient_catalogue", lambda *args: exploding)
    cfg_path = write_config(tmp_path, simulate_config(horizon=1.0, steps=4, paths=3))
    out = tmp_path / "runout"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["n_paths"] == summary["exploded_paths"] == 3
    assert summary["mean"] is summary["second_moment"] is summary["second_moment_stderr"] is None


# On this model 167 of 200 paths explode and the survivors' squares overflow
# in 17 of the 33 columns: moments of a partly exploded ensemble, some of
# them past the largest double
PARTLY_EXPLODING = RunConfig(steps=32, paths=200, jump_coefficient=1e9, jump_rate=40.0)


def survivor_reference(ensemble):
    """Mean, second moment and its stderr per grid time, from one copy of the survivors, as lists for JSON."""
    survivors = ensemble.survivors
    with np.errstate(over="ignore", invalid="ignore"):
        moments = (np.mean(survivors, axis=0), *analysis.mean_stderr(survivors * survivors))
    return [[cli._json_num(v) for v in column] for column in moments]


def test_simulate_on_a_partly_exploding_ensemble_writes_null_where_a_moment_overflows(tmp_path):
    out = tmp_path / "runout"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", write_config(tmp_path, PARTLY_EXPLODING), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["exploded_paths"] == 167
    assert sum(v is None for v in summary["second_moment"]) == 17
    grid = build_grid(PARTLY_EXPLODING.horizon, PARTLY_EXPLODING.steps)
    ensemble = solver.ensemble_simulate(_build_model(PARTLY_EXPLODING)[0], grid, 200, PARTLY_EXPLODING.master_seed)
    mean, second, second_se = survivor_reference(ensemble)
    assert (summary["mean"], summary["second_moment"], summary["second_moment_stderr"]) == (mean, second, second_se)


def test_verify_on_a_partly_exploding_ensemble_writes_every_record_without_a_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_name = verify_checks(tmp_path, PARTLY_EXPLODING, 2)
    assert list(by_name) == CHECK_NAMES
    moment_record = {"name": "moment_envelope", "value": None, "bound": None, "stderr": None, "pass": False}
    assert by_name["moment_envelope"] == moment_record
    for name in ("doob_brownian", "doob_jump"):
        assert by_name[name]["error"] == "ensemble contains non-finite values"
    # the gap from the two whole iterates, squared and maximised in copies
    coeffs, _ = _build_model(PARTLY_EXPLODING)
    noise = solver.ensemble_simulate(coeffs, build_grid(0.5, 32), 200, PARTLY_EXPLODING.master_seed).noise
    (lower, _), (upper, explosion) = itertools.islice(solver._iterates(coeffs, noise), 1, 3)
    assert np.all(explosion < 0)
    estimates, stderrs = analysis.mean_stderr(np.maximum.accumulate((upper - lower) ** 2, axis=1))
    gap = by_name["picard_gap"]
    assert (gap["value"], gap["stderr"], gap["pass"]) == (float(np.max(estimates)), float(np.max(stderrs)), False)


def test_simulate_moments_hold_a_fraction_of_a_solution_block(tmp_path, monkeypatch):
    # peak traced memory past the solve, in blocks of paths x (n + 1) doubles;
    # from one copy of the survivors it was 3.0 blocks
    config = RunConfig(steps=128, paths=4000)
    ensemble = solver.ensemble_simulate(_build_model(config)[0], build_grid(0.5, 128), 4000, config.master_seed)
    monkeypatch.setattr(cli, "ensemble_simulate", lambda *args: ensemble)
    monkeypatch.setattr(cli, "_paths_csv", lambda fh, times, values: None)
    tracemalloc.start()
    try:
        assert cli.cmd_simulate(config, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * ensemble.values.nbytes


def test_simulate_frees_the_noise_batch_before_the_moments_and_paths_csv(tmp_path, monkeypatch):
    brownian = []

    def solve(*args):
        ensemble = solver.ensemble_simulate(*args)
        brownian.append(weakref.ref(ensemble.noise.brownian))
        return ensemble

    freed = []
    write, moments = cli._paths_csv, cli._survivor_moments

    def paths_csv(fh, times, values):
        freed.append(("paths.csv", brownian[0]() is None))
        write(fh, times, values)

    def survivor_moments(values, exploded):
        freed.append(("moments", brownian[0]() is None))
        return moments(values, exploded)

    monkeypatch.setattr(cli, "ensemble_simulate", solve)
    monkeypatch.setattr(cli, "_paths_csv", paths_csv)
    monkeypatch.setattr(cli, "_survivor_moments", survivor_moments)
    assert cli.cmd_simulate(RunConfig(steps=16, paths=20), tmp_path) == 0
    assert freed == [("moments", True), ("paths.csv", True)]
    assert (tmp_path / "summary.json").is_file()


def test_simulate_seed_override_changes_paths(tmp_path):
    cfg_path = write_config(tmp_path, simulate_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(b), "--seed", "10"]) == 0
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()
    echoed = json.loads((b / "summary.json").read_text())["config"]["master_seed"]
    assert echoed == 10


# --- picard ------------------------------------------------------------------


def test_picard_converges_and_logs_sup_diffs(tmp_path, capsys):
    cfg_path = write_config(tmp_path, simulate_config(picard_tolerance=0.0))
    out = tmp_path / "p"
    assert main(["picard", "--config", cfg_path, "--out", str(out)]) == 0
    lines = (out / "picard.csv").read_text().splitlines()
    assert lines[0] == "k,sup_diff"
    ks = [int(row.split(",")[0]) for row in lines[1:]]
    assert ks == list(range(1, len(ks) + 1))
    assert float(lines[-1].split(",")[1]) == 0.0
    assert "converged" in capsys.readouterr().out


def test_picard_zero_coefficients_single_row(tmp_path):
    cfg_path = write_config(tmp_path, simulate_config(coefficient_set="zero"))
    out = tmp_path / "p0"
    assert main(["picard", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "picard.csv").read_text() == "k,sup_diff\n1,0\n"


def test_picard_nonconvergence_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, simulate_config(picard_tolerance=0.0, picard_k_max=1))
    out = tmp_path / "p1"
    assert main(["picard", "--config", cfg_path, "--out", str(out)]) == 1
    last = float((out / "picard.csv").read_text().splitlines()[-1].split(",")[1])
    assert last > 0.0
    # the plain float, not numpy's np.float64(...) repr
    assert capsys.readouterr().err == (
        f"picard: no convergence within 1 iterations (last sup_diff {last!r} > tolerance 0.0)\n"
    )


# --- verify ------------------------------------------------------------------

CHECK_NAMES = [
    "linear_growth",
    "modulus",
    "doob_brownian",
    "doob_jump",
    "moment_envelope",
    "picard_gap",
    "majorant_chain",
]


def test_verify_passes_and_reports_each_check(tmp_path, capsys):
    cfg_path = write_config(tmp_path, simulate_config(paths=12))
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["schema"] == "svie-verification/1"
    assert [c["name"] for c in report["checks"]] == CHECK_NAMES
    for check in report["checks"]:
        assert check["pass"] is True
        assert {"value", "bound", "stderr"} <= set(check)
    assert report["all_pass"] is True
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == CHECK_NAMES


def verify_checks(tmp_path, config, exit_code):
    """Run ``svie verify`` on config and return its records by check name."""
    out = tmp_path / "verify"
    assert main(["verify", "--config", write_config(tmp_path, config), "--out", str(out)]) == exit_code
    return {c["name"]: c for c in json.loads((out / "verification.json").read_text())["checks"]}


def test_verify_records_a_raising_check_and_falls_back_to_the_analytic_constant(tmp_path, monkeypatch):
    def broken_audit(*args, **kwargs):
        raise NumericalError("audit broke")

    monkeypatch.setattr(cli, "audit_linear_growth", broken_audit)
    config = simulate_config(paths=6)
    by_name = verify_checks(tmp_path, config, 2)
    growth = by_name["linear_growth"]
    assert list(growth) == ["name", "value", "bound", "stderr", "pass", "error"]
    assert growth == {
        "name": "linear_growth",
        "value": None,
        "bound": None,
        "stderr": None,
        "pass": False,
        "error": "audit broke",
    }
    coeffs, _ = _build_model(config)
    assert by_name["moment_envelope"]["bound"] == uniform_moment_bound(coeffs.growth_constant, config.horizon, 1.0)
    assert isinstance(by_name["majorant_chain"]["value"], float)


def test_verify_majorant_runs_when_picard_gap_raises(tmp_path, monkeypatch):
    # the moment and gap checks share one solve, so its error is on both
    # records; the chain computes its own slope, so it does not become a silent pass
    def broken_sampler(*args, **kwargs):
        raise NumericalError("sampler broke")

    monkeypatch.setattr(solver, "sample_noise_ensemble", broken_sampler)
    by_name = verify_checks(tmp_path, simulate_config(paths=4), 2)
    assert by_name["moment_envelope"]["error"] == "sampler broke"
    assert by_name["picard_gap"]["error"] == "sampler broke"
    assert isinstance(by_name["majorant_chain"]["value"], float)
    assert isinstance(by_name["majorant_chain"]["bound"], float)


def test_verify_draws_each_lineage_once(tmp_path, monkeypatch):
    # the moment ensemble and the Picard gap read one noise batch; every
    # lineage, alone or in a batch, is drawn by grid_noise._draw
    drawn = []
    draw = grid_noise._draw

    def counted(rng, grid, measure, seed, idx, row):
        drawn.append((seed, idx))
        return draw(rng, grid, measure, seed, idx, row)

    monkeypatch.setattr(grid_noise, "_draw", counted)
    config = simulate_config(paths=6)
    verify_checks(tmp_path, config, 0)
    assert drawn == [(config.master_seed, idx) for idx in range(config.paths)]


def test_verify_fails_the_gap_and_the_chain_when_the_gap_envelope_overflows(tmp_path):
    # the slope c3 is inf here, and an infinite envelope bounds nothing
    config = RunConfig(jump_coefficient=1e10, paths=50, steps=16)
    coeffs, modulus = _build_model(config)
    assert analysis.gap_envelope_slope(coeffs, modulus, config.horizon) == math.inf
    by_name = verify_checks(tmp_path, config, 2)
    assert by_name["picard_gap"]["bound"] is None and by_name["picard_gap"]["pass"] is False
    assert by_name["majorant_chain"] == {
        "name": "majorant_chain",
        "value": None,
        "bound": None,
        "stderr": None,
        "pass": False,
    }


def test_verify_majorant_and_gap_bounds_share_one_slope(tmp_path):
    # on a horizon <= 1 both bounds are c3 * horizon
    config = simulate_config(paths=4)
    assert config.horizon <= 1.0
    by_name = verify_checks(tmp_path, config, 0)
    gap_bound = by_name["picard_gap"]["bound"]
    assert isinstance(gap_bound, float)
    assert by_name["majorant_chain"]["bound"] == pytest.approx(gap_bound, rel=1e-12)


def test_verify_names_a_picard_gap_that_overflows(tmp_path):
    # iterates 1 and 2 stay finite (about 1e152 and 1e303), their squared gap does not
    config = simulate_config(horizon=0.5, steps=16, paths=10, master_seed=1, jump_coefficient=1e150, jump_rate=40.0)
    gap = verify_checks(tmp_path, config, 2)["picard_gap"]
    assert gap["pass"] is False and gap["value"] is None
    message, _, t_bad = gap["error"].rpartition(" ")
    assert message == "squared gap between Picard iterates 1 and 2 overflows at t ="
    assert float(t_bad) in build_grid(config.horizon, config.steps).points


def test_verify_writes_an_overflowing_moment_envelope_as_a_failure_without_a_warning(tmp_path):
    # 4 C max(T,1)^2 is about 2e24, past exp's range: the bound is inf, the
    # squared paths overflow too, and the record fails with null numbers
    config = RunConfig(jump_coefficient=1e10, paths=50, steps=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moment = verify_checks(tmp_path, config, 2)["moment_envelope"]
    assert moment == {"name": "moment_envelope", "value": None, "bound": None, "stderr": None, "pass": False}



def test_verify_fails_both_doob_records_when_the_solved_ensemble_overflows(tmp_path):
    # the Doob records read the solve: the spread of N's squares overflows,
    # so its bound is inf and bounds nothing, and M's squares overflow
    config = RunConfig(jump_coefficient=1e10, paths=50, steps=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_name = verify_checks(tmp_path, config, 2)
    brownian = by_name["doob_brownian"]
    assert brownian["pass"] is False and isinstance(brownian["value"], float) and brownian["bound"] is None
    assert by_name["doob_jump"] == {
        "name": "doob_jump",
        "value": None,
        "bound": None,
        "stderr": None,
        "pass": False,
        "error": "ensemble contains non-finite values",
    }


def test_verify_fails_the_doob_records_when_every_path_explodes(tmp_path, monkeypatch):
    # phi(0) + f dt = 1.7e308 (1 + 0.25 / 4) is past the largest double; the
    # audits sample states up to 10 and overflow nothing
    exploding = CoefficientSet(
        drift=lambda t, s, x: 0.25 * x,
        diffusion=lambda t, s, x: 0.0 * (t + x),
        jump=None,
        initial=lambda t: np.full(np.shape(t), 1.7e308),
        measure=LevyMeasure.empty(),
        growth_constant=0.25,
        name="exploding",
    )
    monkeypatch.setattr(cli, "coefficient_catalogue", lambda *args: exploding)
    by_name = verify_checks(tmp_path, simulate_config(horizon=1.0, steps=4, paths=3), 2)
    for name in ("doob_brownian", "doob_jump"):
        assert by_name[name]["pass"] is False
        assert by_name[name]["error"] == "every path exploded; no surviving paths to form the solution martingales"


def test_verify_fails_the_growth_audit_whose_squares_overflow_without_a_warning(tmp_path, monkeypatch):
    # the model of test_simulate_writes_null_moments_when_every_path_explodes:
    # the audit squares a drift of 1e308, past the largest double
    exploding = CoefficientSet(
        drift=lambda t, s, x: 1e308 + 0.0 * (t + x),
        diffusion=lambda t, s, x: 0.0 * (t + x),
        jump=None,
        initial=lambda t: np.full(np.shape(t), 1.7e308),
        measure=LevyMeasure.empty(),
        growth_constant=0.0,
        name="exploding",
    )
    monkeypatch.setattr(cli, "coefficient_catalogue", lambda *args: exploding)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        by_name = verify_checks(tmp_path, simulate_config(horizon=1.0, steps=4, paths=3), 2)
    assert list(by_name) == CHECK_NAMES
    assert by_name["linear_growth"]["pass"] is False and "error" not in by_name["linear_growth"]


def test_verify_on_an_overflowing_picard_gap_raises_no_warning(tmp_path):
    # the same run as above, with every warning an error: nothing may warn,
    # and the records must be those of the unfiltered run
    config = simulate_config(horizon=0.5, steps=16, paths=10, master_seed=1, jump_coefficient=1e150, jump_rate=40.0)
    strict = tmp_path / "strict"
    strict.mkdir()
    verify_checks(tmp_path, config, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_checks(strict, config, 2)
    report = "verify/verification.json"
    assert (strict / report).read_bytes() == (tmp_path / report).read_bytes()


@pytest.mark.parametrize(
    "overrides",
    [{"coefficient_set": "zero"}, {"coefficient_set": "deterministic_ode"}, {"jump_rate": 0.0}],
    ids=["zero", "deterministic_ode", "example-without-jumps"],
)
def test_verify_passes_on_a_model_without_jumps(tmp_path, overrides):
    config = simulate_config(steps=16, paths=20, **overrides)
    by_name = verify_checks(tmp_path, config, 0)
    assert list(by_name) == CHECK_NAMES
    assert all(check["pass"] is True for check in by_name.values())
    # no jump kernel: the compensated jump martingale is zero, and so is its bound
    assert (by_name["doob_jump"]["value"], by_name["doob_jump"]["bound"]) == (0.0, 0.0)
    again = tmp_path / "again"
    again.mkdir()
    verify_checks(again, config, 0)
    report = "verify/verification.json"
    assert (again / report).read_bytes() == (tmp_path / report).read_bytes()


def test_verify_fails_on_convex_modulus(tmp_path, capsys):
    cfg_path = write_config(tmp_path, simulate_config(paths=4, modulus="quadratic"))
    out = tmp_path / "vq"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "modulus" in err
    report = json.loads((out / "verification.json").read_text())
    assert report["all_pass"] is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["modulus"]["pass"] is False


# --- top-level behaviour --------------------------------------------------------


def test_unreadable_config_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema = svie-run/1\nsteps = few\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "steps" in capsys.readouterr().err


def test_bad_thread_count_exits_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path, simulate_config())
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x"), "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


def test_a_mean_jump_count_numpy_cannot_draw_exits_two_with_one_error_line(tmp_path, capsys):
    # rate 2 times horizon 1e19 is above numpy's largest Poisson mean; the check fires before any draw
    cfg_path = write_config(tmp_path, simulate_config(horizon=1e19))
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: jump rate 2.0 times horizon 1e+19 is a mean jump count above 9.223372006484771e+18, "
        "the largest Poisson mean numpy draws\n"
    )
    assert captured.out == ""


def test_module_entry_point_runs(tmp_path, child_env):
    cfg_path = write_config(tmp_path, simulate_config(paths=2, steps=4))
    proc = subprocess.run(
        [sys.executable, "-m", "svie", "simulate", "--config", cfg_path, "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "m" / "summary.json").exists()
