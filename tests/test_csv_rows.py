"""paths.csv rows formatted by array arithmetic: every number byte for byte as ``'%.17g'`` writes it."""

import io
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from svie import _csv_rows, cli, solver
from svie.cli import RunConfig, _build_model
from svie.grid_noise import build_grid


def formatted(values) -> list[bytes]:
    """Each value as the block formatter writes it, padding removed."""
    values = np.asarray(values, dtype=np.float64)
    out = np.full((len(values), 25), 32, np.uint8)
    out[:, -1] = 10
    _csv_rows._format(values, _csv_rows._in_fast_range(values), out[:, :24])
    return out.tobytes().translate(None, b" ").split(b"\n")[:-1]


def mismatches(values) -> list[tuple[float, bytes, bytes]]:
    values = np.asarray(values, dtype=np.float64)
    want = [b"%.17g" % v for v in values.tolist()]
    return [(v, w, g) for v, w, g in zip(values.tolist(), want, formatted(values)) if w != g]


def test_a_million_random_bit_patterns_format_as_percent_17g():
    # every double is as likely as any other: nan, inf, subnormals and the exponent form are most of
    # them, so a second million is drawn over the fast range's decades
    rng = np.random.default_rng(2024)
    for _ in range(4):
        assert mismatches(rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(np.float64)) == []
        decades = rng.choice([-1.0, 1.0], size=250_000) * 10.0 ** rng.uniform(-4.5, 16.5, size=250_000)
        assert mismatches(decades) == []


def eighteen_digit_ties(count: int) -> list[float]:
    """Doubles m / 2**p whose exact decimal has 18 significant digits, the last a 5: ties at 17 digits."""
    rng = np.random.default_rng(7)
    ties = []
    while len(ties) < count:
        x = math.ldexp(float(rng.integers(1, 2**53)), -int(rng.integers(1, 60)))
        digits = Decimal(x).as_tuple().digits
        if 1e-4 <= x < 1e16 and len(digits) == 18:
            ties.append(x)
    return ties


def test_ties_at_the_eighteenth_digit_round_half_to_even():
    # 1 + 2**-17 = 1.00000762939453125 rounds down to the even ...312
    assert formatted([1 + 2**-17, -(1 + 2**-17)]) == [b"1.0000076293945312", b"-1.0000076293945312"]
    ties = eighteen_digit_ties(2000)
    assert mismatches(ties) == []
    # both directions of the tie are exercised
    seventeenth = [Decimal(x).as_tuple().digits[16] for x in ties]
    assert any(d % 2 == 0 for d in seventeenth) and any(d % 2 == 1 for d in seventeenth)


def near_powers_of_ten() -> list[float]:
    near = []
    for exponent in range(-5, 18):
        power = float(f"1e{exponent}")
        below = above = power
        for _ in range(40):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            near += [below, above]
        near.append(power)
    return near + [-x for x in near]


def test_both_sides_of_every_power_of_ten():
    assert mismatches(near_powers_of_ten()) == []


def test_a_double_below_a_power_of_ten_that_rounds_up_to_it():
    # the nearest double to 10**e is below it for these e, and 17 digits round it up into the
    # next decade; none is in the fast range, whose exponents all round within their decade
    carries = [float(Decimal(10) ** e) for e in range(-320, 309)]
    carries = [x for x in carries if Decimal(x) < Decimal(10) ** round(math.log10(x))]
    assert {b"1e-14", b"1e+98"} <= {b"%.17g" % x for x in carries}
    assert mismatches(carries + [-x for x in carries]) == []


@pytest.mark.parametrize("error", [-1e-9, 1e-9], ids=["log10-low", "log10-high"])
def test_a_log10_off_by_a_decade_is_corrected(monkeypatch, error):
    # a log10 that lands on the wrong side of an integer starts from the wrong decade: low, the
    # significand comes out at or above 10**17; high, below 10**16
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + error)
    rng = np.random.default_rng(11)
    assert mismatches(near_powers_of_ten() + (10.0 ** rng.uniform(-4.0, 16.0, 10_000)).tolist()) == []


SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
SPECIAL += [2.225073858507201e-308, 1e300, -1e300, 1.7976931348623157e308, 1e16, 1e17, 9.999999999999999e-5]
ROUND = [0.5, -0.25, 1.5, 100.0, 1234.5, 0.001, 0.1, 1e-4, -1e-4, 0.3, 2.0**52, 2.0**53 + 2, 1e15, 123456.789]


@pytest.mark.parametrize("values", [SPECIAL, ROUND], ids=["special", "round-decimals"])
def test_special_values_and_rounded_decimals_with_trailing_zeros(values):
    assert mismatches(values) == []
    assert mismatches([-v for v in values]) == []


def test_every_decade_of_the_fast_range_with_and_without_trailing_zeros():
    values = [m * 10.0**e for e in range(-4, 16) for m in (1.0, 1.5, 1.25, 3.0000000000000004, 9.87654321)]
    assert mismatches(values + [-v for v in values]) == []


def test_a_block_of_special_values_among_fast_ones():
    values = np.linspace(-3.0, 3.0, 300)
    values[::7] = np.nan
    values[1::11] = 0.0
    values[2::13] = 1e-310
    assert mismatches(values) == []


def test_every_block_size_and_id_width_writes_the_per_value_text():
    rng = np.random.default_rng(3)
    times = build_grid(0.5, 8).points
    for paths in (1, 15, 16, 17, 33, 101):
        values = rng.normal(size=(paths, 9))
        values[paths // 2] = np.nan
        buffer = io.StringIO()
        _csv_rows.write_rows(buffer, times, values)
        rows = zip(range(paths), values.tolist())
        want = "".join(f"{p},{t:.17g},{x:.17g}\n" for p, row in rows for t, x in zip(times.tolist(), row))
        assert buffer.getvalue() == want


@pytest.mark.parametrize("in_range", [0, 4, 5, 6, 10], ids=lambda n: f"{n}-of-10-in-range")
def test_blocks_mostly_out_of_the_fast_range_write_the_per_value_text(in_range):
    # fewer than half the values in range: a line template per path; at least half: the array pass
    rng = np.random.default_rng(4)
    times = build_grid(0.5, 9).points
    values = rng.normal(size=(20, 10))
    values[:, in_range:] = rng.choice([0.0, -0.0, math.nan, math.inf, 1e20, -3e-7, 5e-324], size=(20, 10 - in_range))
    buffer = io.StringIO()
    _csv_rows.write_rows(buffer, times, values)
    rows = zip(range(20), values.tolist())
    assert buffer.getvalue() == "".join(f"{p},{t:.17g},{x:.17g}\n" for p, row in rows for t, x in zip(times.tolist(), row))


def test_paths_csv_holds_a_tenth_of_the_solution_while_it_writes(tmp_path):
    # traced peak of one paths.csv write at 128 steps x 4000 paths, against the solution's bytes;
    # the module's tables are built at import, before the trace
    config = RunConfig(steps=128, paths=4000)
    grid = build_grid(config.horizon, config.steps)
    values = solver.ensemble_simulate(_build_model(config)[0], grid, config.paths, config.master_seed).values
    tracemalloc.start()
    try:
        with open(tmp_path / "paths.csv", "w", encoding="utf-8") as fh:
            cli._paths_csv(fh, grid.points, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * values.nbytes
