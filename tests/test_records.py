"""The nine result records: immutable named tuples with fixed fields, properties and values.

Each record is built by the function that returns it (the checks ``svie
verify`` runs, ``picard_solve`` and the two audits) on a small fixed input,
and its values are pinned.  An array field is pinned by its shape and sum.
"""

import functools
import math

import numpy as np
import pytest

import svie
from svie import analysis

FIELDS = {
    "DoobReport": ("lhs", "rhs", "constant", "bound", "se_lhs", "se_rhs", "n_paths", "passed"),
    "MomentReport": ("times", "estimates", "stderrs", "bound", "passes", "survivors", "exploded"),
    "GapReport": ("times", "estimates", "stderrs", "envelope_slope", "passes", "k", "m", "n_paths"),
    "MajorantSequence": ("c3", "window", "times", "curves"),
    "MartingaleEnsemble": ("sup_sq", "terminal_sq", "terminal"),
    "GrowthAudit": ("estimated_constant", "supplied_constant", "worst_point", "bad_points", "n_samples", "passed"),
    "OsgoodProbe": ("epsilons", "values", "divergent"),
    "ModulusAudit": (
        "worst_slack", "worst_point", "kappa_zero_ok", "positive_ok", "monotone_ok", "concave_ok", "osgood",
        "bad_points", "n_samples", "passed",
    ),  # fmt: skip
    "PicardRun": ("converged", "iterations", "sup_diffs", "final"),
}

LADDER = [[0.01, 0.001, 0.0001, 1e-05], [4.605170185988091, 6.907755278982137, 9.210340371976182, 11.512925464970229]]
# values as ``_digest`` lays them out, taken when the records were frozen dataclasses
PINNED = {
    "DoobReport": [7.5, 3.75, 4.0, 48.67415526630866, 3.278719262151, 1.8874586088176875, 4, True],
    "MomentReport": [
        [[9], 2.25], [[9], 11.23846306736993], [[9], 1.8390905333691108], 21.74625462767236, [[9], 9.0], 20, 0,
    ],  # fmt: skip
    "GapReport": [
        [[9], 2.25], [[9], 0.08920368996039801], [[9], 0.06865158293781568], 260.95505553206834, [[9], 9.0], 1, 1, 20,
    ],  # fmt: skip
    "MajorantSequence": [1.0, 0.5, [[17], 4.25], [[5, 17], 5.085553124547005]],
    "MartingaleEnsemble": [[[20], 0.6038785810648862], [[20], 0.5352670034091328], [[20], -1.913640593840583]],
    "GrowthAudit": [
        0.24748648817007818, 0.25, [0.27479684383652975, 0.2408696276009123, 9.922823802372559], [], 50, True,
    ],  # fmt: skip
    "OsgoodProbe": [*LADDER, True],
    "ModulusAudit": [
        -9.080857841207952e-12,
        [0.19581241654001308, 0.09565408607192023, 9.53272986584375, 9.454341076212474],
        True, True, True, True,
        [
            [0.01, 0.001, 0.0001, 1e-05, 1e-06, 1e-07, 1e-08, 1e-09, 1e-10, 1e-11, 1e-12],
            [-math.log(eps) for eps in (0.01, 0.001, 0.0001, 1e-05, 1e-06, 1e-07, 1e-08, 1e-09, 1e-10, 1e-11, 1e-12)],
            True,
        ],
        [], 50, True,
    ],  # fmt: skip
    "PicardRun": [True, 9, [[9], 1.9302892517650232], [[[9], 17.91575305967782]]],
}
PROPERTIES = {
    "MomentReport": {"all_pass": True},
    "GapReport": {"all_pass": True},
    "MajorantSequence": {"final_value": 0.00026550889015197754},
}


@functools.cache
def records() -> dict:
    coeffs = svie.linear_test_coefficients(0.1, 2.0)
    grid = svie.build_grid(0.5, 8)
    ensemble = svie.ensemble_simulate(coeffs, grid, 20, 5)
    modulus = svie.linear_modulus(coeffs.growth_constant)
    return {
        "DoobReport": analysis.doob_check(np.array([4.0, 9.0, 1.0, 16.0]), np.array([1.0, 4.0, 1.0, 9.0])),
        "MomentReport": analysis.moment_check(ensemble, coeffs),
        "GapReport": analysis.picard_gap(coeffs, ensemble.noise, 1, 1, modulus),
        "MajorantSequence": analysis.majorant_recursion(1.0, svie.linear_modulus(1.0), 0.5, 16, 5),
        "MartingaleEnsemble": analysis.solution_martingales(coeffs, ensemble)[1],
        "GrowthAudit": svie.audit_linear_growth(coeffs, svie.domain_sampler(0.5, 10.0, 1), 50),
        "OsgoodProbe": svie.osgood_ladder(svie.linear_modulus(1.0), 4),
        "ModulusAudit": svie.audit_modulus(coeffs, modulus, svie.pair_sampler(0.5, 10.0, 2), 50),
        "PicardRun": svie.picard_solve(coeffs, svie.sample_noise_path(grid, coeffs.measure, (5, 0))),
    }


def _digest(value):
    """Scalars as they are, arrays as [shape, sum], records and tuples field by field (a path's grid left out)."""
    if isinstance(value, np.ndarray):
        return [list(value.shape), float(np.sum(value))]
    if isinstance(value, svie.DiscretePath):
        return [_digest(value.values)]
    if type(value).__name__ in FIELDS:  # by name, so the pins read a record of any kind
        return [_digest(getattr(value, field)) for field in FIELDS[type(value).__name__]]
    if isinstance(value, tuple):
        return [_digest(item) for item in value]
    return value


def _leaves(tree):
    if isinstance(tree, list):
        for item in tree:
            yield from _leaves(item)
    else:
        yield tree


RECORDS = pytest.mark.parametrize("name", FIELDS)


@RECORDS
def test_record_is_the_exported_named_tuple_with_its_fields_in_order(name):
    record = records()[name]
    assert type(record) is getattr(svie, name)
    assert isinstance(record, tuple) and type(record)._fields == FIELDS[name]


@RECORDS
def test_record_values_are_unchanged(name):
    got, want = _digest(records()[name]), PINNED[name]
    for g, w in zip(_leaves(got), _leaves(want), strict=True):
        # bools and ints exactly; floats to rounding (a worst slack near 0 to the audits' 1e-12)
        assert type(g) is type(w)
        assert g == (pytest.approx(w, rel=1e-9, abs=1e-12) if isinstance(w, float) else w)


@RECORDS
def test_record_properties_give_their_values(name):
    record = records()[name]
    for prop, want in PROPERTIES.get(name, {}).items():
        assert getattr(record, prop) == pytest.approx(want, rel=1e-9)


@RECORDS
def test_record_attributes_cannot_be_assigned(name):
    record = records()[name]
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name][0], None)
    with pytest.raises(AttributeError):
        record.note = "added"
