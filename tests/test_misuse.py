"""Every public call site refuses a malformed argument with a named error.

Each row of `SITES` is one public call site and one of its arguments: a
call whose other arguments are valid.  Each of the 19 malformed values of
`VALUES` is passed in that argument's place, and the call must raise an
`OamixError`, or, where the value is valid there, return what the row
states for it.  A value that would make a call build or allocate without
bound (a huge `m`, `w`, sample count or pair count) is run only with the
builder monkeypatched to fail if it is called.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

import oamix
from oamix import (
    ContinuousAmounts,
    Design,
    DesignPoint,
    DiscreteAmounts,
    OofARun,
    as_fraction,
    build_spec,
    cross_amounts,
    d_criteria,
    evaluate_design,
    fds_curve,
    fit_ols,
    g_efficiency,
    leverages,
    model_matrix,
    oofa_expand,
    ordering_from_pwo,
    power,
    prediction_variance,
    project_columns,
    pwo_from_ordering,
    pwo_pairs,
    r2_multicollinearity,
    read_design,
    reference_design,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    std_errors,
    total_amount,
    validate_design,
    validate_point,
    validate_run,
    write_design,
)
from oamix.errors import OamixError
from oamix.io import format_value
from oamix.models import ModelKind, ModelMatrix, coded_model_matrix

# the malformed values, each made afresh for every call
VALUES = {
    "None": lambda: None,
    "True": lambda: True,
    "1.5": lambda: 1.5,
    "nan": lambda: math.nan,
    "inf": lambda: math.inf,
    "-1": lambda: -1,
    "0": lambda: 0,
    "10**400": lambda: 10**400,
    "'x'": lambda: "x",
    "''": lambda: "",
    "[]": lambda: [],
    "[True]": lambda: [True],
    "[0.1]": lambda: [0.1],
    "(1,)": lambda: (1,),
    "{}": lambda: {},
    "object()": object,
    "array": lambda: np.array([0.25, 0.75]),
    "nan array": lambda: np.full(2, np.nan),
    "b'\\xff'": lambda: b"\xff",
}

POINT = DesignPoint(("1/2", "1/2", "0"), "proportion")
BASE = simplex_lattice(3, 2)
TABLE2 = reference_design("table2")
SPEC7 = build_spec("eq7", 3)
MM = model_matrix(TABLE2, SPEC7)
Y = np.arange(len(TABLE2), dtype=float)
CURVE = fds_curve(TABLE2, SPEC7, 100, 1)


@dataclass
class Site:
    name: str
    arg: str
    call: object
    # value name -> a check of what the call returns, for each value that
    # is valid here
    valid: dict = field(default_factory=dict)
    # (module, name) of the builders a huge count must not reach
    builders: tuple = ()
    # value names that raise an error that is not an OamixError today; see
    # test_a_value_that_is_no_fraction_is_refused_with_a_named_error
    faults: frozenset = frozenset()

    def __str__(self):
        return f"{self.name}:{self.arg}"


def eq(want):
    return lambda got: got == want


def same_curve(got):
    return np.array_equal(got.variances, CURVE.variances) and got.n_samples == 100


# what write_design(BASE, decimals) writes for the decimals a row accepts
BASE_TEXT = "x1,x2,x3\n0,0,1\n0,1/2,1/2\n0,1,0\n1/2,0,1/2\n1/2,1/2,0\n1,0,0\n"
BASE_TEXT_0 = "x1,x2,x3\n0,0,1\n0,1,1\n0,1,0\n1,0,1\n1,1,0\n1,0,0\n"
NO_DROP = project_columns(BASE, ())
NOT_FRACTIONS = frozenset(VALUES) - {"True", "-1", "0", "10**400"}

SITES = [
    Site("as_fraction", "value", lambda v: as_fraction(v), valid={
        "True": eq(Fraction(1)), "-1": eq(Fraction(-1)), "0": eq(Fraction(0)), "10**400": eq(Fraction(10**400)),
    }),
    Site("validate_point", "point", lambda v: validate_point(v)),
    Site("total_amount", "point", lambda v: total_amount(v)),
    Site("DesignPoint", "values", lambda v: DesignPoint(v, "proportion"), valid={
        "[]": eq(DesignPoint((), "proportion")),
        "[True]": eq(DesignPoint(("1",), "proportion")),
        "(1,)": eq(DesignPoint(("1",), "proportion")),
    }),
    Site("DesignPoint", "kind", lambda v: DesignPoint(("1/2", "1/2"), v)),
    Site("OofARun", "point", lambda v: OofARun(v, None, None)),
    Site("OofARun", "pwo", lambda v: OofARun(POINT, v, None), valid={
        "None": eq(OofARun(POINT)),
        "''": eq(OofARun(POINT, ())),
        "[]": eq(OofARun(POINT, ())),
        "{}": eq(OofARun(POINT, ())),
        "[True]": eq(OofARun(POINT, (1,))),
        "(1,)": eq(OofARun(POINT, (1,))),
        "b'\\xff'": eq(OofARun(POINT, (255,))),
    }),
    Site("OofARun", "amount", lambda v: OofARun(POINT, None, v), valid={
        "None": eq(OofARun(POINT)),
        "True": eq(OofARun(POINT, None, Fraction(1))),
        "-1": eq(OofARun(POINT, None, Fraction(-1))),
        "0": eq(OofARun(POINT, None, Fraction(0))),
        "10**400": eq(OofARun(POINT, None, Fraction(10**400))),
    }),
    Site("Design", "m", lambda v: Design(v, "proportion", BASE.runs)),
    Site("Design", "kind", lambda v: Design(3, v, BASE.runs)),
    Site("Design", "runs", lambda v: Design(3, "proportion", v), valid={
        "''": eq(Design(3, "proportion", ())),
        "[]": eq(Design(3, "proportion", ())),
        "{}": eq(Design(3, "proportion", ())),
    }),
    Site("simplex_lattice", "m", lambda v: simplex_lattice(v, 2), builders=(("simplex", "_compositions"),)),
    Site("simplex_lattice", "w", lambda v: simplex_lattice(3, v), builders=(("simplex", "_compositions"),)),
    Site("simplex_centroid", "m", lambda v: simplex_centroid(v), builders=(("simplex", "combinations"),)),
    Site("project_columns", "design", lambda v: project_columns(v, {3})),
    Site("project_columns", "drop", lambda v: project_columns(BASE, v), valid={
        "''": eq(NO_DROP), "[]": eq(NO_DROP), "{}": eq(NO_DROP), "(1,)": eq(project_columns(BASE, {1})),
    }),
    Site("pwo_pairs", "m", lambda v: pwo_pairs(v), builders=(("oofa", "_pwo_pairs"),)),
    Site("pwo_from_ordering", "point", lambda v: pwo_from_ordering(v, (1, 2))),
    Site("pwo_from_ordering", "ordering", lambda v: pwo_from_ordering(POINT, v)),
    Site("ordering_from_pwo", "support", lambda v: ordering_from_pwo(v, (1, 0, 0))),
    Site("ordering_from_pwo", "pwo", lambda v: ordering_from_pwo((1, 2), v), valid={
        "[True]": eq((1, 2)), "(1,)": eq((1, 2)),
    }),
    Site("oofa_expand", "design", lambda v: oofa_expand(v)),
    Site("cross_amounts", "design", lambda v: cross_amounts(v, [1, 2])),
    Site("cross_amounts", "levels", lambda v: cross_amounts(BASE, v), valid={
        "(1,)": eq(cross_amounts(BASE, ["1"])), "b'\\xff'": eq(cross_amounts(BASE, ["255"])),
    }),
    Site("scale_amounts", "design", lambda v: scale_amounts(v, 500)),
    Site("scale_amounts", "a_max", lambda v: scale_amounts(TABLE2, v), valid={
        "10**400": lambda got: got.amount_levels == tuple(a * 10**400 for a in TABLE2.amount_levels),
    }),
    Site("validate_run", "run", lambda v: validate_run(v)),
    Site("validate_design", "design", lambda v: validate_design(v)),
    Site("write_design", "design", lambda v: write_design(v)),
    Site("write_design", "decimals", lambda v: write_design(BASE, v), valid={
        "None": eq(BASE_TEXT), "0": eq(BASE_TEXT_0),
    }),
    Site("read_design", "text", lambda v: read_design(v)),
    Site("format_value", "value", lambda v: format_value(v, 2), faults=NOT_FRACTIONS, valid={
        "True": eq("1"), "-1": eq("-1"), "0": eq("0"), "10**400": eq(str(10**400)),
    }),
    Site("format_value", "decimals", lambda v: format_value(Fraction(1, 3), v), valid={
        "None": eq("1/3"), "0": eq("0"),
    }),
    Site("reference_design", "name", lambda v: reference_design(v)),
    Site("ModelKind.parse", "text", lambda v: ModelKind.parse(v)),
    Site("build_spec", "kind", lambda v: build_spec(v, 3)),
    Site("build_spec", "m", lambda v: build_spec("eq6", v), builders=(("models", "_linear"),)),
    Site("build_spec", "reduction", lambda v: build_spec("eq6", 3, v), valid={
        "None": eq(build_spec("eq6", 3, "cyclic")),
        # no interaction kept: 3 blocks of 3 linear, 3 cross and 3 sign terms
        "[]": lambda got: got.p == 27,
        "{}": lambda got: got.p == 27,
    }),
    Site("model_matrix", "design", lambda v: model_matrix(v, SPEC7)),
    Site("model_matrix", "spec", lambda v: model_matrix(TABLE2, v)),
    Site("coded_model_matrix", "design", lambda v: coded_model_matrix(v, SPEC7)),
    Site("coded_model_matrix", "spec", lambda v: coded_model_matrix(TABLE2, v)),
    Site("ModelMatrix", "X", lambda v: ModelMatrix(v, ("a", "b"))),
    Site("ModelMatrix", "col_labels", lambda v: ModelMatrix(np.eye(2), v), valid={
        "None": lambda got: got.col_labels == ("0", "1"),
        "array": lambda got: got.col_labels == (0.25, 0.75),
        "nan array": lambda got: len(got.col_labels) == 2,
    }),
    Site("leverages", "X", lambda v: leverages(v)),
    Site("prediction_variance", "X", lambda v: prediction_variance(v, np.ones(7))),
    Site("prediction_variance", "f", lambda v: prediction_variance(MM, v)),
    Site("g_efficiency", "p", lambda v: g_efficiency(v, 31, 0.5), valid={
        "1.5": lambda got: math.isclose(got, 100 * 1.5 / (31 * 0.5)),
    }),
    Site("g_efficiency", "n", lambda v: g_efficiency(7, v, 0.5), valid={
        "1.5": lambda got: math.isclose(got, 100 * 7 / (1.5 * 0.5)),
    }),
    Site("g_efficiency", "max_pv", lambda v: g_efficiency(7, 31, v), valid={
        "1.5": lambda got: math.isclose(got, 100 * 7 / (31 * 1.5)),
    }),
    Site("d_criteria", "X", lambda v: d_criteria(v)),
    Site("std_errors", "X", lambda v: std_errors(v)),
    Site("r2_multicollinearity", "X", lambda v: r2_multicollinearity(v, 1)),
    Site("r2_multicollinearity", "j", lambda v: r2_multicollinearity(MM, v)),
    Site("power", "X", lambda v: power(v, 1, 2.0)),
    Site("power", "j", lambda v: power(MM, v, 2.0), valid={"0": lambda got: 0.05 < got < 1}),
    Site("power", "signal_sd", lambda v: power(MM, 1, v), valid={
        "1.5": lambda got: power(MM, 1, 1.0) < got < power(MM, 1, 2.0),
        # two-sided: the sign of the signal does not matter
        "-1": eq(power(MM, 1, 1.0)),
        "0": eq(0.05),
    }),
    Site("power", "alpha", lambda v: power(MM, 1, 2.0, v)),
    Site("ContinuousAmounts", "lo", lambda v: ContinuousAmounts(v, 1), valid={"0": eq(ContinuousAmounts(0, 1))}),
    Site("ContinuousAmounts", "hi", lambda v: ContinuousAmounts(0, v), valid={
        "1.5": eq(ContinuousAmounts(0, 1.5)), "0": eq(ContinuousAmounts(0, 0)),
    }),
    Site("DiscreteAmounts", "levels", lambda v: DiscreteAmounts(v), valid={
        "[0.1]": eq(DiscreteAmounts((0.1,))),
        "(1,)": eq(DiscreteAmounts((1,))),
        "array": eq(DiscreteAmounts((0.25, 0.75))),
        "b'\\xff'": eq(DiscreteAmounts((255,))),
    }),
    Site("fds_curve", "design", lambda v: fds_curve(v, SPEC7, 100, 1)),
    Site("fds_curve", "spec", lambda v: fds_curve(TABLE2, v, 100, 1)),
    Site("fds_curve", "n_samples", lambda v: fds_curve(TABLE2, SPEC7, v, 1), builders=(("evaluate", "_sample_chunk"),)),
    Site("fds_curve", "seed", lambda v: fds_curve(TABLE2, SPEC7, 100, v), valid={
        "0": lambda got: got.seed == 0 and got.n_samples == 100,
        "10**400": lambda got: got.seed == 10**400 and got.n_samples == 100,
    }),
    Site("fds_curve", "amount_policy", lambda v: fds_curve(TABLE2, SPEC7, 100, 1, amount_policy=v), valid={
        "None": same_curve,
    }),
    # the chunks run serially, so any count of workers gives the one curve
    Site("fds_curve", "workers", lambda v: fds_curve(TABLE2, SPEC7, 100, 1, workers=v), valid={
        "10**400": same_curve,
    }),
    Site("fds_curve", "sign_policy", lambda v: fds_curve(TABLE2, SPEC7, 100, 1, sign_policy=v)),
    Site("FdsCurve.fraction_below", "value", lambda v: CURVE.fraction_below(v), valid={
        "1.5": eq(1.0), "inf": eq(1.0), "-1": eq(0.0), "0": eq(0.0), "10**400": eq(1.0),
    }),
    Site("FdsCurve.quantile", "fraction", lambda v: CURVE.quantile(v), valid={"0": eq(CURVE.variances[0])}),
    Site("evaluate_design", "design", lambda v: evaluate_design(v, SPEC7)),
    Site("evaluate_design", "spec", lambda v: evaluate_design(TABLE2, v)),
    Site("evaluate_design", "signal_sd", lambda v: evaluate_design(TABLE2, SPEC7, v), valid={
        "1.5": lambda got: got.signal_sd == 1.5,
        "-1": lambda got: [t.power for t in got.terms] == [t.power for t in evaluate_design(TABLE2, SPEC7, 1).terms],
        "0": lambda got: all(term.power == 0.05 for term in got.terms),
    }),
    Site("evaluate_design", "alpha", lambda v: evaluate_design(TABLE2, SPEC7, 2.0, v)),
    Site("evaluate_design", "coding", lambda v: evaluate_design(TABLE2, SPEC7, coding=v)),
    Site("fit_ols", "X", lambda v: fit_ols(v, Y)),
    Site("fit_ols", "y", lambda v: fit_ols(MM, v)),
]

# the public names that are no call site of their own: result and spec
# containers that take their fields as given, an enum, the error base and
# the version
NO_SITE = {
    "EvalReport", "FdsCurve", "OlsFit", "ModelSpec", "Term", "Kind", "ModelKind", "OamixError", "__version__",
}


def _must_not_build(*args, **kwargs):
    raise AssertionError("a builder ran for a count that should be refused first")


def test_every_public_call_site_has_a_row():
    rows = {site.name.partition(".")[0] for site in SITES}
    assert set(oamix.__all__) - NO_SITE <= rows
    assert {"format_value", "coded_model_matrix", "FdsCurve", "ModelKind"} <= rows
    assert len(VALUES) == 19
    for site in SITES:
        assert set(site.valid) | set(site.faults) <= set(VALUES), site


@pytest.mark.parametrize("site", SITES, ids=str)
def test_a_malformed_argument_raises_a_named_error(monkeypatch, site):
    for module, name in site.builders:
        monkeypatch.setattr(f"oamix.{module}.{name}", _must_not_build)
    wrong = []
    for value, make in VALUES.items():
        if value in site.faults:
            continue
        try:
            got = site.call(make())
        except OamixError:
            if value in site.valid:
                wrong.append(f"{value}: refused, but it is valid here")
            continue
        except Exception as exc:
            wrong.append(f"{value}: {type(exc).__name__}: {exc}")
            continue
        if value not in site.valid:
            wrong.append(f"{value}: accepted, giving {got!r:.80}")
        elif not site.valid[value](got):
            wrong.append(f"{value}: gave {got!r:.80}")
    assert not wrong, f"{site}: " + "; ".join(wrong)


@pytest.mark.xfail(strict=True, reason="format_value reads its value as a Fraction unchecked")
@pytest.mark.parametrize("site", [site for site in SITES if site.faults], ids=str)
def test_a_value_that_is_no_fraction_is_refused_with_a_named_error(site):
    for value in sorted(site.faults):
        with pytest.raises(OamixError):
            site.call(VALUES[value]())
