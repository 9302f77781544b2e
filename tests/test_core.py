"""Core containers: exact values, validation, totals."""

import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from oamix import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    as_fraction,
    cross_amounts,
    oofa_expand,
    total_amount,
    validate_design,
    validate_point,
)
from oamix.errors import BadPwoValue, InvalidDimension, InvalidParameter, NegativeEntry, NotExact, SumNotOne, WrongKind


def P(*values, kind=Kind.PROPORTION):
    return DesignPoint(tuple(values), kind)


def test_validate_point_centroid_ok():
    validate_point(P("1/3", "1/3", "1/3"))


def test_validate_point_vertex_ok():
    validate_point(P(1, 0, 0))


def test_validate_point_sum_not_one():
    with pytest.raises(SumNotOne):
        validate_point(P("1/2", "1/2", "1/2"))


def test_validate_point_negative():
    with pytest.raises(NegativeEntry):
        validate_point(P(-1, 1, 1))


def test_validate_amount_bound():
    # amounts need only be nonnegative; their total has no bound
    validate_point(P("1/4", "1/4", "1/4", kind=Kind.AMOUNT))
    validate_point(P(500, 0, 0, kind=Kind.AMOUNT))
    with pytest.raises(NegativeEntry):
        validate_point(P(1, -1, 0, kind=Kind.AMOUNT))


def test_kind_given_as_text_is_the_kind():
    # a text kind once skipped the sum check, so a design of such points
    # passed validate_design though its file could not be read back
    point = DesignPoint(("1/4", "1/4"), "proportion")
    assert point.kind is Kind.PROPORTION
    with pytest.raises(SumNotOne):
        validate_point(point)
    with pytest.raises(SumNotOne, match="^run 1: "):
        Design(2, "proportion", (OofARun(point),))
    design = Design(2, "proportion", (OofARun(DesignPoint(("1/4", "3/4"), "proportion")),))
    assert design.kind is Kind.PROPORTION
    validate_design(design)
    assert DesignPoint((1, 2), "amount") == P(1, 2, kind=Kind.AMOUNT)


@pytest.mark.parametrize(
    "call",
    [lambda: DesignPoint((1, 0), "mixture"), lambda: DesignPoint((1, 0), None), lambda: Design(2, "x", ())],
    ids=["point-unknown-text", "point-None", "design-unknown-text"],
)
def test_unknown_kind_is_refused(call):
    with pytest.raises(InvalidParameter, match="^kind must be a Kind, 'proportion' or 'amount', got "):
        call()


@pytest.mark.parametrize(
    "point, name", [((1, 0), "tuple"), (None, "NoneType")], ids=["tuple", "None"]
)
def test_run_refuses_a_point_that_is_not_a_design_point(point, name):
    with pytest.raises(InvalidParameter, match=f"^point must be a DesignPoint, got {name}$"):
        OofARun(point)


def test_total_amount_examples():
    assert total_amount(P("1/3", "1/3", 0, kind=Kind.AMOUNT)) == Fraction(2, 3)
    assert total_amount(P(0, 0, 0, kind=Kind.AMOUNT)) == 0
    assert total_amount(P("1/4", "1/4", "1/4", kind=Kind.AMOUNT)) == Fraction(3, 4)


def test_total_amount_wrong_kind():
    with pytest.raises(WrongKind):
        total_amount(P(1, 0, 0))


@pytest.mark.parametrize("check", [validate_point, total_amount], ids=["validate_point", "total_amount"])
@pytest.mark.parametrize("point", [None, (1, 0), "1/2,1/2"], ids=["None", "tuple", "text"])
def test_point_checks_refuse_what_is_no_point(check, point):
    with pytest.raises(InvalidParameter, match=f"^point must be a DesignPoint, got {type(point).__name__}$"):
        check(point)


def test_support_is_one_based_and_sorted():
    assert P(0, "1/2", "1/2").support() == (2, 3)
    assert P(1, 0, 0).support() == (1,)
    assert P(0, 0, 0, kind=Kind.AMOUNT).support() == ()


def test_as_fraction_rejects_float():
    with pytest.raises(TypeError):
        as_fraction(0.33)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: as_fraction("x"), InvalidParameter, "got 'x'"),
        (lambda: as_fraction(""), InvalidParameter, "got ''"),
        (lambda: as_fraction("1/0"), InvalidParameter, "got '1/0'"),
        (lambda: as_fraction("3/4x"), InvalidParameter, "got '3/4x'"),
        (lambda: as_fraction("nan"), InvalidParameter, "got 'nan'"),
        (lambda: as_fraction("1" * 100), None, None),
        (lambda: as_fraction("x" * 100), InvalidParameter, "got 'xxxxxxxx"),
        (lambda: DesignPoint(5, "proportion"), InvalidParameter, "values must be iterable, got 5"),
        (lambda: DesignPoint(("1/2", "1/0"), "proportion"), InvalidParameter, "got '1/0'"),
        # a text, bytes or a mapping would be read as its characters, bytes or keys
        (lambda: DesignPoint("12", "proportion"), InvalidParameter, "values must be a sequence of numbers, got str"),
        (lambda: DesignPoint(b"\x01", "proportion"), InvalidParameter, "values must be a sequence of numbers, got bytes"),
        (lambda: DesignPoint({1: 2}, "proportion"), InvalidParameter, "values must be a sequence of numbers, got dict"),
        # an infinite Decimal has no integer ratio
        (lambda: as_fraction(Decimal("Infinity")), InvalidParameter, "an exact number is"),
        (lambda: as_fraction(Decimal("-Infinity")), InvalidParameter, "got Decimal('-Infinity')"),
        (lambda: cross_amounts(Design(2, Kind.PROPORTION, (OofARun(P(1, 0)),)), [Decimal("Infinity")]),
         InvalidParameter, "amount level must be an int, a Fraction or exact text, got Decimal('Infinity')"),
        (lambda: OofARun(P(1, 0), None, Decimal("Infinity")), InvalidParameter, "an exact number is"),
        # floats, None and containers raise NotExact, which is also a TypeError
        (lambda: as_fraction(0.5), NotExact, "refusing lossy coercion of float 0.5"),
        (lambda: as_fraction(None), NotExact, "an exact number is an int, a Fraction or text such as 3/4 or 0.75, got None"),
        (lambda: as_fraction(["1"]), NotExact, "got ['1']"),
    ],
    ids=["letter", "empty", "zero-denominator", "trailing-text", "nan", "long-number", "long-text",
         "values-not-iterable", "entry-zero-denominator", "values-text", "values-bytes", "values-mapping",
         "infinity", "negative-infinity", "level-infinity", "run-amount-infinity", "float", "none", "list"],
)
def test_exact_values_that_are_no_number_raise_named_errors(call, error, message):
    if error is None:
        assert call() == int("1" * 100)
        return
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    if error is InvalidParameter:
        assert isinstance(raised.value, ValueError) and len(str(raised.value)) < 200
    if error is NotExact:
        assert isinstance(raised.value, TypeError)
    if message is not None:
        assert message in str(raised.value)


def test_as_fraction_parses_decimal_and_rational_strings():
    assert as_fraction("0.33") == Fraction(33, 100)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == 2


def test_rational_round_trip_through_text():
    for text in ["1/3", "2/3", "3/4", "0", "1", "1000/3"]:
        assert str(Fraction(text)) == text


def test_amount_scaling_keeps_total_exact():
    # scaling a proportion point by A gives an amount point with total A
    for a in [Fraction(3, 4), Fraction(3, 2), Fraction(500)]:
        p = P("1/3", "1/3", "1/3")
        scaled = DesignPoint(tuple(v * a for v in p.values), Kind.AMOUNT)
        assert total_amount(scaled) == a


def test_run_records_its_order_only_as_signs():
    assert [f.name for f in fields(OofARun)] == ["point", "pwo", "amount"]


HALF = P("1/2", "1/2")
HALF_AMOUNT = P("1/2", "1/2", kind=Kind.AMOUNT)


@pytest.mark.parametrize(
    "sign, want",
    [(1, 1), (np.int64(-1), -1), (Fraction(1), 1), (1.0, 1)],
    ids=["int", "numpy_int64", "fraction", "integral_float"],
)
def test_run_stores_integral_signs_as_int(sign, want):
    run = OofARun(HALF, pwo=(sign,))
    assert run.pwo == (want,) and type(run.pwo[0]) is int


def test_run_keeps_a_tuple_of_int_signs():
    signs = (1, -1, 1)
    assert OofARun(P("1/3", "1/3", "1/3"), pwo=signs).pwo is signs


@pytest.mark.parametrize(
    "sign", [1.7, Fraction(1, 2), "-1", "x", float("nan")], ids=["fractional", "half", "string", "text", "nan"]
)
def test_run_refuses_non_integer_signs(sign):
    # as the reader refuses a 1/2 sign cell
    with pytest.raises(BadPwoValue, match="^sign entries must be integers, got "):
        OofARun(HALF, pwo=(sign,))


@pytest.mark.parametrize(
    "kind, runs, first_bad",
    [
        # once written without sign columns, dropping run 1's signs
        (Kind.PROPORTION, (OofARun(HALF, pwo=(1,)), OofARun(HALF)), 2),
        # once written as x1,x2,A / 1/2,1/2,1 / 1/2,1/2,None
        (Kind.PROPORTION, (OofARun(HALF, amount=1), OofARun(HALF)), 2),
        (Kind.AMOUNT, (OofARun(HALF_AMOUNT, amount=1), OofARun(HALF_AMOUNT)), 2),
        # once written as a1,a2,A / 1/2,1/2,None
        (Kind.AMOUNT, (OofARun(HALF_AMOUNT),), 1),
        (Kind.PROPORTION, (OofARun(HALF), OofARun(P(1, 0, 0))), 2),
        (Kind.PROPORTION, (OofARun(HALF), OofARun(HALF_AMOUNT, amount=1)), 2),
    ],
    ids=["mixed_signs", "mixed_amounts", "amount_run_without_A", "first_amount_run_without_A",
         "wrong_m", "wrong_kind"],
)
def test_design_shape_faults_raise_wrong_kind(kind, runs, first_bad):
    with pytest.raises(WrongKind, match=f"^run {first_bad} has "):
        Design(m=2, kind=kind, runs=runs)


def test_design_shape_flags():
    plain = Design(2, Kind.PROPORTION, (OofARun(HALF),))
    assert not plain.is_expanded and not plain.has_amounts and plain.amount_levels == ()
    crossed = Design(2, Kind.PROPORTION, (OofARun(HALF, pwo=(1,), amount=3), OofARun(HALF, pwo=(-1,), amount=1)))
    assert crossed.is_expanded and crossed.has_amounts and crossed.amount_levels == (1, 3)
    # an amount design carries A even with no runs to carry it
    empty = Design(2, Kind.AMOUNT, ())
    assert empty.has_amounts and not empty.is_expanded and empty.amount_levels == ()


def test_one_component_design_refuses_signs():
    # the file format has no sign columns for m = 1, so such a design could
    # not read back as itself; oofa_expand refuses m = 1 with the same error
    vertex = P(1)
    with pytest.raises(InvalidDimension, match="addition orders need m >= 2") as built:
        Design(1, Kind.PROPORTION, (OofARun(vertex, pwo=()),))
    with pytest.raises(InvalidDimension) as expanded:
        oofa_expand(Design(1, Kind.PROPORTION, (OofARun(vertex),)))
    assert str(built.value) == str(expanded.value)


_SHAPE_MESSAGES = [
    (2, Kind.PROPORTION, (OofARun(HALF, pwo=(1,)), OofARun(HALF)), WrongKind,
     "run 2 has 2 proportion components, no signs, no A; the design's runs have 2 proportion components, with signs, no A"),
    (2, Kind.PROPORTION, (OofARun(HALF, amount=1), OofARun(HALF)), WrongKind,
     "run 2 has 2 proportion components, no signs, no A; the design's runs have 2 proportion components, no signs, with A"),
    (2, Kind.AMOUNT, (OofARun(HALF_AMOUNT, amount=1), OofARun(HALF_AMOUNT)), WrongKind,
     "run 2 has 2 amount components, no signs, no A; the design's runs have 2 amount components, no signs, with A"),
    (2, Kind.AMOUNT, (OofARun(HALF_AMOUNT),), WrongKind,
     "run 1 has 2 amount components, no signs, no A; the design's runs have 2 amount components, no signs, with A"),
    (2, Kind.PROPORTION, (OofARun(HALF), OofARun(P(1, 0, 0))), WrongKind,
     "run 2 has 3 proportion components, no signs, no A; the design's runs have 2 proportion components, no signs, no A"),
    (2, Kind.PROPORTION, (OofARun(HALF), OofARun(HALF_AMOUNT, amount=1)), WrongKind,
     "run 2 has 2 amount components, no signs, with A; the design's runs have 2 proportion components, no signs, no A"),
    (3, Kind.PROPORTION, (OofARun(HALF),), WrongKind,
     "run 1 has 2 proportion components, no signs, no A; the design's runs have 3 proportion components, no signs, no A"),
    (1, Kind.PROPORTION, (OofARun(P(1), pwo=()),), InvalidDimension, "addition orders need m >= 2 components, got m=1"),
]


@pytest.mark.parametrize("m, kind, runs, error, message", _SHAPE_MESSAGES)
def test_design_shape_fault_messages(m, kind, runs, error, message):
    with pytest.raises(error) as got:
        Design(m, kind, runs)
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("value", [None, True, 1.5, "x", object()], ids=["None", "bool", "float", "text", "object"])
def test_design_argument_faults_are_named(value):
    name = type(value).__name__
    with pytest.raises(InvalidParameter, match=f"^m must be an integer, got {re.escape(repr(value))}$"):
        Design(value, Kind.PROPORTION, (OofARun(HALF),))
    if isinstance(value, str):
        # text is iterable: its characters are runs that are not OofARuns
        with pytest.raises(InvalidParameter, match="^run 1 must be an OofARun, got str$"):
            Design(2, Kind.PROPORTION, value)
    else:
        with pytest.raises(InvalidParameter, match=f"^runs must be iterable, got {re.escape(repr(value))}$"):
            Design(2, Kind.PROPORTION, value)
    with pytest.raises(InvalidParameter, match=f"^run 2 must be an OofARun, got {name}$"):
        Design(2, Kind.PROPORTION, (OofARun(HALF), value, OofARun(HALF)))


def test_design_stores_an_integral_m_as_int():
    design = Design(np.int64(2), Kind.PROPORTION, [OofARun(HALF)])
    assert type(design.m) is int and design == Design(2, Kind.PROPORTION, (OofARun(HALF),))
