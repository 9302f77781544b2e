"""Core containers: exact values, validation, totals."""

from dataclasses import fields
from fractions import Fraction

import pytest

from oamix import DesignPoint, Kind, OofARun, as_fraction, total_amount, validate_point
from oamix.errors import NegativeEntry, SumNotOne, TotalExceedsMax, WrongKind


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
    p = P("1/4", "1/4", "1/4", kind=Kind.AMOUNT)
    validate_point(p)
    validate_point(p, a_max=1)
    with pytest.raises(TotalExceedsMax):
        validate_point(p, a_max="1/2")


def test_total_amount_examples():
    assert total_amount(P("1/3", "1/3", 0, kind=Kind.AMOUNT)) == Fraction(2, 3)
    assert total_amount(P(0, 0, 0, kind=Kind.AMOUNT)) == 0
    assert total_amount(P("1/4", "1/4", "1/4", kind=Kind.AMOUNT)) == Fraction(3, 4)


def test_total_amount_wrong_kind():
    with pytest.raises(WrongKind):
        total_amount(P(1, 0, 0))


def test_support_is_one_based_and_sorted():
    assert P(0, "1/2", "1/2").support() == (2, 3)
    assert P(1, 0, 0).support() == (1,)
    assert P(0, 0, 0, kind=Kind.AMOUNT).support() == ()


def test_as_fraction_rejects_float():
    with pytest.raises(TypeError):
        as_fraction(0.33)


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
