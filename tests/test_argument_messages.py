"""A refused argument is named in a message of bounded length.

Every message that repeats the value it refuses shows it through
`errors._shown`: an int of more digits than fit is shown by its digit
count, worked out from its bit length, and other long text is cut.  So
an int of 401 digits does not fill the message, and one of over 4300
digits, which Python refuses to turn into text, still gives the named
error rather than a bare ValueError.
"""

import math
from fractions import Fraction

import pytest

from oamix import (
    ContinuousAmounts,
    DiscreteAmounts,
    build_spec,
    cross_amounts,
    evaluate_design,
    fds_curve,
    g_efficiency,
    model_matrix,
    oofa_expand,
    ordering_from_pwo,
    power,
    project_columns,
    pwo_from_ordering,
    r2_multicollinearity,
    reference_design,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    write_design,
)
from oamix.core import Design, DesignPoint, Kind, OofARun, validate_point
from oamix.errors import (
    BadPwoValue,
    DuplicateLevel,
    InconsistentPwo,
    InvalidDimension,
    InvalidParameter,
    NegativeEntry,
    NonPositiveScale,
    OrderingSupportMismatch,
    SumNotOne,
    UnsupportedReduction,
    WrongKind,
    _digits,
    _shown,
)
from oamix.models import ModelKind
from oamix.oofa import pwo_pairs

TABLE1 = reference_design("table1")
TABLE2 = reference_design("table2")
TABLE3 = reference_design("table3")
SPEC6 = build_spec("eq6", 3)
MATRIX = model_matrix(TABLE3, SPEC6)
CURVE = fds_curve(TABLE3, SPEC6, 100, 1)
POINT = TABLE1.runs[0].point

# (site, call of the refused value v, the error class)
SITES = [
    ("g_efficiency max_pv", lambda v: g_efficiency(36, 63, v), InvalidParameter),
    ("power signal", lambda v: power(MATRIX, 1, signal_sd=v), InvalidParameter),
    ("power alpha", lambda v: power(MATRIX, 1, 1.0, alpha=v), InvalidParameter),
    ("power j", lambda v: power(MATRIX, v, 1.0), InvalidParameter),
    ("r2 j", lambda v: r2_multicollinearity(MATRIX, v), InvalidParameter),
    ("evaluate signal", lambda v: evaluate_design(TABLE3, SPEC6, signal_sd=v), InvalidParameter),
    ("evaluate alpha", lambda v: evaluate_design(TABLE3, SPEC6, alpha=v), InvalidParameter),
    ("evaluate coding", lambda v: evaluate_design(TABLE3, SPEC6, coding=v), InvalidParameter),
    ("continuous hi", lambda v: ContinuousAmounts(0, v), InvalidParameter),
    ("discrete levels", lambda v: DiscreteAmounts((v,)), InvalidParameter),
    ("quantile", lambda v: CURVE.quantile(v), InvalidParameter),
    ("fds n_samples", lambda v: fds_curve(TABLE3, SPEC6, v, 1), InvalidParameter),
    ("fds seed", lambda v: fds_curve(TABLE3, SPEC6, 100, -v), InvalidParameter),
    ("fds workers", lambda v: fds_curve(TABLE3, SPEC6, 100, 1, workers=-v), InvalidParameter),
    ("fds sign_policy", lambda v: fds_curve(TABLE3, SPEC6, 100, 1, sign_policy=v), InvalidParameter),
    ("fds amount_policy", lambda v: fds_curve(TABLE3, SPEC6, 100, 1, amount_policy=v), InvalidParameter),
    ("lattice m below 2", lambda v: simplex_lattice(-v, 2), InvalidDimension),
    ("centroid m below 2", lambda v: simplex_centroid(-v), InvalidDimension),
    ("project drop", lambda v: project_columns(simplex_centroid(4), [v]), InvalidDimension),
    ("pwo_pairs m below 1", lambda v: pwo_pairs(-v), InvalidParameter),
    ("spec m below 2", lambda v: build_spec("eq6", -v), InvalidDimension),
    ("spec kind", lambda v: build_spec(v, 3), InvalidParameter),
    ("model kind", lambda v: ModelKind.parse(v), InvalidParameter),
    ("spec reduction", lambda v: build_spec("eq6", 3, v), UnsupportedReduction),
    ("spec reduction entry", lambda v: build_spec("eq6", 3, [v]), UnsupportedReduction),
    ("spec reduction component", lambda v: build_spec("eq6", 3, [(v, (1, 2))]), UnsupportedReduction),
    ("cross duplicates", lambda v: cross_amounts(TABLE1, [v, v]), DuplicateLevel),
    ("cross levels", lambda v: cross_amounts(TABLE1, v), InvalidParameter),
    ("scale", lambda v: scale_amounts(TABLE2, -v), NonPositiveScale),
    ("pwo_from_ordering", lambda v: pwo_from_ordering(POINT, (v, 1, 2)), OrderingSupportMismatch),
    ("pwo_from_ordering point", lambda v: pwo_from_ordering(v, (1, 2)), InvalidParameter),
    ("ordering support", lambda v: ordering_from_pwo((v, v), (1,)), OrderingSupportMismatch),
    ("ordering support over m", lambda v: ordering_from_pwo((1, v), (1, 1, 1)), InconsistentPwo),
    ("ordering signs", lambda v: ordering_from_pwo((1, 2), (v,)), BadPwoValue),
    ("Design runs", lambda v: Design(3, Kind.PROPORTION, v), InvalidParameter),
    ("Design m", lambda v: Design(-v, Kind.PROPORTION, TABLE1.runs), WrongKind),
    ("point kind", lambda v: DesignPoint((1,), v), InvalidParameter),
    ("run signs", lambda v: OofARun(POINT, (v, Fraction(1, 2), 1)), BadPwoValue),
    ("negative component", lambda v: validate_point(DesignPoint((-v, 1), Kind.AMOUNT)), NegativeEntry),
    ("proportion sum", lambda v: validate_point(DesignPoint((v, 1), Kind.PROPORTION)), SumNotOne),
    ("reference design", lambda v: reference_design(v), InvalidParameter),
    ("expand m below 2", lambda v: oofa_expand(Design(-v, Kind.PROPORTION, ())), InvalidDimension),
    ("write decimals", lambda v: write_design(TABLE1, decimals=v), InvalidParameter),
]


@pytest.mark.parametrize("digits", [400, 5000])
@pytest.mark.parametrize("call, error", [site[1:] for site in SITES], ids=[site[0] for site in SITES])
def test_a_huge_int_argument_gives_the_named_error_in_a_short_message(call, error, digits):
    with pytest.raises(error) as raised:
        call(10**digits)
    assert type(raised.value) is error
    assert len(str(raised.value)) < 200, str(raised.value)


@pytest.mark.parametrize("point", [None, (1, 2), "x"], ids=["None", "tuple", "str"])
def test_a_point_that_is_no_design_point_is_named(point):
    with pytest.raises(InvalidParameter, match=f"^point must be a DesignPoint, got {type(point).__name__}$"):
        pwo_from_ordering(point, (1, 2))


@pytest.mark.parametrize(
    "call",
    [lambda v: simplex_lattice(v, 2), lambda v: simplex_lattice(3, v), lambda v: simplex_centroid(v),
     lambda v: pwo_pairs(v), lambda v: build_spec("eq6", v)],
    ids=["lattice m", "lattice w", "centroid m", "pwo_pairs m", "spec m"],
)
def test_a_size_beyond_int_text_is_shown_by_its_digits(call):
    # a size message shows its numbers in full as far as Python turns ints
    # into text (the 10**400 messages are pinned where they are tested);
    # beyond that, by their digit counts
    with pytest.raises(InvalidParameter, match="integer of 5001 digits") as raised:
        call(10**5000)
    assert len(str(raised.value)) < 200


@pytest.mark.parametrize(
    "value, shown",
    [
        (0, "0"),
        (-7, "-7"),
        (10**59 - 1, "9" * 59),
        (-(10**58), "-1" + "0" * 58),
        (10**59, "1" + "0" * 59),
        (10**60, "an integer of 61 digits"),
        (-(10**59), "a negative integer of 60 digits"),
        (10**400 - 1, "an integer of 400 digits"),
        (10**400, "an integer of 401 digits"),
        (10**5000, "an integer of 5001 digits"),
        (True, "True"),
        ("x" * 60, "'" + "x" * 56 + "..."),
        ((1, 2), "(1, 2)"),
        ((10**5000,), "a tuple too long to show"),
        (Fraction(1, 3), "Fraction(1, 3)"),
    ],
    ids=["zero", "negative", "59_digits", "negative_59_digits", "60_digits", "61_digits", "negative_60_digits",
         "400_digits", "401_digits", "5001_digits", "bool", "long_text", "tuple", "tuple_of_5001_digits", "fraction"],
)
def test_shown_bounds_a_value(value, shown):
    assert _shown(value) == shown
    assert len(_shown(value)) <= 60


def test_digits_are_counted_from_the_bit_length():
    for n in (1, 9, 10, 99, 100, 2**64, 10**18 - 1, 10**18, 10**300, 10**4299, 10**4299 - 1):
        assert _digits(n) == _digits(-n) == len(str(n)), n
    assert _digits(0) == 1
    for k in (5000, 20000):
        assert _digits(10**k) == k + 1 and _digits(10**k - 1) == k
    assert math.isclose(_digits(1 << 400_000), 400_000 * math.log10(2), rel_tol=1e-5)
