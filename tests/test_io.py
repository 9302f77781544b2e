"""Design-file round trips, display rendering, and row validation."""

import json
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamix import (
    Design,
    DesignPoint,
    Kind,
    OamixError,
    OofARun,
    ordering_from_pwo,
    project_columns,
    read_design,
    simplex_centroid,
    simplex_lattice,
    validate_design,
    validate_run,
    write_design,
)
from oamix.errors import (
    AmountMismatch,
    BadPwoValue,
    InconsistentPwo,
    InconsistentPwoRow,
    InvalidParameter,
    MalformedHeader,
    NegativeEntry,
    NotExact,
    RowLengthMismatch,
    SumNotOne,
    located,
)
from oamix import io, oofa
from oamix.io import _columns, _parse_header, format_value, round_half_up

import reader_faults
from run_lists import first_fault, runs_text
from test_distinct_values import built_designs, fresh


def test_format_value_rational():
    assert format_value(Fraction(1, 3), None) == "1/3"
    assert format_value(Fraction(2), None) == "2"


@pytest.mark.parametrize("decimals", [None, 0, 2, 25])
def test_format_value_renders_a_bool_as_its_int(decimals):
    # a bool is an int, so it renders as 0 or 1, never by its name
    assert format_value(True, decimals) == format_value(1, decimals) == "1"
    assert format_value(False, decimals) == format_value(0, decimals) == "0"
    # so does a numpy integer, whose fixed width would wrap or overflow
    # when scaled by 10**decimals
    assert format_value(np.uint8(200), decimals) == "200"
    assert format_value(np.int64(-7), decimals) == "-7"


def test_format_value_decimals():
    assert format_value(Fraction(1, 3), 2) == "0.33"
    assert format_value(Fraction(2, 3), 2) == "0.67"
    assert format_value(Fraction(1000, 3), 1) == "333.3"
    assert format_value(Fraction(500, 3), 1) == "166.7"
    # exact integers print bare, matching the reference tables
    assert format_value(Fraction(0), 2) == "0"
    assert format_value(Fraction(500), 1) == "500"
    assert format_value(Fraction(3, 4), 2) == "0.75"


def test_round_half_up_at_ties():
    assert round_half_up(Fraction(3, 4), 1) == Fraction(8, 10)
    assert round_half_up(Fraction(665, 1000), 2) == Fraction(67, 100)


def test_write_table2_run_rational(table2):
    text = write_design(table2)
    assert "1/3,1/3,0,1,0,0,2/3" in text.splitlines()


def test_write_table5_run_display(table5):
    text = write_design(table5, decimals=1)
    assert "166.7,0,166.7,0,1,0,333.3" in text.splitlines()


@pytest.mark.parametrize("decimals", [-1, 1.5, True, 1001, "2"])
def test_write_rejects_bad_decimals(table1, decimals):
    with pytest.raises(InvalidParameter, match="decimals"):
        write_design(table1, decimals=decimals)


@pytest.mark.parametrize("decimals", [-1, 1.5, True])
def test_format_value_rejects_bad_decimals(decimals):
    with pytest.raises(InvalidParameter, match="^decimals must be an integer from 0 to 1000"):
        format_value(Fraction(1, 3), decimals)


@pytest.mark.parametrize("decimals", [None, 2])
@pytest.mark.parametrize("value", [None, 0.5, "1/3", [Fraction(1, 3)]], ids=["None", "float", "text", "list"])
def test_format_value_refuses_a_value_that_is_no_exact_number(value, decimals):
    with pytest.raises(NotExact, match="^value must be an int or a Fraction, got "):
        format_value(value, decimals)


def test_write_table1_display_matches_reference_tokens(table1):
    lines = write_design(table1, decimals=2).splitlines()
    assert lines[0] == "x1,x2,x3,z12,z13,z23"
    assert "0.33,0.67,0,1,0,0" in lines
    assert "1,0,0,0,0,0" in lines


def test_round_trip_all_reference_designs(table1, table2, table3, table5):
    for d in (table1, table2, table3, table5):
        assert read_design(write_design(d)) == d


def test_round_trip_unexpanded_designs():
    from oamix import project_columns, simplex_centroid, simplex_lattice

    for d in (simplex_lattice(3, 2), project_columns(simplex_centroid(4), {4})):
        assert read_design(write_design(d)) == d


def test_read_decimal_tokens_are_exact_decimals():
    d = read_design("x1,x2,x3\n0.33,0.33,0.34\n")
    assert d.runs[0].point.values == (
        Fraction(33, 100),
        Fraction(33, 100),
        Fraction(34, 100),
    )
    assert d.kind is Kind.PROPORTION


def test_read_rederives_orderings(table2):
    # expansion lists the permutations of each base run's support in order
    base = project_columns(simplex_centroid(4), {4})
    expected = [o for run in base.runs for o in permutations(run.point.support())]
    again = read_design(write_design(table2))
    assert [ordering_from_pwo(r.point.support(), r.pwo) for r in again.runs] == expected


def test_read_masking_violation():
    text = "x1,x2,x3,z12,z13,z23\n0,1/2,1/2,1,0,1\n"
    with pytest.raises(InconsistentPwoRow):
        read_design(text)


def test_read_missing_sign_for_active_pair():
    text = "x1,x2,x3,z12,z13,z23\n1/2,1/2,0,0,0,0\n"
    with pytest.raises(InconsistentPwoRow):
        read_design(text)


def test_read_nontransitive_row():
    text = "x1,x2,x3,z12,z13,z23\n1/3,1/3,1/3,1,-1,1\n"
    with pytest.raises(InconsistentPwoRow):
        read_design(text)


def test_read_bad_sign_value():
    text = "x1,x2,x3,z12,z13,z23\n1/3,1/3,1/3,2,1,1\n"
    with pytest.raises(BadPwoValue):
        read_design(text)


def test_read_row_length_mismatch():
    text = "x1,x2,x3\n1,0\n"
    with pytest.raises(RowLengthMismatch):
        read_design(text)


def test_read_malformed_headers():
    for header in (
        "b1,b2",
        "x1,x3",
        "x1,x2,z13,z12",
        "x1,x2,A,junk",
        "a1,a2,a3",  # amount designs carry the A column
        "",
        "x1,x2,x3,A",  # a header with no rows
        "a1,a2,z12,A",
        "x1,x2,x3,z12,z13",  # an incomplete pair set
        "x1,x2,z12,A,A",
        "x1,x2,A,z12",  # A comes last
        "a1,x2,A",
        "x1,x2,x3,x4,x5,x6,x7,x8,x9,x10",  # pair labels cover 9 components
    ):
        with pytest.raises(MalformedHeader):
            read_design(header + "\n")


def test_amount_read_recomputes_totals(table5):
    again = read_design(write_design(table5))
    for run in again.runs:
        assert run.amount == sum(run.point.values, Fraction(0))


def test_amount_read_checks_the_total_column():
    with pytest.raises(AmountMismatch):
        read_design("a1,a2,A\n1/2,1/2,7\n")
    assert read_design("a1,a2,A\n1/2,1/2,1\n").runs[0].amount == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(built_designs())
def test_round_trip_property(design):
    again = read_design(write_design(design))
    assert again == design
    validate_design(again)


def per_cell_write(design: Design, decimals: int | None) -> str:
    """The reference writer: every cell of every run formatted on its own."""
    lines = [",".join(_columns(design.kind, design.m, design.is_expanded, design.has_amounts))]
    for run in design.runs:
        cells = [format_value(v, decimals) for v in run.point.values]
        if design.is_expanded:
            cells += [str(z) for z in run.pwo]
        if design.has_amounts:
            cells.append(format_value(run.amount, decimals))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(built_designs())
def test_writer_matches_a_per_cell_reference(design):
    # the writer renders each distinct object once; neither sharing nor
    # its absence may change a byte
    unshared = fresh(design)
    for decimals in (None, 0, 1, 2, 3, 4, 5, 6):
        want = per_cell_write(design, decimals)
        assert write_design(design, decimals) == want
        assert write_design(unshared, decimals) == want


@pytest.mark.parametrize(
    "text, error",
    [
        ("x1,x2\n-1/2,3/2\n", NegativeEntry),
        ("a1,a2,A\n-1,2,1\n", NegativeEntry),
        ("x1,x2\n1/4,1/4\n", SumNotOne),
        ("x1,x2\n1,0,0\n", RowLengthMismatch),
        ("x1,x2\n1,zero\n", MalformedHeader),
        ("x1,x2,z12\n1/2,1/2,1/2\n", BadPwoValue),
        ("x1,x2,z12\n1/2,1/2,0\n", InconsistentPwoRow),
        ("a1,a2,A\n1/2,1/2,7\n", AmountMismatch),
        # the first faulty row is reported, whatever faults come later
        ("x1,x2,z12\n1/2,0,1\n1/2,1/2,2\n", SumNotOne),
        # every cell of a row is read before its signs are judged
        ("x1,x2,z12,A\n1/2,1/2,1/2,A\n", MalformedHeader),
    ],
    ids=["negative_proportion", "negative_amount", "sum_half", "row_length",
         "unreadable", "sign_half", "masking", "amount_total", "first_fault", "unreadable_after_bad_sign"],
)
def test_row_errors_keep_their_class_and_name_the_line(text, error):
    with pytest.raises(error, match="^line 2: "):
        read_design(text)


@pytest.mark.parametrize(
    "text, message",
    [("x1,A\n1,1\n5\n", "line 3: expected 2 values, got 1"), ("a1,A\n1,1\n\n1\n", "line 4: expected 2 values, got 1")],
    ids=["proportion", "amount"],
)
def test_a_row_with_no_comma_is_one_value_short(text, message):
    # with an A column the row has no cells before its A cell, so it is
    # refused for its width before any cell is read
    with pytest.raises(RowLengthMismatch) as got:
        read_design(text)
    assert str(got.value) == message


_SEEN_SIGNS = "x1,x2,x3,z12,z13,z23,A\n1/3,1/3,1/3,1,1,1,1\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        (_SEEN_SIGNS + "1/3,1/3,1/3,1,1/2,1,1\n", BadPwoValue, "line 3: sign entries must be integers, got 1,1/2,1"),
        (_SEEN_SIGNS + "1/3,1/3,1/3,1,1/2,1,A\n", MalformedHeader, "line 3: unreadable value 'A'"),
    ],
    ids=["bad_sign", "unreadable_wins"],
)
def test_bad_sign_among_seen_sign_cells(text, error, message):
    # the row's other sign cells were decoded on line 2; the fault still
    # names the whole sign vector, and an unreadable cell still wins
    with pytest.raises(error) as got:
        read_design(text)
    assert str(got.value) == message


_HEAD = "x1,x2,x3,z12,z13,z23,A\n1/3,1/3,1/3,1,1,1,1\n"
_AMOUNT_HEAD = "a1,a2,a3,z12,z13,z23,A\n1,1,1,1,1,1,3\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        (_HEAD + "1/3,1/3,1/3,1,1,1,-1\n", NegativeEntry, "line 3: total amount A is negative: -1"),
        (_HEAD + "1/3,1/3,1/3,1,1,1,x\n", MalformedHeader, "line 3: unreadable value 'x'"),
        (_AMOUNT_HEAD + "1,1,1,1,1,1,4\n", AmountMismatch, "line 3: A is 4 but the amounts sum to 3"),
        (_HEAD + "1/3,1/3,1/3,1,1,1,1,1\n", RowLengthMismatch, "line 3: expected 7 values, got 8"),
        ("x1,x2,z12\n1/2,1/2,1\n1/2,1/2,1,1\n", RowLengthMismatch, "line 3: expected 3 values, got 4"),
        ("a1,A\n2,2\n2,-2\n", NegativeEntry, "line 3: total amount A is negative: -2"),
    ],
    ids=["negative_a", "unreadable_a", "amount_total", "extra_cell", "extra_cell_no_a", "one_component"],
)
def test_row_repeating_an_earlier_head_checks_its_a_and_width(text, error, message):
    # line 3 repeats line 2's cells up to its A, which the reader checked
    # once; the rest of the row is still read and checked
    with pytest.raises(error) as got:
        read_design(text)
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize(
    "cell, sign",
    [("1", 1), ("1.0", 1), ("+1", 1), ("2/2", 1), (" 1 ", 1), ("-1", -1), (" -1 ", -1), ("-1.0", -1), ("-2/2", -1)],
)
def test_sign_cells_read_as_ints(cell, sign):
    # the ordering of (1, 2) is 1 before 2; cell text decides the sign only
    design = read_design(f"x1,x2,z12\n1/2,1/2,{cell}\n1/2,1/2,{-sign}\n")
    assert [run.pwo for run in design.runs] == [(sign,), (-sign,)]
    assert all(type(z) is int for run in design.runs for z in run.pwo)
    assert write_design(design) == f"x1,x2,z12\n1/2,1/2,{sign}\n1/2,1/2,{-sign}\n"


def test_error_names_the_row_after_good_rows():
    with pytest.raises(SumNotOne, match="^line 4: "):
        read_design("x1,x2\n1,0\n0,1\n1/3,1/3\n")


def test_error_names_the_physical_line_after_blank_lines():
    with pytest.raises(SumNotOne, match="^line 5: "):
        read_design("x1,x2\n1,0\n\n\n1/2,1/3\n")


def test_negative_total_amount_is_rejected():
    text = "x1,x2,A\n1,0,-1\n0,1,-1\n1/2,1/2,2\n1/2,1/2,-1\n1,0,2\n0,1,2\n"
    with pytest.raises(NegativeEntry, match="^line 2: "):
        read_design(text)


def _run(values, kind=Kind.PROPORTION, pwo=None, amount=None):
    return OofARun(DesignPoint(values, kind), pwo=pwo, amount=amount)


@pytest.mark.parametrize(
    "text, error, message",
    [
        # a validity fault, then a format fault on a later line
        ("x1,x2\n1/4,1/4\n1,zero\n", SumNotOne, "line 2: proportions sum to 1/2, expected exactly 1"),
        ("x1,x2,x3,z12,z13,z23,A\n1/3,1/3,1/3,1,-1,1,1\n1/3,1/3,1/3,1,1,1\n", InconsistentPwoRow,
         "line 2: sign pattern is not induced by any addition order"),
        ("a1,a2,A\n1,1,2\n\n1,1,3\n1,1,2,2\n", AmountMismatch, "line 4: A is 3 but the amounts sum to 2"),
        # a format fault, then a validity fault on a later line
        ("x1,x2\n1,zero\n1/4,1/4\n", MalformedHeader, "line 2: unreadable value 'zero'"),
        ("x1,x2,z12,A\n1/2,1/2,1/2,1\n1/2,1/2,0,1\n", BadPwoValue, "line 2: sign entries must be integers, got 1/2"),
        ("x1,x2,A\n1,0,1\n\n1,0\n1,0,-1\n", RowLengthMismatch, "line 4: expected 3 values, got 2"),
    ],
    ids=["sum_then_unreadable", "cyclic_then_width", "total_then_width",
         "unreadable_then_sum", "sign_value_then_masking", "width_then_negative_a"],
)
def test_first_faulty_line_is_named_whichever_fault_comes_second(text, error, message):
    # format faults and validity faults on different lines: the earlier
    # line's fault is raised, with its class and its message
    with pytest.raises(OamixError) as got:
        read_design(text)
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize(
    "run, error, message",
    [
        (_run(("1/3",) * 3, pwo=(1, -1, 1)), InconsistentPwo, "sign pattern is not induced by any addition order"),
        (_run((1, 0), amount=-1), NegativeEntry, "total amount A is negative: -1"),
        (_run(("1/4", "1/4")), SumNotOne, "proportions sum to 1/2, expected exactly 1"),
    ],
    ids=["cyclic_signs", "negative_total", "sum_half"],
)
def test_validate_run_raises_the_bare_error(run, error, message):
    # no "run 1:" prefix, and sign-order faults keep their plain class
    with pytest.raises(OamixError) as got:
        validate_run(run)
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: read_design(None), "design text must be a str, got NoneType"),
        (lambda: read_design(b"x1,x2\n1,0\n"), "design text must be a str, got bytes"),
        (lambda: validate_design(None), "design must be a Design, got NoneType"),
        (lambda: validate_design([]), "design must be a Design, got list"),
        (lambda: validate_run(None), "run must be an OofARun, got NoneType"),
    ],
    ids=["read_None", "read_bytes", "validate_design_None", "validate_design_list", "validate_run_None"],
)
def test_reader_and_checks_refuse_the_wrong_type(call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "good, bad, error",
    [
        (_run(("1/2", "1/2"), Kind.AMOUNT, amount=1), _run(("1/2", "1/2"), Kind.AMOUNT, amount=3),
         AmountMismatch),
        (_run((1, 0), amount=1), _run((1, 0), amount=-1), NegativeEntry),
        (_run(("1/3",) * 3, pwo=(1, 1, 1)), _run(("1/3",) * 3, pwo=(1, -1, 1)), InconsistentPwoRow),
        (_run((0, "1/2", "1/2"), pwo=(0, 0, 1)), _run((0, "1/2", "1/2"), pwo=(1, 0, 1)),
         InconsistentPwoRow),
    ],
    ids=["amount_total", "negative_total", "cyclic_signs", "masking"],
)
def test_validate_design_and_reader_agree(good, bad, error):
    # runs are refused as a Design exactly as their file is by read_design
    m, kind, runs = bad.point.m, bad.point.kind, (good, bad)
    with pytest.raises(error, match="^run 2: ") as built:
        Design(m=m, kind=kind, runs=runs)
    with pytest.raises(error, match="^line 3: ") as read:
        read_design(runs_text(m, kind, runs))
    assert type(built.value) is type(read.value) is error
    validate_design(Design(m=m, kind=kind, runs=(good,)))


@pytest.mark.parametrize("name, decimals", [("table1", 2), ("table3", 2)])
def test_rounded_display_of_thirds_is_rejected(request, name, decimals):
    display = write_design(request.getfixturevalue(name), decimals=decimals)
    with pytest.raises(SumNotOne):
        read_design(display)


def test_header_grammar_is_the_writers():
    # every header the writer can emit reads back as the shape it came from
    for kind in Kind:
        for m in range(2, 10):
            for signs in (False, True):
                for amount in (False, True) if kind is Kind.PROPORTION else (True,):
                    header = ",".join(_columns(kind, m, signs, amount))
                    assert _parse_header(header) == (kind, m, signs, amount)


@pytest.mark.parametrize("kind", list(Kind))
def test_empty_design_is_refused_both_ways(kind):
    # the writer refuses what the reader would refuse, with the same words
    with pytest.raises(MalformedHeader) as written:
        write_design(Design(2, kind, ()))
    header = ",".join(_columns(kind, 2, False, kind is Kind.AMOUNT))
    with pytest.raises(MalformedHeader) as read:
        read_design(header + "\n")
    assert str(written.value) == str(read.value) == "design file has a header but no rows"


@pytest.mark.parametrize("kind", list(Kind))
def test_one_component_design_round_trips(kind):
    point = DesignPoint((Fraction(3, 2) if kind is Kind.AMOUNT else 1,), kind)
    amount = Fraction(3, 2) if kind is Kind.AMOUNT else None
    design = Design(1, kind, (OofARun(point, amount=amount), OofARun(point, amount=amount)))
    assert read_design(write_design(design)) == design


def test_shared_point_with_a_wrong_total_names_its_run():
    # every run holds the same point object, so only the per-run A check
    # can tell the third run from the first two
    point = DesignPoint((Fraction(1, 2), Fraction(1, 2)), Kind.AMOUNT)
    runs = (OofARun(point, amount=1), OofARun(point, amount=1), OofARun(point, amount=3), OofARun(point, amount=1))
    assert len({id(run.point) for run in runs}) == 1
    with pytest.raises(AmountMismatch, match="^run 3: A is 3 but the amounts sum to 1$"):
        Design(2, Kind.AMOUNT, runs)
    with pytest.raises(AmountMismatch, match="^line 4: A is 3 but the amounts sum to 1$"):
        read_design(runs_text(2, Kind.AMOUNT, runs))


def test_cyclic_signs_in_the_last_level_block_name_their_run(table3):
    # a crossed design repeats each point object once per level; put the
    # only cyclic pattern in the last block, on a point earlier runs hold
    runs = list(table3.runs)
    idx = max(i for i, run in enumerate(runs) if len(run.point.support()) == 3)
    runs[idx] = OofARun(runs[idx].point, pwo=(1, -1, 1), amount=runs[idx].amount)
    assert sum(run.point is runs[idx].point for run in runs) == 18
    assert idx >= 2 * len(runs) // 3
    with pytest.raises(InconsistentPwoRow, match=f"^run {idx + 1}: "):
        Design(3, Kind.PROPORTION, tuple(runs))
    with pytest.raises(InconsistentPwoRow, match=f"^line {idx + 2}: "):
        read_design(runs_text(3, Kind.PROPORTION, runs))


@st.composite
def mutated_runs(draw):
    """The m, kind and runs of a built design with one run changed: its
    signs redrawn, its A redrawn, or its point swapped for another run's
    point object."""
    design = draw(built_designs())
    runs = list(design.runs)
    idx = draw(st.integers(0, len(runs) - 1))
    run = runs[idx]
    choices = ["point"] + (["signs"] if design.is_expanded else []) + (["amount"] if design.has_amounts else [])
    what = draw(st.sampled_from(choices))
    if what == "signs":
        pwo = tuple(draw(st.lists(st.integers(-1, 1), min_size=len(run.pwo), max_size=len(run.pwo))))
        runs[idx] = OofARun(run.point, pwo=pwo, amount=run.amount)
    elif what == "amount":
        amount = draw(st.fractions(min_value=-3, max_value=50, max_denominator=12))
        runs[idx] = OofARun(run.point, pwo=run.pwo, amount=amount)
    else:
        other = runs[draw(st.integers(0, len(runs) - 1))]
        runs[idx] = OofARun(other.point, pwo=run.pwo, amount=run.amount)
    return design.m, design.kind, tuple(runs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_runs())
def test_memoized_checks_agree_with_a_plain_loop(mutated):
    m, kind, runs = mutated
    expected = first_fault(runs)
    for check, where, offset in ((lambda: validate_design(Design(m, kind, runs)), "run", 0),
                                 (lambda: read_design(runs_text(m, kind, runs)), "line", 1)):
        if expected is None:
            check()
            continue
        idx, exc = expected
        with pytest.raises(OamixError, match=f"^{where} {idx + offset}: ") as got:
            check()
        assert type(got.value) is type(located(where, exc))


_FAULTS = json.loads((Path(__file__).parent / "reader_faults.json").read_text())


@pytest.mark.parametrize("name", reader_faults.FILES)
def test_corrupted_files_get_the_recorded_error(name):
    # every corruption of the file gets the error class, message and line
    # (or, when it reads, the written-back design) that were recorded
    recorded = _FAULTS[name]
    got = {what: reader_faults.outcome(bad) for what, bad in reader_faults.corruptions(reader_faults.design_text(name))}
    assert got.keys() == recorded.keys()
    assert {what: out for what, out in got.items() if out != recorded[what]} == {}


def test_valid_input_is_checked_in_bulk_only(monkeypatch):
    # the first faulty row or run is sought only when the bulk check
    # fails, so no valid file or design reaches the search or the walk
    def refused(*args):
        raise AssertionError("a valid input was searched for its first fault")

    monkeypatch.setattr(io, "_raise_faulty_row", refused)
    monkeypatch.setattr(oofa, "_raise_faulty_run", refused)
    for name in ("table1", "table2", "table3", "table5", "m6_crossed", "m6_scaled"):
        design = read_design(reader_faults.design_text(name))
        validate_design(Design(design.m, design.kind, design.runs))
    # the patched helpers are the ones a fault reaches
    lines = reader_faults.design_text("table5").splitlines()
    design = read_design("\n".join(lines))
    # a digit appended to the second row's A breaks its sum
    lines[2] += "1"
    with pytest.raises(AssertionError, match="searched"):
        read_design("\n".join(lines))
    run = design.runs[1]
    with pytest.raises(AssertionError, match="searched"):
        validate_design(Design(design.m, design.kind, (OofARun(run.point, run.pwo, run.amount + 1),)))


# each canonical sign cell, and texts of the same sign the reader also accepts
_SPELLINGS = {"1": ("+1", "1.0", "2/2", " 1"), "-1": (" -1", "-1.0", "-2/2", "-1 "), "0": ("+0", "0.0", "0/2", " 0 ")}


@pytest.mark.parametrize("name", ["m6_crossed", "table3"])
def test_noncanonical_sign_cells_read_as_the_canonical_design(name):
    text = reader_faults.design_text(name)
    lines = text.splitlines()
    n_signs = sum(col.startswith("z") for col in lines[0].split(","))
    m = len(lines[0].split(",")) - n_signs - 1
    respelled = [lines[0]]
    for row, line in enumerate(lines[1:]):
        cells = line.split(",")
        for at in range(m, m + n_signs):
            # a different spelling per cell and row, the canonical one among them
            spellings = (cells[at], *_SPELLINGS[cells[at]])
            cells[at] = spellings[(row + at) % len(spellings)]
        respelled.append(",".join(cells))
    noncanonical = "\n".join(respelled) + "\n"
    assert noncanonical != text
    canonical = read_design(text)
    again = read_design(noncanonical)
    assert again == canonical
    assert all(type(z) is int for pwo in again._index["pwo"][0] for z in pwo)
    assert write_design(again) == text


@pytest.mark.parametrize(
    "cell, message",
    [
        ("2", "line 3: sign entries must be -1, 0 or +1, got 2,1,1"),
        (" 2", "line 3: sign entries must be -1, 0 or +1, got 2,1,1"),
        ("2.0", "line 3: sign entries must be -1, 0 or +1, got 2,1,1"),
        ("1/2", "line 3: sign entries must be integers, got 1/2,1,1"),
    ],
)
def test_noncanonical_sign_cells_that_are_no_sign_are_refused(cell, message):
    text = f"x1,x2,x3,z12,z13,z23,A\n1/3,1/3,1/3,1,1,1,1\n1/3,1/3,1/3,{cell},1,1,1\n"
    with pytest.raises(BadPwoValue) as got:
        read_design(text)
    assert str(got.value) == message


def interned(design: Design) -> Design:
    """The design rebuilt with one object per distinct value: every equal
    Fraction, across points and amounts, is the same object."""
    one: dict[Fraction, Fraction] = {}

    def shared(value: Fraction) -> Fraction:
        return one.setdefault(value, value)

    runs = tuple(
        OofARun(
            DesignPoint(tuple(shared(v) for v in run.point.values), run.point.kind),
            run.pwo,
            None if run.amount is None else shared(run.amount),
        )
        for run in design.runs
    )
    return Design(design.m, design.kind, runs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(built_designs())
def test_writer_text_does_not_depend_on_value_sharing(design):
    # the writer renders each distinct value object once per call; equal
    # values as one shared object or as distinct objects give the same text
    shared, unshared = interned(design), fresh(design)
    for decimals in (None, 2):
        want = per_cell_write(design, decimals)
        assert write_design(shared, decimals) == write_design(unshared, decimals) == want
