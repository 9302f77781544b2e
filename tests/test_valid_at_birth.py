"""Every Design is valid at birth.

A design built by calling `Design` is checked when it is built, so every
design that exists passes ``validate_run`` on each run and round-trips
through its file; runs that do not are refused at construction, naming
the first faulty run as a plain walk over them does.
"""

from fractions import Fraction

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
    pwo_pairs,
    read_design,
    write_design,
)
from oamix.errors import located

from run_lists import first_fault, runs_text
from test_distinct_values import built_designs


def _faults(m: int, run: OofARun) -> dict:
    """The faults `run` can be given, by name, each as a function of a
    draw that returns the faulty run."""
    point, pwo, amount = run.point, run.pwo, run.amount
    values, support = point.values, point.support()

    def with_values(at: int, value: Fraction) -> OofARun:
        return OofARun(DesignPoint(values[:at] + (value,) + values[at + 1 :], point.kind), pwo, amount)

    def with_sign(at: int, sign: int) -> OofARun:
        return OofARun(point, pwo[:at] + (sign,) + pwo[at + 1 :], amount)

    def negative(draw) -> OofARun:
        at = draw(st.integers(0, m - 1))
        return with_values(at, -1 - values[at])

    faults = {"negative entry": negative}
    if point.kind is Kind.PROPORTION:
        faults["sum"] = lambda draw: with_values(0, values[0] + Fraction(1, draw(st.integers(1, 9))))
    if amount is not None:
        faults["negative A"] = lambda draw: OofARun(point, pwo, -1 - amount)
    if point.kind is Kind.AMOUNT:
        faults["A not the sum"] = lambda draw: OofARun(point, pwo, amount + Fraction(1, draw(st.integers(1, 9))))
    if pwo is not None:
        pairs = pwo_pairs(m)
        within = [at for at, (j, k) in enumerate(pairs) if j in support and k in support]
        outside = [at for at in range(len(pairs)) if at not in within]
        faults["short signs"] = lambda draw: OofARun(point, pwo[: draw(st.integers(0, len(pwo) - 1))], amount)
        faults["sign not -1, 0 or 1"] = lambda draw: with_sign(
            draw(st.integers(0, len(pwo) - 1)), draw(st.sampled_from((2, -2)))
        )
        if within:
            faults["zero within the support"] = lambda draw: with_sign(draw(st.sampled_from(within)), 0)
        if outside:
            faults["nonzero outside the support"] = lambda draw: with_sign(
                draw(st.sampled_from(outside)), draw(st.sampled_from((1, -1)))
            )
        if len(support) >= 3:
            # the first and third added swapped: first before second before
            # third, and third before first
            order = ordering_from_pwo(support, pwo)
            cycle = pairs.index(tuple(sorted((order[0], order[2]))))
            faults["cyclic signs"] = lambda draw: with_sign(cycle, -pwo[cycle])
    return faults


@st.composite
def run_lists(draw):
    """The m, kind and runs of a library design, with up to two runs given
    one fault each: a fault drawn from those its runs admit, then a run
    that admits it."""
    design = draw(built_designs())
    runs = list(design.runs)
    faults = [_faults(design.m, run) for run in runs]
    names = sorted(set().union(*faults))
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(names))
        n = draw(st.sampled_from([n for n, admitted in enumerate(faults) if name in admitted]))
        runs[n] = faults[n][name](draw)
    return design.m, design.kind, runs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(run_lists())
def test_a_design_is_refused_as_a_walk_over_its_runs_refuses_them_or_round_trips(drawn):
    m, kind, runs = drawn
    fault = first_fault(runs)
    if fault is None:
        design = Design(m, kind, runs)
        text = write_design(design)
        assert text == runs_text(m, kind, runs)
        assert read_design(text) == design
        return
    n, exc = fault
    want = located(f"run {n}", exc)
    with pytest.raises(OamixError) as got:
        Design(m, kind, runs)
    assert type(got.value) is type(want) and str(got.value) == str(want)
