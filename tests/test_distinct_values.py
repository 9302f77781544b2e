"""A design's shared values cost what its distinct values cost.

Construction and the reader let runs share one point, sign tuple and
amount object; a design indexes its distinct objects once, and the model
matrix, the writer, the checks and the design transforms convert, render,
check or scale each distinct object once.  The outputs must not depend on
the sharing: a design rebuilt with fresh objects in every run gives the
same matrices, reports and designs.
"""

import copy
import dataclasses
import json
import pickle
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamix import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    build_spec,
    cross_amounts,
    evaluate_design,
    fds_curve,
    model_matrix,
    oofa_expand,
    project_columns,
    pwo_from_ordering,
    read_design,
    reference_design,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    validate_design,
    write_design,
)
from oamix import cli, core, evaluate, io, models, oofa
from oamix.errors import InvalidParameter, OamixError, located
from oamix.models import coded_model_matrix
from run_lists import first_fault, runs_text

LEVELS = (Fraction(1, 2), Fraction(5, 4), Fraction(2))


def fresh(design: Design) -> Design:
    """The design rebuilt with new objects in every run: a new DesignPoint
    of new Fractions, a new sign tuple and a new amount."""

    def new(value: Fraction) -> Fraction:
        return Fraction(value.numerator, value.denominator)

    runs = tuple(
        OofARun(
            DesignPoint(tuple(new(v) for v in run.point.values), run.point.kind),
            None if run.pwo is None else tuple(list(run.pwo)),
            None if run.amount is None else new(run.amount),
        )
        for run in design.runs
    )
    again = Design(design.m, design.kind, runs)
    for field in ("point", "pwo", "amount"):
        values = [getattr(run, field) for run in again.runs]
        if values[0] is not None:
            assert len({id(v) for v in values}) == len(values)
    return again


@st.composite
def built_designs(draw):
    """A lattice or centroid base, maybe projected to amounts, maybe expanded
    over orderings, then maybe crossed with amount levels or scaled."""
    m = draw(st.integers(2, 5))
    if draw(st.booleans()):
        design = simplex_lattice(m, draw(st.integers(1, 3)))
    else:
        design = simplex_centroid(m)
    if draw(st.booleans()):
        design = project_columns(design, draw(st.sets(st.integers(1, m), min_size=1, max_size=m - 1)))
    if design.m >= 2 and draw(st.booleans()):
        design = oofa_expand(design)
    if draw(st.booleans()):
        if design.kind is Kind.AMOUNT:
            scale = draw(st.fractions(min_value=Fraction(1, 12), max_value=500, max_denominator=12))
            design = scale_amounts(design, scale)
        else:
            levels = st.fractions(min_value=0, max_value=50, max_denominator=12)
            design = cross_amounts(design, draw(st.lists(levels, min_size=1, max_size=3, unique=True)))
    return design


@pytest.fixture(scope="module")
def m6_bases():
    return {
        "lattice": simplex_lattice(6, 4),
        "centroid": project_columns(simplex_centroid(6), {6}),
    }


@pytest.fixture(scope="module")
def m6_designs(m6_bases):
    crossed = cross_amounts(oofa_expand(m6_bases["lattice"]), LEVELS)
    scaled = scale_amounts(oofa_expand(m6_bases["centroid"]), 500)
    return {
        "crossed": crossed,
        "crossed_read": read_design(write_design(crossed)),
        "scaled": scaled,
        "scaled_read": read_design(write_design(scaled)),
    }


@pytest.fixture(scope="module")
def designs(m6_designs):
    tables = {name: reference_design(name) for name in ("table1", "table2", "table3", "table5")}
    return {**tables, **m6_designs}


DESIGN_NAMES = ("table1", "table2", "table3", "table5", "crossed", "crossed_read", "scaled", "scaled_read")


def _outcome(build, design, spec):
    try:
        return build(design, spec).X
    except OamixError as exc:
        return type(exc)


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_model_matrices_do_not_depend_on_sharing(designs, name):
    shared = designs[name]
    unshared = fresh(shared)
    built = 0
    for k in range(1, 9):
        for reduction in ("cyclic", "keep_all"):
            spec = build_spec(f"eq{k}", shared.m, reduction)
            for build in (model_matrix, coded_model_matrix):
                want, got = _outcome(build, shared, spec), _outcome(build, unshared, spec)
                if isinstance(want, np.ndarray):
                    built += 1
                    assert isinstance(got, np.ndarray) and np.array_equal(got, want), (k, reduction, build)
                else:
                    assert got is want
    # every model needs total amounts, which table1 and table2 lack
    assert built > 0 or not shared.has_amounts


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_reports_do_not_depend_on_sharing(designs, name):
    shared = designs[name]
    unshared = fresh(shared)
    kinds = ("eq3", "eq4", "eq7", "eq8") if shared.kind is Kind.AMOUNT else ("eq1", "eq2", "eq5", "eq6")
    for kind in kinds:
        spec = build_spec(kind, shared.m)
        for coding in ("coded", "raw"):
            try:
                want = evaluate_design(shared, spec, coding=coding)
            except OamixError as exc:
                with pytest.raises(type(exc)):
                    evaluate_design(unshared, spec, coding=coding)
                continue
            got = evaluate_design(unshared, spec, coding=coding)
            # JSON text, so that NaN entries compare equal
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), (kind, coding)


@pytest.mark.parametrize(
    "name, kind", [("table3", "eq6"), ("table3", "eq5"), ("crossed", "eq5"), ("crossed_read", "eq6")]
)
def test_fds_does_not_depend_on_sharing(designs, name, kind):
    # whether a design is crossed is decided by value, so equal designs
    # built from other objects take the same product path, bit for bit
    from oamix.evaluate import _crossed_factors

    shared = designs[name]
    unshared = fresh(shared)
    spec = build_spec(kind, shared.m)
    for design in (shared, unshared):
        assert _crossed_factors(design, spec) is not None
    want = fds_curve(shared, spec, 3000, seed=4).variances
    assert np.array_equal(fds_curve(unshared, spec, 3000, seed=4).variances, want)


@st.composite
def crossed_designs(draw):
    """A lattice or centroid base, maybe expanded over orderings, maybe cut
    to some of its runs with repeats, crossed with 2 to 4 amount levels
    (0 allowed) in drawn order, maybe with its runs shuffled; then built in
    code with shared objects, rebuilt with fresh ones, or read back."""
    m = draw(st.integers(2, 4))
    base = simplex_lattice(m, draw(st.integers(1, 3))) if draw(st.booleans()) else simplex_centroid(m)
    if draw(st.booleans()):
        base = oofa_expand(base)
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=2 * len(base)))
        base = Design(base.m, base.kind, tuple(base.runs[i] for i in picks))
    levels = st.fractions(min_value=0, max_value=50, max_denominator=12)
    design = cross_amounts(base, draw(st.lists(levels, min_size=2, max_size=4, unique=True)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(len(design))))
        design = Design(design.m, design.kind, tuple(design.runs[i] for i in order))
    form = draw(st.sampled_from(["shared", "unshared", "read"]))
    if form == "unshared":
        return fresh(design)
    return read_design(write_design(design)) if form == "read" else design


def _report_or_error(design, spec, coding):
    try:
        return evaluate_design(design, spec, coding=coding)
    except OamixError as exc:
        return exc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(crossed_designs(), st.sampled_from(["eq1", "eq2", "eq5", "eq6"]), st.sampled_from(["raw", "coded"]))
def test_crossed_report_agrees_with_the_full_path(design, eq, coding):
    # the factored report against the one read from the full matrices;
    # where those raise, the same class and message
    spec = build_spec(eq, design.m)
    got = _report_or_error(design, spec, coding)
    with mock.patch("oamix.evaluate._crossed_factors", return_value=None):
        want = _report_or_error(design, spec, coding)
    if isinstance(want, OamixError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, OamixError), got
    got, want = got.to_dict(), want.to_dict()
    got_terms, want_terms = got.pop("terms"), want.pop("terms")
    for key in ("n_runs", "n_params", "coding", "signal_sd", "alpha"):
        assert got.pop(key) == want.pop(key)
    got.update(got.pop("d_criteria"))
    want.update(want.pop("d_criteria"))
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert [t["label"] for t in got_terms] == [t["label"] for t in want_terms]
    for field in ("se", "r2", "power"):
        a, b = (np.array([t[field] for t in terms]) for terms in (got_terms, want_terms))
        # an R^2 is a share of one sum of squares, so near 0 it is held
        # to 1e-12 of that sum
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 if field == "r2" else 0)


def _transforms(m6_bases, m6_designs):
    table1 = oofa_expand(simplex_lattice(3, 3))
    table2 = oofa_expand(project_columns(simplex_centroid(4), {4}))
    expanded_lattice = oofa_expand(m6_bases["lattice"])
    expanded_centroid = oofa_expand(m6_bases["centroid"])
    return [
        (oofa_expand, simplex_lattice(3, 3)),
        (oofa_expand, project_columns(simplex_centroid(4), {4})),
        (oofa_expand, m6_bases["lattice"]),
        (oofa_expand, m6_bases["centroid"]),
        # runs crossed before expansion share their amount objects too
        (oofa_expand, cross_amounts(simplex_lattice(3, 3), (Fraction(3, 4), Fraction(3)))),
        (lambda d: cross_amounts(d, (Fraction(3, 4), Fraction(3, 2), Fraction(3))), table1),
        (lambda d: cross_amounts(d, LEVELS), expanded_lattice),
        (lambda d: scale_amounts(d, 500), table2),
        (lambda d: scale_amounts(d, 500), expanded_centroid),
        (lambda d: scale_amounts(d, Fraction(7, 3)), m6_designs["scaled_read"]),
    ]


def test_transforms_do_not_depend_on_sharing(m6_bases, m6_designs):
    for transform, design in _transforms(m6_bases, m6_designs):
        want, got = transform(design), transform(fresh(design))
        assert got == want
        assert write_design(got) == write_design(want)


def test_model_matrix_converts_each_distinct_value_once(monkeypatch, m6_designs):
    # a read-back crossed design of the test's own holds 126 point objects
    # of 6 components and 3 amount objects; signs are ints and need no
    # Fraction conversion.  The floats of each run field are kept in the
    # design's memo, so building raw, coded and the crossed parts converts
    # each distinct value once in all, and a later build, of these or of
    # another spec's matrices, converts nothing
    design = read_design(write_design(m6_designs["crossed"]))
    assert len(design) == 2448
    assert len({id(run.point) for run in design.runs}) == 126
    calls = 0
    to_float = Fraction.__float__

    def counting(self):
        nonlocal calls
        calls += 1
        return to_float(self)

    monkeypatch.setattr(Fraction, "__float__", counting)
    builds = (model_matrix, coded_model_matrix, lambda design, spec: evaluate._crossed_factors(design, spec, True))
    eq5 = build_spec("eq5", 6)
    first = [build(design, eq5) for build in builds]
    assert first[2] is not None
    assert 0 < calls <= 126 * 6 + 3
    calls = 0
    assert all(build(design, eq5) is built for build, built in zip(builds, first))
    for build in (model_matrix, coded_model_matrix):
        build(design, build_spec("eq6", 6))
    assert calls == 0


def test_scale_shares_one_scaled_point_per_point(m6_bases):
    expanded = oofa_expand(m6_bases["centroid"])
    scaled = scale_amounts(expanded, 500)
    assert len(scaled) == 651
    assert len({id(run.point) for run in expanded.runs}) == 63
    assert len({id(run.point) for run in scaled.runs}) == 63
    assert len({id(run.amount) for run in scaled.runs}) == len({id(run.amount) for run in expanded.runs})


def test_scale_multiplies_each_distinct_value_object_once(monkeypatch, m6_bases):
    # the projected centroid's points share one zero and one share per
    # subset size, and each run carries its point's own total
    expanded = oofa_expand(m6_bases["centroid"])
    points, amounts = expanded._index["point"][0], expanded._index["amount"][0]
    objects = {id(v) for point in points for v in point.values} | set(map(id, amounts))
    want = Design(expanded.m, expanded.kind, tuple(
        OofARun(DesignPoint(tuple(v * 500 for v in run.point.values), run.point.kind), run.pwo, run.amount * 500)
        for run in expanded.runs
    ))
    calls = 0
    multiply = Fraction.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    scaled = scale_amounts(expanded, 500)
    assert calls == len(objects) < 63 * 6
    monkeypatch.undo()
    assert scaled == want
    assert write_design(scaled) == write_design(want)


def test_centroid_shares_one_zero_and_one_share_per_subset_size():
    design = simplex_centroid(6)
    ids_by_value: dict = {}
    for run in design.runs:
        for v in run.point.values:
            ids_by_value.setdefault(v, set()).add(id(v))
    assert set(ids_by_value) == {Fraction(0)} | {Fraction(1, size) for size in range(1, 7)}
    assert all(len(ids) == 1 for ids in ids_by_value.values())


def _per_run_matrix(design: Design, spec, coded: bool) -> np.ndarray:
    """The model matrix by a walk over the runs, each value converted as
    it is met, with no memo."""
    models._check_design(design, spec)
    runs = design.runs
    comps = np.array([[float(v) for v in run.point.values] for run in runs]).reshape(len(runs), spec.m)
    signs = np.array([run.pwo for run in runs], dtype=float) if spec.kind.has_pwo else None
    amounts = None
    if spec.kind.uses_amounts:
        if coded:
            comps = np.column_stack([models._code_column(comps[:, i]) for i in range(spec.m)])
    else:
        amounts = np.array([float(run.amount) for run in runs])
        if coded:
            amounts = models._code_column(amounts)
    return models.term_columns(spec, comps, signs, amounts)


def _per_run_base_rows(design: Design, spec) -> np.ndarray | None:
    """X_base by a walk over the runs: the base spec's rows at the runs of
    the first run's level, when every level holds one multiset of (point
    values, signs); None otherwise."""
    models._check_design(design, spec)
    if len(spec._parts) == 1:
        return None
    runs = design.runs
    by_level: dict = {}
    for run in runs:
        key = (tuple(run.point.values), run.pwo)
        by_level.setdefault(run.amount, Counter())[key] += 1
    if any(level != by_level[runs[0].amount] for level in by_level.values()):
        return None
    first = [run for run in runs if run.amount == runs[0].amount]
    base = spec._parts[0]
    comps = np.array([[float(v) for v in run.point.values] for run in first])
    signs = np.array([run.pwo for run in first], dtype=float) if base.kind.has_pwo else None
    return models.term_columns(base, comps, signs, None)


def _per_run_amount_rows(design: Design, spec) -> np.ndarray | None:
    """X_A, coded, from the design's levels converted as they are met."""
    models._check_design(design, spec)
    if len(spec._parts) == 1:
        return None
    levels = np.array([float(level) for level in design.amount_levels])
    return models.term_columns(spec._parts[1], None, None, models._code_column(levels))


def _memo_base_rows(design: Design, spec):
    models._check_design(design, spec)
    return models._crossed_rows(design, spec)


def _memo_amount_rows(design: Design, spec):
    models._check_design(design, spec)
    return None if len(spec._parts) == 1 else models._amount_rows(design, spec._parts[1], True)


# each memoized build and the per-run build it must equal
_BUILDS = {
    "raw": (
        lambda design, spec: model_matrix(design, spec).X,
        lambda design, spec: _per_run_matrix(design, spec, False),
    ),
    "coded": (
        lambda design, spec: coded_model_matrix(design, spec).X,
        lambda design, spec: _per_run_matrix(design, spec, True),
    ),
    "base": (_memo_base_rows, _per_run_base_rows),
    "amount": (_memo_amount_rows, _per_run_amount_rows),
}


def _bits(build, design, spec):
    """The shape and bytes of a build's float array, None, or the class and
    message of its error."""
    try:
        X = build(design, spec)
    except OamixError as exc:
        return type(exc), str(exc)
    return None if X is None else (X.dtype, X.shape, X.tobytes())


@pytest.mark.parametrize("name", [*DESIGN_NAMES, "crossed_in_code", "scaled_in_code"])
def test_memoized_builds_equal_a_per_run_build_in_any_order(designs, name):
    design = fresh(designs[name.replace("_in_code", "")]) if name.endswith("_in_code") else designs[name]
    paths = 0
    for k in range(1, 9):
        spec = build_spec(f"eq{k}", design.m)
        want = {key: _bits(per_run, design, spec) for key, (_, per_run) in _BUILDS.items()}
        paths += isinstance(want["base"], tuple) and want["base"][0] == np.float64
        for order in permutations(_BUILDS):
            # a copy starts with no memo, so each order fills it anew
            again = copy.copy(design)
            assert "_memo" not in again.__dict__
            got = {key: _bits(_BUILDS[key][0], again, spec) for key in order}
            assert got == want, (k, order)
    # the crossed designs take the product path under eq1, eq2, eq5 and eq6
    assert paths == (4 if name in ("table3", "crossed", "crossed_read", "crossed_in_code") else 0)


def test_a_value_beyond_float_range_raises_in_any_build_order():
    # an amount level of 10**400, as a crossed design, and amounts scaled
    # by 10**400, as an amount design
    crossed = cross_amounts(oofa_expand(simplex_lattice(3, 2)), [1, 10**400])
    scaled = scale_amounts(oofa_expand(project_columns(simplex_centroid(4), [4])), 10**400)
    limit = f"{sys.float_info.max:.4g}"
    builds = (model_matrix, coded_model_matrix, evaluate_design)
    # a build that raises stores nothing: only the tables that converted
    # are kept, and no matrix or part; an amount spec has no crossed parts,
    # which evaluate_design keeps as None
    cases = (
        (crossed, "eq5", "total amount A", {("floats", "point"), ("floats", "pwo")}, (evaluate._crossed_factors,)),
        (scaled, "eq7", "component value", {("floats", "pwo"), ("crossed", build_spec("eq7", 3), False)}, ()),
    )
    for design, model, what, kept, crossed_builds in cases:
        for order in permutations(builds + crossed_builds):
            again = copy.copy(design)
            for build in order:
                with pytest.raises(InvalidParameter) as exc:
                    build(again, build_spec(model, 3))
                assert str(exc.value) == f"a {what} of the design is too large for a float (over {limit})"
            assert set(again.__dict__.get("_memo", ())) <= kept


def _count_calls(monkeypatch, name: str, *modules) -> list[int]:
    """Count the calls of the function `name` made through any of
    `modules`; the list's one item is the count so far."""
    calls = [0]
    for module in modules:

        def counted(*args, original=getattr(module, name)):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_expand_orders_each_support_once(monkeypatch, m6_bases):
    # 126 base runs; the public, checking `pwo_from_ordering` made 2580
    # calls over 5 expands, each taking the point's support again
    base = m6_bases["lattice"]
    want = Design(base.m, base.kind, tuple(
        OofARun(run.point, pwo_from_ordering(run.point, ordering), run.amount)
        for run in base.runs
        for ordering in permutations(run.point.support())
    ))
    public = _count_calls(monkeypatch, "pwo_from_ordering", oofa)
    supports = _count_calls(monkeypatch, "support", DesignPoint)
    got = oofa_expand(base)
    assert public[0] == 0
    assert supports[0] == len(base) == 126
    assert got == want
    assert write_design(got) == write_design(want)


@pytest.mark.parametrize("decimals", [None, 4])
@pytest.mark.parametrize("name", ["crossed", "crossed_read"])
def test_write_renders_each_distinct_value_once(monkeypatch, m6_designs, name, decimals):
    # 126 point objects of 6 components and 3 amount objects: each value is
    # rendered by `io._format_value` once, not once per cell (2448 * 7)
    design = m6_designs[name]
    assert len(design) == 2448
    want = write_design(design, decimals)
    calls = _count_calls(monkeypatch, "_format_value", io)
    assert write_design(design, decimals) == want
    assert 0 < calls[0] <= 126 * 6 + 3


def test_read_scans_each_distinct_sign_vector_once(monkeypatch, m6_designs):
    # 511 distinct sign vectors; a per-run scan of stored signs made 3991
    # calls: one per run and two per order check
    design = m6_designs["crossed"]
    text = write_design(design)
    calls = _count_calls(monkeypatch, "_as_ints", core, oofa)
    assert read_design(text) == design
    assert 0 < calls[0] <= len({run.pwo for run in design.runs})


@pytest.mark.parametrize("name", ["crossed", "scaled"])
def test_each_sign_pattern_has_its_order_checked_once(monkeypatch, m6_designs, name):
    design = m6_designs[name]
    patterns = len({(run.point.support(), run.pwo) for run in design.runs})
    text = write_design(design)
    # each pattern's check, which looks its signs up in a table of the
    # orderings' sign tuples; no valid pattern of 6 components misses it
    calls = _count_calls(monkeypatch, "_check_order", oofa)
    walks = _count_calls(monkeypatch, "_ordering_from_pwo", oofa)
    back = read_design(text)
    assert 0 < calls[0] <= patterns
    calls[0] = 0
    # the read design was checked by the reader, so validating it checks
    # nothing; the same runs in a design built in code are checked once,
    # when it is built
    validate_design(back)
    assert calls[0] == 0
    Design(back.m, back.kind, back.runs)
    assert 0 < calls[0] <= patterns
    assert walks[0] == 0


def assert_index_names_each_run_value(design: Design) -> None:
    for field in ("point", "pwo", "amount"):
        distinct, slots = design._index[field]
        assert len(slots) == len(design.runs)
        for run, slot in zip(design.runs, slots):
            assert distinct[slot] is getattr(run, field)
        assert len({id(obj) for obj in distinct}) == len(distinct)


def _round_trip(design: Design) -> Design:
    return pickle.loads(pickle.dumps(design))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(built_designs())
def test_index_names_each_run_value(design):
    # copies made before and after the index is built, which carry it
    before = [fresh(design), copy.deepcopy(design), _round_trip(design)]
    assert_index_names_each_run_value(design)
    after = [copy.deepcopy(design), _round_trip(design)]
    for again in before + after:
        assert again == design
        assert_index_names_each_run_value(again)


def test_index_is_built_once_per_design(monkeypatch):
    # every design the constructors and the reader return is born with its
    # index, so no layer walks its runs for it; only a design built in code
    # walks them, once, when it is built
    walk = Design.__post_init__
    builds = 0

    def counted(self):
        nonlocal builds
        builds += 1
        walk(self)

    monkeypatch.setattr(Design, "__post_init__", counted)
    crossed = cross_amounts(oofa_expand(simplex_lattice(6, 4)), LEVELS)
    scaled = scale_amounts(oofa_expand(project_columns(simplex_centroid(6), {6})), 500)
    design = read_design(write_design(crossed))
    assert len(design) == 2448
    spec = build_spec("eq5", 6)
    write_design(design)
    validate_design(design)
    validate_design(crossed)
    evaluate_design(design, spec, coding="raw")
    evaluate_design(design, spec, coding="coded")
    fds_curve(design, spec, 1000, seed=1)
    validate_design(read_design(write_design(scaled)))
    assert builds == 0
    for born in (crossed, scaled, design):
        assert "_index" in vars(born)
    built = Design(design.m, design.kind, design.runs)
    assert builds == 1 and "_index" in vars(built)


def test_no_stage_makes_a_run(monkeypatch, tmp_path):
    # the constructors and the reader store a design as its index, and no
    # library layer or CLI stage asks for its runs: they are made only on
    # the first `.runs`
    made = 0
    make, init = OofARun.__dict__["_of"].__func__, OofARun.__init__

    def counted_of(cls, *fields):
        nonlocal made
        made += 1
        return make(cls, *fields)

    def counted_init(self, *args, **kwargs):
        nonlocal made
        made += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(OofARun, "_of", classmethod(counted_of))
    monkeypatch.setattr(OofARun, "__init__", counted_init)
    # the ops of one pass of the scale benchmark workload
    crossed = cross_amounts(oofa_expand(simplex_lattice(6, 4)), LEVELS)
    back = read_design(write_design(crossed))
    validate_design(back)
    evaluate_design(back, build_spec("eq5", 6))
    scaled = scale_amounts(oofa_expand(project_columns(simplex_centroid(6), {6})), 500)
    evaluate_design(read_design(write_design(scaled)), build_spec("eq8", 5))
    fds_curve(crossed, build_spec("eq5", 6), 1000, seed=1)
    stages = [
        ["generate", "--base", "centroid", "--m", "6"],
        ["project", "--drop", "6"],
        ["expand"],
        ["cross", "--levels", "0.5,1.25,2"],
        ["scale", "--a-max", "500"],
        ["evaluate", "--model", "eq5"],
    ]
    inputs = {"project": simplex_centroid(6), "expand": simplex_lattice(6, 4),
              "cross": oofa_expand(simplex_lattice(6, 4)), "scale": scaled, "evaluate": crossed}
    for argv in stages:
        if argv[0] in inputs:
            source = tmp_path / f"{argv[0]}_in.csv"
            source.write_text(write_design(inputs[argv[0]]))
            argv = [*argv, "--input", str(source)]
        assert cli.main([*argv, "--out", str(tmp_path / f"{argv[0]}_out.csv")]) == 0
    # `==` and `hash` read the value index, not the runs
    again = read_design(write_design(crossed))
    assert back == again and again == crossed and crossed == back
    assert hash(back) == hash(again) == hash(crossed) and back != scaled
    assert made == 0
    for design in (crossed, back, scaled):
        assert "runs" not in vars(design)
        runs = design.runs
        assert made == len(design) and type(runs) is tuple and len(runs) == len(design)
        assert design.runs is runs and made == len(design)
        made = 0


def test_threads_that_make_the_runs_at_once_get_one_tuple():
    # more threads than cores, switching as often as the interpreter allows,
    # each asking a design stored as its index for its runs at the same time
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            design = cross_amounts(oofa_expand(simplex_lattice(4, 2)), LEVELS)
            start = threading.Barrier(8)
            got = []

            def ask():
                start.wait(timeout=10)
                got.append(design.runs)

            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 8 and all(runs is design.runs for runs in got)
            assert len(design.runs) == len(design)
    finally:
        sys.setswitchinterval(interval)


def assert_stored_as_its_index(design: Design) -> None:
    """A design the library made holds no runs until they are asked for:
    its shape, its pickle and its deep copy come from its index alone, and
    once made its runs give it the `==`, `hash` and `repr` of a design
    built in code of the same runs."""
    assert "runs" not in vars(design)
    shape = (len(design), design.is_expanded, design.has_amounts, design.amount_levels)
    copies = (pickle.loads(pickle.dumps(design)), copy.deepcopy(design))
    assert all("runs" not in vars(d) for d in (design, *copies))
    twin = Design(design.m, design.kind, design.runs)
    assert (len(twin), twin.is_expanded, twin.has_amounts, twin.amount_levels) == shape
    assert design == twin and twin == design
    assert hash(design) == hash(twin) and repr(design) == repr(twin)
    for again in copies:
        assert again == design and hash(again) == hash(design)


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_index_takes_no_part_in_equality(designs, name):
    design = read_design(write_design(designs[name]))
    # the same runs in a design built in code, which holds its index from birth
    twin = Design(design.m, design.kind, design.runs)
    assert "_index" in vars(design) and "_index" in vars(twin)
    before = hash(design)
    assert design == twin
    assert_index_names_each_run_value(design)
    assert_index_names_each_run_value(twin)
    assert "_index" in vars(twin)
    assert hash(design) == before == hash(twin)
    assert design == twin and twin == design
    assert read_design(write_design(designs[name])) == design


def assert_born_with_the_walked_index(design: Design) -> None:
    """The index a design was born with is the one a walk over its runs
    builds: the same distinct objects by identity, in the same order, and
    the same slots."""
    assert "_index" in vars(design)
    walked = Design(design.m, design.kind, design.runs)._index
    for field in ("point", "pwo", "amount"):
        (born, born_slots), (want, want_slots) = design._index[field], walked[field]
        assert type(born) is tuple and type(born_slots) is tuple, field
        assert born_slots == want_slots, field
        assert len(born) == len(want) and all(a is b for a, b in zip(born, want)), field


@st.composite
def transformed_designs(draw):
    """A lattice or centroid base, maybe projected to amounts, then one to
    three steps drawn from those that apply: expand, cross, scale and a
    write-and-read; every design made on the way."""
    m = draw(st.integers(2, 4))
    design = simplex_lattice(m, draw(st.integers(1, 3))) if draw(st.booleans()) else simplex_centroid(m)
    made = [design]
    if draw(st.booleans()):
        design = project_columns(design, draw(st.sets(st.integers(1, m), min_size=1, max_size=m - 1)))
        made.append(design)
    levels = st.lists(st.fractions(min_value=0, max_value=50, max_denominator=12), min_size=1, max_size=3, unique=True)
    scales = st.fractions(min_value=Fraction(1, 12), max_value=500, max_denominator=12)
    steps = {
        "expand": lambda d: oofa_expand(d),
        "cross": lambda d: cross_amounts(d, draw(levels)),
        "scale": lambda d: scale_amounts(d, draw(scales)),
        "read": lambda d: read_design(write_design(d)),
    }
    for _ in range(draw(st.integers(1, 3))):
        apply = ["read"]
        if design.m >= 2 and not design.is_expanded:
            apply.append("expand")
        if design.kind is Kind.PROPORTION and not design.has_amounts:
            apply.append("cross")
        if design.kind is Kind.AMOUNT:
            apply.append("scale")
        design = steps[draw(st.sampled_from(apply))](design)
        made.append(design)
    return made


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transformed_designs())
def test_born_index_is_the_walked_index(made):
    for design in made:
        back = read_design(write_design(design))
        for born in (design, back):
            assert_stored_as_its_index(born)
            assert_born_with_the_walked_index(born)


def _respelled(design: Design) -> Design:
    """`design` read back from its text with every fraction cell of every
    other row written with its numerator and denominator doubled (``2/4``
    for ``1/2``): the reader gives each spelling its own objects, so
    equal values are held by distinct objects."""
    header, *rows = write_design(design).splitlines()

    def respell(cell: str) -> str:
        if "/" not in cell:
            return cell
        numerator, denominator = cell.split("/")
        return f"{2 * int(numerator)}/{2 * int(denominator)}"

    rows = [",".join(map(respell, row.split(","))) if n % 2 else row for n, row in enumerate(rows)]
    return read_design("\n".join([header, *rows]) + "\n")


def _edited(draw, design: Design) -> Design:
    """`design` built in code with one drawn run moved to a drawn place, or
    with its point, signs or amount taken from another drawn run among
    those whose field leaves the run valid."""
    runs = list(design.runs)
    i, j = (draw(st.integers(0, len(runs) - 1)) for _ in range(2))
    if draw(st.booleans()):
        runs.insert(j, runs.pop(i))
    else:
        field = draw(st.sampled_from(["point", "pwo", "amount"]))
        edits = [dataclasses.replace(runs[i], **{field: getattr(run, field)}) for run in runs]
        # the run itself is one of them
        runs[i] = draw(st.sampled_from([run for run in edits if first_fault([run]) is None]))
    return Design(design.m, design.kind, tuple(runs))


def assert_equal_exactly_when_the_runs_are(a: Design, b: Design) -> None:
    # `==` is taken before either design's runs are asked for
    equal, unequal = a == b, a != b
    same = a.runs == b.runs
    assert equal is same and unequal is not same and (b == a) is same
    if same:
        assert hash(a) == hash(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transformed_designs(), st.data())
def test_designs_are_equal_exactly_when_their_runs_are(made, data):
    # pairs of designs from the library, the reader and `Design(...)`, with
    # shared objects, fresh objects and distinct objects of equal values (a
    # projection's duplicate points, a respelled file), and with one run
    # moved or changed
    for design in made:
        fresh_runs = fresh(design)
        for twin in (
            read_design(write_design(design)),
            _respelled(design),
            fresh_runs,
            Design(design.m, design.kind, fresh_runs.runs),
            _edited(data.draw, design),
            _edited(data.draw, fresh_runs),
        ):
            assert_equal_exactly_when_the_runs_are(design, twin)
            assert_equal_exactly_when_the_runs_are(_respelled(design), twin)
    for a, b in zip(made, made[1:]):
        assert_equal_exactly_when_the_runs_are(a, b)


_SMALL = {
    "table1": lambda: reference_design("table1"),
    "table3": lambda: reference_design("table3"),
    "table5": lambda: reference_design("table5"),
    "lattice(4,2) crossed": lambda: cross_amounts(oofa_expand(simplex_lattice(4, 2)), LEVELS),
}


def _corrupt(draw, design: Design) -> list[OofARun]:
    """The runs of `design` with one corrupted at a drawn position: a negative
    entry in its point, an A that is negative or that another run's point
    sums to, a zero sign between two present components, or a cyclic sign
    pattern, as the run admits."""
    runs = list(design.runs)
    n = draw(st.integers(0, len(runs) - 1))
    run = runs[n]
    support = run.point.support()
    faults = ["point"]
    if run.amount is not None:
        faults.append("A")
    if run.pwo is not None and len(support) >= 2:
        faults.append("zero sign")
    if run.pwo is not None and len(support) >= 3:
        faults.append("cycle")
    fault = draw(st.sampled_from(faults))
    point, pwo, amount = run.point, run.pwo, run.amount
    if fault == "point":
        point = DesignPoint((-1 - point.values[0],) + point.values[1:], point.kind)
    elif fault == "A" and point.kind is Kind.AMOUNT:
        # an amount another run holds, usually of another point: the pair is new
        others = [r.amount for r in runs if r.amount != amount]
        amount = draw(st.sampled_from(others)) if others else amount + 1
    elif fault == "A":
        amount = -1 - amount
    else:
        pairs = oofa.pwo_pairs(design.m)
        order = oofa.ordering_from_pwo(support, pwo)
        # 'zero sign' zeroes the pair of the first two added; 'cycle' flips
        # the first and third, which leaves the first before the second
        # before the third and the third before the first
        a, b = (order[0], order[1]) if fault == "zero sign" else (order[0], order[2])
        at = pairs.index((min(a, b), max(a, b)))
        pwo = pwo[:at] + ((0 if fault == "zero sign" else -pwo[at]),) + pwo[at + 1 :]
    runs[n] = OofARun(point, pwo, amount)
    return runs


def _assert_located(call, where: str, exc: OamixError) -> None:
    want = located(where, exc)
    with pytest.raises(OamixError) as got:
        call()
    assert type(got.value) is type(want) and str(got.value) == str(want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_SMALL)), st.data())
def test_checks_name_the_first_faulty_run(name, data):
    # a Design checks one run per distinct point and pair; it and the
    # reader must still name the run validate_run refuses first
    design = _SMALL[name]()
    bad = _corrupt(data.draw, design)
    n, exc = first_fault(bad)
    _assert_located(lambda: Design(design.m, design.kind, bad), f"run {n}", exc)
    _assert_located(lambda: read_design(runs_text(design.m, design.kind, bad)), f"line {n + 1}", exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_born_index_names_the_first_faulty_run(data):
    # one corrupted point object in every run of a crossed design that
    # held the base point it replaces: a Design of those runs indexes it
    # once and names the first run holding it
    base = simplex_lattice(4, 2)
    point = base.runs[data.draw(st.integers(0, len(base) - 1))].point
    bad = DesignPoint((-1 - point.values[0],) + point.values[1:], point.kind)
    crossed = cross_amounts(oofa_expand(base), LEVELS)
    runs = [OofARun(bad, run.pwo, run.amount) if run.point is point else run for run in crossed.runs]
    assert sum(run.point is bad for run in runs) >= len(LEVELS)
    n, exc = first_fault(runs)
    _assert_located(lambda: Design(crossed.m, crossed.kind, runs), f"run {n}", exc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transformed_designs())
def test_a_library_design_passes_the_full_walk(made):
    # the lattice, the centroid, the reader and a projection, expansion,
    # crossing or scaling build their designs through Design._of, which
    # skips the check; each must pass that check, called directly, and a
    # plain validate_run walk over its runs
    for design in made:
        for born in (design, read_design(write_design(design))):
            oofa._check_index(born._index)
            assert first_fault(born.runs) is None


def _point(*values: str) -> DesignPoint:
    return DesignPoint(values, Kind.PROPORTION)


_FAULTY_PARENTS = {
    # a negative proportion, in a point that still sums to 1
    "project": (
        lambda: simplex_lattice(3, 2), {"point": _point("-1/2", "1", "1/2")}, lambda d: project_columns(d, {3})
    ),
    # proportions that sum to 3/2
    "expand": (lambda: simplex_lattice(3, 2), {"point": _point("1/2", "1/2", "1/2")}, oofa_expand),
    "cross": (
        lambda: simplex_lattice(3, 2), {"point": _point("1/2", "1/2", "1/2")}, lambda d: cross_amounts(d, LEVELS)
    ),
    # an A that is not the sum of the run's amounts
    "scale": (
        lambda: project_columns(simplex_centroid(3), {3}), {"amount": Fraction(7, 3)}, lambda d: scale_amounts(d, 500)
    ),
}


@pytest.mark.parametrize("name", sorted(_FAULTY_PARENTS))
def test_a_transform_never_meets_an_invalid_parent(name):
    # a transform checks its arguments, not its parent's runs, and builds
    # its child unchecked: a parent whose second run is faulty is refused
    # when it is built, before the transform is reached, and the child of
    # the valid parent passes a plain walk
    parent, fields, transform = _FAULTY_PARENTS[name]
    base = parent()
    runs = list(base.runs)
    runs[1] = dataclasses.replace(runs[1], **fields)
    n, exc = first_fault(runs)
    assert n == 2
    _assert_located(lambda: transform(Design(base.m, base.kind, runs)), f"run {n}", exc)
    assert first_fault(transform(base).runs) is None


@pytest.mark.parametrize("name", ["crossed", "crossed_read"])
def test_copies_are_equal_and_a_replaced_design_is_checked(m6_designs, name):
    design = m6_designs[name]
    for again in (pickle.loads(pickle.dumps(design)), copy.deepcopy(design), copy.copy(design)):
        assert again == design and hash(again) == hash(design) and repr(again) == repr(design)
    # dataclasses.replace builds through __init__, so runs with a negative
    # A in the last are refused, naming that run
    runs = list(design.runs)
    runs[-1] = dataclasses.replace(runs[-1], amount=-1 - runs[-1].amount)
    n, exc = first_fault(runs)
    assert n == len(runs)
    _assert_located(lambda: dataclasses.replace(design, runs=tuple(runs)), f"run {n}", exc)


def test_a_sign_other_than_minus_one_zero_or_one_never_reaches_the_writer():
    # `_as_signs` takes any integer, but a design of such signs is refused
    # when it is built, so the writer renders only -1, 0 and 1
    point = DesignPoint((Fraction(1, 3),) * 3, Kind.PROPORTION)
    pwos = [(2, -3, 1), (1, -1, 0), (-1, 0, 2), (300, 0, -10**30)]
    runs = [OofARun(point, pwo) for pwo in pwos]
    n, exc = first_fault(runs)
    assert n == 1
    for decimals in (None, 2):
        _assert_located(lambda: write_design(Design(3, Kind.PROPORTION, runs), decimals), f"run {n}", exc)


def test_a_design_is_checked_once_when_built_in_code(monkeypatch, m6_bases, m6_designs):
    # the library's designs are valid at birth and take no check; one built
    # in code, or a dataclasses.replace of one, takes one, when it is
    # built, and validate_design takes none
    designs = [*m6_bases.values(), *m6_designs.values(), reference_design("table5")]
    walks = _count_calls(monkeypatch, "_check_index", oofa)
    for design in designs:
        validate_design(design)
    assert walks[0] == 0
    for design in designs:
        for again in (Design(design.m, design.kind, design.runs), dataclasses.replace(design)):
            validate_design(again)
            assert again == design and hash(again) == hash(design) and repr(again) == repr(design)
    assert walks[0] == 2 * len(designs)
