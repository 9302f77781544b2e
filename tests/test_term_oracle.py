"""The float term evaluator against the exact rational one.

`model_matrix`, `coded_model_matrix` and the FDS sample rows all evaluate
model terms through `models.term_columns`.  Each is compared cell by cell
with `exact_model_rows` on the same inputs: an exact zero must come out as
0.0, and every other cell must lie within 4 eps (relative) of its exact
value.  That bound holds to first order for any inputs: the widest term,
x_i x_j A^2, rounds at most seven times by at most eps/2 each (x_i, x_j and
A converted to float, A's error counted twice in A^2, and three products).
On the packaged reference tables every cell is within 2 ulp.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamix import (
    ContinuousAmounts,
    DiscreteAmounts,
    build_spec,
    cross_amounts,
    model_matrix,
    oofa_expand,
    project_columns,
    pwo_pairs,
    reference_design,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
)
from oamix.evaluate import _rows_from_samples, _sample_chunk
from oamix.models import _code_column, coded_model_matrix

from exact_terms import design_cells, exact_model_rows

EPS = Fraction(float(np.finfo(float).eps))
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
positive_fractions = st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12)


def nonzero_cells(X, rows):
    """(float, exact) pairs of the nonzero exact cells; exact zeros must be 0.0."""
    assert X.shape == (len(rows), len(rows[0]))
    pairs = []
    for got, want in zip(X.ravel().tolist(), (v for row in rows for v in row)):
        if want == 0:
            assert got == 0.0, f"exact zero evaluated as {got!r}"
        else:
            pairs.append((Fraction(got), want))
    return pairs


def assert_within_4_eps(X, rows):
    for got, want in nonzero_cells(X, rows):
        assert abs(got - want) <= 4 * EPS * abs(want), (float(got), want)


@st.composite
def designs(draw):
    """A lattice or centroid base, projected to amounts or not, expanded over
    orderings or not, then crossed with amount levels or scaled; with the
    model families that apply to it."""
    m = draw(st.integers(2, 4))
    project = draw(st.booleans())
    size = m + 1 if project else m
    if draw(st.booleans()):
        base = simplex_lattice(size, draw(st.integers(1, 3)))
    else:
        base = simplex_centroid(size)
    if project:
        base = project_columns(base, {draw(st.integers(1, size))})
    expanded = draw(st.booleans())
    design = oofa_expand(base) if expanded else base
    if project:
        if draw(st.booleans()):
            design = scale_amounts(design, draw(positive_fractions))
        kinds = ("eq3", "eq4", "eq7", "eq8") if expanded else ("eq3", "eq4")
    else:
        levels = draw(st.lists(positive_fractions, min_size=1, max_size=3, unique=True))
        design = cross_amounts(design, levels)
        kinds = ("eq1", "eq2", "eq5", "eq6") if expanded else ("eq1", "eq2")
    reduction = draw(st.sampled_from(["cyclic", "keep_all"]))
    return design, [build_spec(kind, m, reduction=reduction) for kind in kinds]


@SETTINGS
@given(designs())
def test_model_matrix_matches_exact_terms(case):
    design, specs = case
    for spec in specs:
        rows = exact_model_rows(design_cells(design), spec.terms, spec.m)
        assert_within_4_eps(model_matrix(design, spec).X, rows)


@SETTINGS
@given(designs())
def test_coded_model_matrix_matches_exact_terms(case):
    design, specs = case
    for spec in specs:
        # the oracle takes the coded factors as the evaluator sees them
        if spec.kind.uses_amounts:
            cols = np.array([[float(v) for v in run.point.values] for run in design.runs]).T
            coded = np.column_stack([_code_column(col) for col in cols])
            cells = [(tuple(map(Fraction, row.tolist())), run.pwo, None)
                     for row, run in zip(coded, design.runs)]
        else:
            amounts = _code_column(np.array([float(run.amount) for run in design.runs]))
            cells = [(run.point.values, run.pwo, Fraction(a))
                     for run, a in zip(design.runs, amounts.tolist())]
        rows = exact_model_rows(cells, spec.terms, spec.m)
        assert_within_4_eps(coded_model_matrix(design, spec).X, rows)


@SETTINGS
@given(
    m=st.integers(2, 4),
    sign_policy=st.sampled_from(["orderings", "continuous"]),
    policy=st.one_of(
        st.builds(lambda a, b: ContinuousAmounts(min(a, b), max(a, b)),
                  st.floats(0, 600), st.floats(0, 600)),
        st.builds(lambda levels: DiscreteAmounts(tuple(levels)),
                  st.lists(st.sampled_from([0.0, 0.75, 1.5, 3.0, 500.0]), min_size=1, max_size=3)),
    ),
    seed=st.integers(0, 2**31),
)
def test_fds_rows_match_exact_terms(m, sign_policy, policy, seed):
    x, keys, signs, amounts = _sample_chunk(seed, 0, 24, m, policy, sign_policy)
    for kind in (f"eq{i}" for i in range(1, 9)):
        spec = build_spec(kind, m)
        cells = []
        for s in range(len(x)):
            amount = Fraction(amounts[s])
            comps = [Fraction(v) * (amount if spec.kind.uses_amounts else 1) for v in x[s]]
            zs = []
            for idx, (j, k) in enumerate(pwo_pairs(m)):
                if comps[j - 1] == 0 or comps[k - 1] == 0:
                    zs.append(0)
                elif signs is None:
                    # the component with the smaller key is added first
                    zs.append(1 if keys[s, j - 1] < keys[s, k - 1] else -1)
                else:
                    zs.append(Fraction(signs[s, idx]))
            cells.append((comps, zs, amount))
        rows = exact_model_rows(cells, spec.terms, m)
        assert_within_4_eps(_rows_from_samples(spec, x, keys, signs, amounts), rows)


@pytest.mark.parametrize(
    "table, kind",
    [("table3", k) for k in ("eq1", "eq2", "eq5", "eq6")]
    + [(t, k) for t in ("table2", "table5") for k in ("eq3", "eq4", "eq7", "eq8")],
)
def test_reference_tables_within_two_ulp(table, kind):
    design = reference_design(table)
    spec = build_spec(kind, design.m)
    rows = exact_model_rows(design_cells(design), spec.terms, spec.m)
    for got, want in nonzero_cells(model_matrix(design, spec).X, rows):
        assert abs(got - want) <= 2 * Fraction(np.spacing(float(abs(want)))), (float(got), want)
