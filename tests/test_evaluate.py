"""Evaluation criteria: leverages, efficiency, determinants, FDS, power."""

import copy
import functools
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import oamix
from oamix import (
    ContinuousAmounts,
    DiscreteAmounts,
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
    power,
    prediction_variance,
    project_columns,
    r2_multicollinearity,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    std_errors,
)
from oamix.core import Design, OofARun
from oamix.models import ModelKind, ModelSpec, Term
from oamix.errors import (
    ConstantColumn,
    InvalidParameter,
    MissingAmount,
    NoResidualDf,
    SingularInformation,
)
from oamix.evaluate import (
    _FDS_BLOCK,
    _FDS_CHUNK,
    _blocks,
    _centred_sst,
    _crossed_factors,
    _default_policy,
    _Factor,
    _nct_two_sided,
    _pair_signs,
    _row_sums,
    _rows_from_samples,
    _sample_chunk,
    _t_critical,
)
from oamix.models import coded_model_matrix, term_columns
from oamix.oofa import pwo_pairs

from exact_terms import (
    design_cells,
    exact_det,
    exact_gram,
    exact_inverse,
    exact_leverages,
    exact_model_rows,
    nct_power_oracle,
)


def test_prediction_variance_closed_form_identity_information():
    # with X'X = I the variance at f is plainly sum of squares
    X = np.eye(4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.normal(size=4)
        assert prediction_variance(X, f) == pytest.approx(float(f @ f), abs=1e-12)


def test_leverages_sum_to_p(table2, table3, spec6, spec8):
    for d, s, p in [(table3, spec6, 36), (table2, spec8, 16)]:
        lev = leverages(model_matrix(d, s))
        assert lev.sum() == pytest.approx(p, abs=1e-8)


def test_leverage_reparametrization_invariance(table2, spec8):
    X = model_matrix(table2, spec8).X
    rng = np.random.default_rng(7)
    for _ in range(3):
        T = rng.normal(size=(16, 16))
        while abs(np.linalg.det(T)) < 1e-3:
            T = rng.normal(size=(16, 16))
        assert np.allclose(leverages(X), leverages(X @ T), atol=1e-8)


@pytest.mark.parametrize("coding", ["raw", "coded"])
def test_factor_matches_exact_inverse_and_determinant(coding):
    # 129 x 25: the projected m = 5 centroid scaled to 500, under eq8 with m = 4
    design = scale_amounts(oofa_expand(project_columns(simplex_centroid(5), {5})), 500)
    spec = build_spec("eq8", 4)
    if coding == "raw":
        cells = design_cells(design)
        mm = model_matrix(design, spec)
    else:
        cols = list(zip(*(run.point.values for run in design.runs)))
        codes = [((max(c) + min(c)) / 2, (max(c) - min(c)) / 2) for c in cols]
        cells = [(tuple((v - c) / h for v, (c, h) in zip(run.point.values, codes)), run.pwo, None)
                 for run in design.runs]
        mm = coded_model_matrix(design, spec)
    rows = exact_model_rows(cells, spec.terms, spec.m)
    M = exact_gram(rows)
    Minv = exact_inverse(M)
    det = exact_det(M)
    exact_log_det = math.log(det.numerator) - math.log(det.denominator)
    inv_diag = np.array([float(Minv[j][j]) for j in range(len(Minv))])
    exact_lev = np.array([float(h) for h in exact_leverages(rows, Minv)])
    assert np.max(np.abs(std_errors(mm) ** 2 / inv_diag - 1)) <= 1e-13
    assert np.max(np.abs(leverages(mm) / exact_lev - 1)) <= 1e-13
    assert d_criteria(mm)["log_det"] == pytest.approx(exact_log_det, rel=1e-13, abs=0)


def test_g_efficiency_identities():
    assert g_efficiency(36, 63, 36 / 63) == pytest.approx(100.0)
    assert g_efficiency(36, 63, 0.761) == pytest.approx(75.089, abs=0.01)
    assert g_efficiency(16, 31, 0.96) == pytest.approx(53.763, abs=0.01)


@pytest.mark.parametrize(
    "args, name",
    [
        (("36", 63, 0.5), "p"),
        ((True, 63, 0.5), "p"),
        ((36, None, 0.5), "n"),
        ((36, 63, 0), "max_pv"),
        ((36, 63, -0.5), "max_pv"),
        ((36, 63, math.nan), "max_pv"),
        ((36, 63, math.inf), "max_pv"),
        ((36, 63, 10**400), "max_pv"),
    ],
    ids=["text", "bool", "None", "zero", "negative", "nan", "inf", "huge"],
)
def test_g_efficiency_refuses_an_argument_that_is_no_positive_finite_number(args, name):
    with pytest.raises(InvalidParameter, match=f"^{name} must be a positive finite number, got "):
        g_efficiency(*args)


@pytest.mark.parametrize("args", [(36, 1e-200, 1e-200), (1e308, 1, 1e-10)], ids=["underflow", "overflow"])
def test_g_efficiency_refuses_a_result_beyond_float_range(args):
    with pytest.raises(InvalidParameter, match="is beyond float range$"):
        g_efficiency(*args)


def test_d_criteria_trivial_cases():
    out = d_criteria(np.eye(4))
    assert out["det"] == pytest.approx(1.0)
    assert out["d_eff_per_param"] == pytest.approx(1.0)
    out2 = d_criteria(2.0 * np.eye(4))
    assert out2["det"] == pytest.approx(4.0**4)
    assert out2["d_eff_per_param"] == pytest.approx(4.0)
    assert out2["n_scaled_inverse"] == pytest.approx(1.0)


def test_d_criteria_emits_both_run_scalings(table2, spec8):
    out = d_criteria(coded_model_matrix(table2, spec8).X)
    assert out["per_run_scaled"] == pytest.approx(out["d_eff_per_param"] / 31)
    assert out["n_scaled_inverse"] == pytest.approx(31 / out["d_eff_per_param"])


def test_std_errors_orthonormal():
    assert np.allclose(std_errors(np.eye(5)), 1.0)


def test_std_errors_coded_reference_values(table2, spec8):
    # the documented coding reproduces the 31-run study's per-term SEs
    mm = coded_model_matrix(table2, spec8)
    se = dict(zip(mm.col_labels, std_errors(mm)))
    assert se["a1"] == pytest.approx(2.17, abs=0.005)
    assert se["z12"] == pytest.approx(0.63, abs=0.005)
    assert se["a11"] == pytest.approx(0.96, abs=0.005)
    assert se["a1a2"] == pytest.approx(1.48, abs=0.005)
    assert se["a1z12"] == pytest.approx(1.69, abs=0.005)


def test_r2_orthogonal_centered_columns_zero():
    X = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    assert r2_multicollinearity(X, 0) == pytest.approx(0.0, abs=1e-12)


def test_r2_invariant_to_positive_diagonal_rescaling(table2, spec8):
    X = coded_model_matrix(table2, spec8).X
    rng = np.random.default_rng(5)
    D = np.diag(rng.uniform(0.1, 10.0, X.shape[1]))
    for j in (1, 4, 7, 13):
        assert r2_multicollinearity(X, j) == pytest.approx(
            r2_multicollinearity(X @ D, j), abs=1e-9
        )


def test_r2_constant_column_raises():
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    with pytest.raises(ConstantColumn):
        r2_multicollinearity(X, 0)


def lstsq_r2(X, j):
    """R^2 of column j on the others by an explicit least-squares fit."""
    target = X[:, j]
    others = np.delete(X, j, axis=1)
    resid = target - others @ np.linalg.lstsq(others, target, rcond=None)[0]
    return 1.0 - (resid @ resid) / np.sum((target - target.mean()) ** 2)


@pytest.mark.parametrize("coding", ["coded", "raw"])
@pytest.mark.parametrize("table, spec", [("table2", "spec8"), ("table3", "spec6"), ("table5", "spec8")])
def test_r2_closed_form_matches_lstsq(request, table, spec, coding):
    design, spec = request.getfixturevalue(table), request.getfixturevalue(spec)
    build = coded_model_matrix if coding == "coded" else model_matrix
    X = build(design, spec).X
    report = evaluate_design(design, spec, coding=coding)
    for j, term in enumerate(report.terms):
        if np.ptp(X[:, j]) == 0:
            assert np.isnan(term.r2)
            with pytest.raises(ConstantColumn):
                r2_multicollinearity(X, j)
        else:
            assert abs(term.r2 - lstsq_r2(X, j)) <= 1e-10


@pytest.fixture(scope="module")
def m6_scaled():
    """The 651-run m = 6 companion design: the centroid projected to m = 5,
    expanded and scaled to 500."""
    return scale_amounts(oofa_expand(project_columns(simplex_centroid(6), {6})), 500)


@pytest.mark.parametrize("coding", ["coded", "raw"])
def test_report_agrees_bit_for_bit_with_public_criteria(table3, table5, m6_scaled, coding):
    # designs off the crossed path: each report field is the full matrices'
    build = coded_model_matrix if coding == "coded" else model_matrix
    off_path = (
        (_without_run(table3, 5), "eq6", 0.5),
        (_level_moved(table3), "eq6", 0.5),
        (table5, "eq8", 2.0),
        (m6_scaled, "eq8", 2.0),
    )
    for design, eq, signal in off_path:
        spec = build_spec(eq, design.m)
        assert _crossed_factors(design, spec) is None
        mm, term = model_matrix(design, spec), build(design, spec)
        report = evaluate_design(design, spec, signal_sd=signal, coding=coding)
        lev = leverages(mm)
        assert (report.max_pv, report.avg_pv, report.rcond) == (lev.max(), lev.mean(), mm._factor.rcond)
        assert [t.se for t in report.terms] == std_errors(term).tolist()
        assert report.d_criteria == d_criteria(term)
        for j, t in enumerate(report.terms):
            if math.isnan(t.r2):
                with pytest.raises(ConstantColumn):
                    r2_multicollinearity(term, j)
            else:
                assert t.r2 == r2_multicollinearity(term, j) == r2_multicollinearity(term.X, j)
            assert t.power == power(term, j, signal_sd=signal)


def test_model_matrix_is_read_only(table3, spec6):
    for mm in (model_matrix(table3, spec6), coded_model_matrix(table3, spec6)):
        with pytest.raises(ValueError):
            mm.X[0, 0] = 1.0


@pytest.fixture
def factors_built(monkeypatch):
    """A counter of the `_Factor`s built while a test runs."""
    count = [0]
    init = _Factor.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(_Factor, "__init__", counting)
    return count


def _call_every_criterion(X, n, p):
    leverages(X)
    prediction_variance(X, np.ones(p))
    std_errors(X)
    d_criteria(X)
    fit_ols(X, np.arange(n, dtype=float))
    for j in range(p):
        try:
            r2_multicollinearity(X, j)
        except ConstantColumn:
            pass
        power(X, j, signal_sd=2.0)


def _fresh_table3():
    """table3 built anew, so that no other test has filled its memo."""
    return cross_amounts(oofa_expand(simplex_lattice(3, 3)), [Fraction(3, 4), Fraction(3, 2), Fraction(3)])


def _fresh_table5():
    return scale_amounts(oofa_expand(project_columns(simplex_centroid(4), {4})), 500)


def test_one_factor_per_model_matrix(spec8, factors_built):
    # a design of its own: the matrix, and its factor, are kept in the
    # design's memo, so a later call builds and factors nothing
    design = _fresh_table5()
    mm = coded_model_matrix(design, spec8)
    n, p = mm.shape
    _call_every_criterion(mm, n, p)
    assert factors_built[0] == 1
    assert coded_model_matrix(design, spec8) is mm
    _call_every_criterion(coded_model_matrix(design, spec8), n, p)
    assert factors_built[0] == 1
    factors_built[0] = 0
    _call_every_criterion(mm.X, n, p)
    # an array is factored by each call: 5 whole-matrix calls, then R^2 and
    # power for each column
    assert factors_built[0] == 5 + 2 * p


@pytest.mark.parametrize("coding", ["coded", "raw"])
def test_crossed_report_is_within_1e_12_of_public_criteria(table3, spec6, coding):
    # table3 crosses table1 with three levels: every field is read from
    # the factors of X_base and X_A, not from the matrices the public
    # calls factor
    assert _crossed_factors(table3, spec6) is not None
    mm = model_matrix(table3, spec6)
    term = coded_model_matrix(table3, spec6) if coding == "coded" else mm
    report = evaluate_design(table3, spec6, signal_sd=0.5, coding=coding)
    n, p = mm.shape
    lev = leverages(mm)
    assert report.n_runs == n and report.n_params == p
    want = {
        "max_pv": lev.max(),
        "avg_pv": lev.mean(),
        "max_pv_n_scaled": lev.max() * n,
        "g_efficiency_pct": g_efficiency(p, n, lev.max()),
        "rcond": mm._factor.rcond,
    }
    assert {key: getattr(report, key) for key in want} == pytest.approx(want, rel=1e-12, abs=0)
    assert report.d_criteria == pytest.approx(d_criteria(term), rel=1e-12, abs=0)
    np.testing.assert_allclose([t.se for t in report.terms], std_errors(term), rtol=1e-12, atol=0)
    for j, t in enumerate(report.terms):
        assert t.label == term.col_labels[j]
        assert t.r2 == pytest.approx(r2_multicollinearity(term, j), rel=1e-12, abs=0)
        assert t.power == pytest.approx(power(term, j, signal_sd=0.5), rel=1e-12, abs=0)


@pytest.fixture
def factor_shapes(monkeypatch):
    """The shapes of the matrices `_Factor`s are built of while a test runs."""
    shapes = []
    init = _Factor.__init__

    def recording(self, arr, labels):
        shapes.append(arr.shape)
        init(self, arr, labels)

    monkeypatch.setattr(_Factor, "__init__", recording)
    return shapes


@pytest.mark.parametrize("coding, built", [("raw", 1), ("coded", 2)])
def test_evaluate_design_factors_each_matrix_once(spec6, factor_shapes, coding, built):
    # crossed: X_base of table1's 21 runs and 12 base terms, and one 3 x 3
    # levels x powers-of-A matrix per amount coding read; off the path,
    # each full model matrix once.  Each design is the test's own, and a
    # second call on it factors nothing: the factors are in its memo
    table3 = _fresh_table3()
    first = evaluate_design(table3, spec6, coding=coding)
    assert factor_shapes == [(21, 12)] + [(3, 3)] * built
    factor_shapes.clear()
    assert _same_report(evaluate_design(table3, spec6, coding=coding), first)
    assert factor_shapes == []
    dropped = _without_run(table3, 5)
    first = evaluate_design(dropped, spec6, coding=coding)
    assert factor_shapes == [(62, 36)] * built
    factor_shapes.clear()
    assert _same_report(evaluate_design(dropped, spec6, coding=coding), first)
    assert factor_shapes == []


def _same_report(a, b) -> bool:
    """Whether two EvalReports are equal field by field (a NaN R^2 equals
    a NaN)."""
    return repr(a.to_dict()) == repr(b.to_dict())


def test_r2_leaves_scipy_unloaded():
    code = (
        "import sys, oamix; from oamix.models import coded_model_matrix; "
        "d = oamix.reference_design('table5'); mm = coded_model_matrix(d, oamix.build_spec('eq8', 3)); "
        "[oamix.r2_multicollinearity(mm, j) for j in range(1, 16)]; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = str(Path(oamix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_criteria_reject_bad_alpha_and_signal(table2, spec8):
    # a bool is not taken as 0 or 1, and text or None is no number
    X = coded_model_matrix(table2, spec8)
    for alpha in (0.0, 1.0, -0.1, 1.5, float("nan"), "x", True, None):
        with pytest.raises(InvalidParameter, match="^alpha must lie in"):
            power(X, 1, signal_sd=1.0, alpha=alpha)
        with pytest.raises(InvalidParameter, match="^alpha must lie in"):
            evaluate_design(table2, spec8, alpha=alpha)
    for signal in (float("nan"), float("inf"), 10**400, "x", True, None):
        with pytest.raises(InvalidParameter, match="^signal must be a finite number"):
            power(X, 1, signal_sd=signal)
        with pytest.raises(InvalidParameter, match="^signal must be a finite number"):
            evaluate_design(table2, spec8, signal_sd=signal)


# an array is refused by name, not by numpy's ambiguous truth value
@pytest.mark.parametrize("coding", [np.ones(3), None], ids=["array", "None"])
def test_evaluate_design_refuses_a_coding_that_is_not_text(table3, spec6, coding):
    with pytest.raises(InvalidParameter, match="^coding must be 'coded' or 'raw', got "):
        evaluate_design(table3, spec6, coding=coding)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d, s: evaluate_design(None, s), "design must be a Design, got NoneType"),
        (lambda d, s: evaluate_design(d, None), "spec must be a ModelSpec, got NoneType"),
        (lambda d, s: fds_curve(None, s, 100, 1), "design must be a Design, got NoneType"),
        (lambda d, s: fds_curve(d, None, 100, 1), "spec must be a ModelSpec, got NoneType"),
        (lambda d, s: model_matrix(None, s), "design must be a Design, got NoneType"),
        (lambda d, s: model_matrix(d, None), "spec must be a ModelSpec, got NoneType"),
        (lambda d, s: coded_model_matrix(None, s), "design must be a Design, got NoneType"),
        (lambda d, s: coded_model_matrix(d, None), "spec must be a ModelSpec, got NoneType"),
    ],
    ids=["evaluate-design", "evaluate-spec", "fds-design", "fds-spec", "matrix-design", "matrix-spec",
         "coded-design", "coded-spec"],
)
def test_design_and_spec_of_the_wrong_type_are_refused(table3, spec6, call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call(table3, spec6)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda X: leverages(10**400), "X must be a numeric array"),
        (lambda X: leverages([[10**400, 1]]), "X must be a numeric array"),
        (lambda X: fit_ols(X, 10**400), "y needs 63 finite values"),
        (lambda X: prediction_variance(X, 10**400), "f needs 36 finite values"),
    ],
    ids=["leverages-int", "leverages-row", "fit_ols-y", "prediction_variance-f"],
)
def test_an_int_too_large_for_a_float_is_refused(table3, spec6, call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call(model_matrix(table3, spec6))


@pytest.mark.parametrize("sign_policy", [np.ones(3), None], ids=["array", "None"])
def test_fds_refuses_a_sign_policy_that_is_not_text(table3, spec6, sign_policy):
    with pytest.raises(InvalidParameter, match="^sign_policy must be 'orderings' or 'continuous', got "):
        fds_curve(table3, spec6, 100, 1, sign_policy=sign_policy)


@pytest.mark.parametrize(
    "criterion",
    [lambda X, j: power(X, j, signal_sd=2.0), r2_multicollinearity],
    ids=["power", "r2_multicollinearity"],
)
@pytest.mark.parametrize("as_array", [False, True], ids=["model_matrix", "array"])
def test_column_index_must_name_a_column(table3, spec6, criterion, as_array):
    mm = coded_model_matrix(table3, spec6)
    X = mm.X if as_array else mm
    p = mm.X.shape[1]
    for j in (-1, p, 99, 1.5, True, "0"):
        with pytest.raises(InvalidParameter, match=f"^j must be an integer from 0 to {p - 1}"):
            criterion(X, j)
    assert criterion(X, np.int64(p - 1)) == criterion(X, p - 1)


@pytest.mark.parametrize(
    "criterion",
    [
        leverages,
        std_errors,
        d_criteria,
        lambda X: r2_multicollinearity(X, 0),
        lambda X: power(X, 0, signal_sd=2.0),
        lambda X: fit_ols(X, np.ones(4)),
        lambda X: prediction_variance(X, np.ones(2)),
        lambda X: oamix.ModelMatrix(X, ("a", "b")),
    ],
    ids=["leverages", "std_errors", "d_criteria", "r2_multicollinearity", "power", "fit_ols",
         "prediction_variance", "ModelMatrix"],
)
@pytest.mark.parametrize(
    "X, message",
    [
        (np.ones(4), r"X must be 2-D with at least one column, got shape \(4,\)"),
        (np.ones((4, 2, 2)), r"X must be 2-D with at least one column, got shape \(4, 2, 2\)"),
        (np.ones((4, 0)), r"X must be 2-D with at least one column, got shape \(4, 0\)"),
        ([["a", "b"]] * 4, "X must be a numeric array"),
        ([[1.0, 2.0], [1.0]], "X must be a numeric array"),
    ],
    ids=["1-D", "3-D", "no_columns", "strings", "ragged"],
)
def test_array_criteria_reject_malformed_arrays(criterion, X, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        criterion(X)


@pytest.mark.parametrize(
    "labels, message",
    [
        (("a",), "X has 2 columns but 1 labels"),
        (("a", "b", "c"), "X has 2 columns but 3 labels"),
        (2, "col_labels must be iterable, got 2"),
        ((1, 2), r"col_labels must be text, got \(1, 2\)"),
    ],
    ids=["too_few", "too_many", "not_iterable", "not_text"],
)
def test_model_matrix_needs_one_label_per_column(labels, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        oamix.ModelMatrix(np.ones((3, 2)), labels)


@pytest.mark.parametrize(
    "f, message",
    [
        (np.ones(2), r"f needs 3 finite values, got shape \(2,\)"),
        (np.ones(4), r"f needs 3 finite values, got shape \(4,\)"),
        ([1.0, float("nan"), 1.0], r"f needs 3 finite values, got shape \(3,\)"),
        ([1.0, float("inf"), 1.0], r"f needs 3 finite values, got shape \(3,\)"),
        (np.ones((2, 3)), r"f needs 3 finite values, got shape \(2, 3\)"),
        (["a", "b", "c"], "f needs 3 finite values"),
    ],
    ids=["short", "long", "nan", "inf", "two_rows", "strings"],
)
@pytest.mark.parametrize("as_model_matrix", [False, True], ids=["array", "model_matrix"])
def test_prediction_variance_needs_p_finite_values(f, message, as_model_matrix):
    X = np.eye(3)
    if as_model_matrix:
        X = oamix.ModelMatrix(X, ("a", "b", "c"))
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        prediction_variance(X, f)
    assert prediction_variance(X, [1.0, 2.0, 2.0]) == 9.0


def test_power_null_equals_alpha(table2, spec8):
    X = model_matrix(table2, spec8)
    for alpha in (0.01, 0.05, 0.2):
        assert abs(power(X, 1, signal_sd=0.0, alpha=alpha) - alpha) <= 1e-9


def test_power_monotone_in_signal(table2, spec8):
    X = coded_model_matrix(table2, spec8)
    values = [power(X, 4, signal_sd=k) for k in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_power_no_residual_df():
    with pytest.raises(NoResidualDf):
        power(np.eye(4), 0, signal_sd=1.0)


def test_power_is_even_in_signal(table2, spec8):
    X = coded_model_matrix(table2, spec8)
    for j in (1, 4, 9):
        for k in (0.5, 2.0, 20.0, 400.0):
            assert power(X, j, signal_sd=-k) == power(X, j, signal_sd=k)


@pytest.mark.parametrize("df", [1, 2, 5, 15, 27, 100, 1000, 2406, 53604, 100000])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_nct_power_finite_and_monotone_for_strong_signals(df, alpha):
    # far past the noncentralities (above ~6.1) where scipy's far-tail
    # nctdtr returns NaN
    delta = np.linspace(0.0, 200.0, 4001)
    pw = _nct_two_sided(delta, df, alpha)
    assert np.isfinite(pw).all()
    assert pw[0] == alpha and np.all(np.diff(pw) >= 0.0)
    assert pw[-1] <= 1.0


def scipy_nct_two_sided(delta, df, alpha):
    """Two-sided power and critical value from scipy's `stdtrit` and two
    `nctdtr` calls: the near tail P(T_d > t) = P(T_{-d} < -t) plus the far
    tail P(T_d < -t), which scipy returns as NaN at some d above about 6.1
    and which is then below 4e-16."""
    d = np.abs(delta)
    tcrit = special.stdtrit(df, 1.0 - alpha / 2.0)
    far = special.nctdtr(df, d, -tcrit)
    pw = special.nctdtr(df, -d, -tcrit) + np.where(np.isnan(far), 0.0, far)
    return np.where(d == 0.0, alpha, pw), tcrit


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 15, 27, 51, 100, 615, 1000, 2406, 2411])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_nct_power_matches_scipy(df, alpha):
    delta = np.linspace(0.0, 12.0, 61)
    expected, tcrit = scipy_nct_two_sided(delta, df, alpha)
    assert np.abs(_nct_two_sided(delta, df, alpha) - expected).max() <= 1e-12
    assert abs(_t_critical(df, alpha) - tcrit) <= 1e-12 * tcrit


@pytest.mark.parametrize("df", [3, 27, 2406, 100000])
@pytest.mark.parametrize("alpha", [1e-4, 1e-8, 1e-12])
def test_t_critical_keeps_small_alphas_relative_accuracy(df, alpha):
    # scipy's stdtrit takes 1 - alpha/2, which keeps only about 1e-16/alpha
    # of alpha's relative accuracy; its tail stdtr keeps it all
    assert 2.0 * special.stdtr(df, -_t_critical(df, alpha)) == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("df, alpha", [(1, 1e-3), (3, 1e-8)])
def test_nct_power_refuses_alphas_its_series_cannot_reach(df, alpha):
    with pytest.raises(InvalidParameter, match="^power needs more than 4194304 incomplete-beta terms"):
        _nct_two_sided(2.0, df, alpha)


@pytest.mark.parametrize("alpha", [1e-3, 1e-6, 1e-9])
def test_nct_power_at_two_df_takes_every_alpha(alpha):
    # I_x(j + 1/2, 1) = x^(j + 1/2) in closed form, so no series limits alpha
    expected, _ = scipy_nct_two_sided(2.0, 2, alpha)
    assert _nct_two_sided(2.0, 2, alpha) == pytest.approx(expected, rel=0, abs=1e-14)


@pytest.mark.parametrize("df", [5, 15, 27, 51])
@pytest.mark.parametrize("delta", [0.3, 0.694, 1.0, 1.59, 2.5, 8.5, 10, 16, 30])
def test_nct_power_matches_integration_oracle(df, delta):
    assert _nct_two_sided(delta, df, 0.05) == pytest.approx(
        nct_power_oracle(delta, df, 0.05), abs=1e-6
    )


def test_singular_information_reports_labels():
    X = np.column_stack([np.ones(8), np.arange(8.0), np.arange(8.0)])
    with pytest.raises(SingularInformation) as err:
        leverages(X)
    assert "1" in str(err.value) or "2" in str(err.value)
    with pytest.raises(SingularInformation):
        d_criteria(X)


def test_zero_column_is_singular():
    X = np.column_stack([np.ones(4), np.zeros(4)])
    with pytest.raises(SingularInformation):
        leverages(X)


def test_non_finite_cells_are_named():
    X = np.column_stack([np.ones(4), [0, 1, np.nan, 3.0]])
    with pytest.raises(InvalidParameter, match=r"\['1'\]"):
        leverages(X)


def test_fds_basic_properties(table5, spec8):
    curve = fds_curve(table5, spec8, n_samples=2000, seed=1)
    assert np.all(np.diff(curve.variances) >= 0)
    assert curve.fractions[999] == pytest.approx(0.5)
    assert curve.fractions[-1] == 1.0
    assert curve.n_samples == 2000


def test_fds_deterministic_across_workers(table5, spec8):
    a = fds_curve(table5, spec8, n_samples=20000, seed=3, workers=1)
    b = fds_curve(table5, spec8, n_samples=20000, seed=3, workers=5)
    assert np.array_equal(a.variances, b.variances)
    assert a.to_text() == b.to_text()


def test_fds_coding_invariant_between_unit_and_mg(table2, table5, spec8):
    a = fds_curve(table2, spec8, n_samples=5000, seed=11)
    b = fds_curve(table5, spec8, n_samples=5000, seed=11)
    assert np.allclose(a.variances, b.variances, atol=1e-8)


def test_fds_discrete_policy_masks_zero_amount(table2, spec8):
    levels = tuple(float(a) for a in table2.amount_levels)
    curve = fds_curve(table2, spec8, n_samples=1000, seed=2, amount_policy=DiscreteAmounts(levels))
    # the all-zero blend's model vector is the bare intercept; its variance is
    # the design's own maximum leverage, so A=0 draws cannot exceed it
    origin_pv = leverages(model_matrix(table2, spec8)).max()
    assert curve.variances.min() > 0
    assert np.sum(np.isclose(curve.variances, origin_pv)) > 0


def test_fds_continuous_signs_policy(table5, spec8):
    relaxed = fds_curve(table5, spec8, n_samples=5000, seed=9, sign_policy="continuous")
    strict = fds_curve(table5, spec8, n_samples=5000, seed=9)
    assert relaxed.fraction_below(0.96) > strict.fraction_below(0.96)


def test_fds_invariant_under_component_relabeling(table2, spec8):
    # the design is symmetric under relabeling, so the curve only moves by
    # sampling error
    from oamix import ordering_from_pwo, pwo_from_ordering
    from oamix.core import Design, DesignPoint, Kind, OofARun

    perm = {1: 3, 2: 1, 3: 2}
    runs = []
    for run in table2.runs:
        values = [None] * 3
        for i, v in enumerate(run.point.values, start=1):
            values[perm[i] - 1] = v
        point = DesignPoint(tuple(values), Kind.AMOUNT)
        ordering = tuple(perm[c] for c in ordering_from_pwo(run.point.support(), run.pwo))
        runs.append(OofARun(point, pwo=pwo_from_ordering(point, ordering), amount=run.amount))
    relabeled = Design(m=3, kind=Kind.AMOUNT, runs=tuple(runs))
    a = fds_curve(table2, spec8, n_samples=40000, seed=21)
    b = fds_curve(relabeled, spec8, n_samples=40000, seed=22)
    for q in (0.25, 0.5, 0.75, 0.9):
        assert a.quantile(q) == pytest.approx(b.quantile(q), rel=0.05)


def test_fds_needs_amounts():
    from oamix import oofa_expand, simplex_lattice, build_spec

    with pytest.raises(MissingAmount):
        fds_curve(oofa_expand(simplex_lattice(3, 3)), build_spec("eq6", 3), 1000, seed=1)


def test_fds_rejects_small_samples(table5, spec8):
    with pytest.raises(ValueError):
        fds_curve(table5, spec8, n_samples=10, seed=1)


def test_fds_rejects_a_sample_count_too_large_to_hold(table3, spec6):
    # numpy refuses 10**20 floats before it takes any memory
    with pytest.raises(InvalidParameter, match="n_samples"):
        fds_curve(table3, spec6, 10**20, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"sign_policy": "random"},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"n_samples": 1000.0},
        {"n_samples": "1000"},
        {"amount_policy": "x"},
        {"amount_policy": (0.5, 3.0)},
    ],
)
def test_fds_rejects_bad_arguments(table5, spec8, kwargs):
    with pytest.raises(InvalidParameter):
        fds_curve(table5, spec8, **{"n_samples": 1000, "seed": 1, **kwargs})


@pytest.mark.parametrize(
    "lo, hi",
    [(5.0, 1.0), (-1.0, 2.0), (0.0, float("inf")), (float("nan"), 1.0), ("0", "1"), (0.0, None), (True, 2.0),
     (0, 10**400)],
)
def test_continuous_amounts_rejects_bad_range(lo, hi):
    with pytest.raises(InvalidParameter):
        ContinuousAmounts(lo, hi)


@pytest.mark.parametrize(
    "levels",
    [(), (float("nan"),), (-5.0,), ("a",), (1.0, None), 5, "12", (10**400,)],
    ids=["empty", "nan", "negative", "text", "none", "not_iterable", "string", "int_too_large_for_a_float"],
)
def test_discrete_amounts_rejects_bad_levels(levels):
    with pytest.raises(InvalidParameter):
        DiscreteAmounts(levels)


def test_discrete_amounts_keeps_its_levels_as_a_tuple():
    policy = DiscreteAmounts([1.0, 2.0])
    assert policy.levels == (1.0, 2.0)
    assert hash(policy) == hash(DiscreteAmounts((1.0, 2.0)))


@pytest.mark.parametrize("fraction", [2.0, -1.0, -1e-12, float("nan"), "0.5", None, True])
def test_fds_quantile_rejects_bad_fractions(table5, spec8, fraction):
    curve = fds_curve(table5, spec8, n_samples=1000, seed=1)
    with pytest.raises(InvalidParameter):
        curve.quantile(fraction)


@pytest.mark.parametrize("value", [float("nan"), "1", None])
def test_fds_fraction_below_rejects_bad_values(table5, spec8, value):
    curve = fds_curve(table5, spec8, n_samples=1000, seed=1)
    with pytest.raises(InvalidParameter):
        curve.fraction_below(value)


def test_fds_quantile_and_fraction_below_at_the_ends(table5, spec8):
    curve = fds_curve(table5, spec8, n_samples=1000, seed=1)
    v = curve.variances
    assert curve.quantile(0) == curve.quantile(0.0005) == v[0]
    assert curve.quantile(1) == v[-1]
    assert curve.quantile(0.5) == v[499]
    assert curve.fraction_below(float("inf")) == 1.0
    assert curve.fraction_below(-float("inf")) == 0.0
    assert curve.fraction_below(v[500]) == 0.5


@pytest.mark.parametrize(
    "sign_policy, digest",
    [
        ("orderings", "720aa3902ef35408a9dcb867fbdad8d1dfc6ec89045223174d731186808f1342"),
        ("continuous", "62fb88ca4b8305ae3e3b27ee6c0584832cfc746504c7b901301682fc96b86336"),
    ],
    ids=["orderings", "continuous"],
)
def test_fds_table3_eq6_text_is_pinned(table3, spec6, sign_policy, digest):
    curve = fds_curve(table3, spec6, n_samples=20000, seed=3, sign_policy=sign_policy)
    assert hashlib.sha256(curve.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "table, eq, kwargs, digest",
    [
        ("table3", "eq6", {}, "abf931ad082bde7ea1e9bd43e0176fe289b5d1f3992f03e6cabfa075dad6b447"),
        ("table5", "eq8", {}, "dbcf9c8cbe3dcb868704070de7ea0fa6984a5c55a619c425171ec70d8453fa1b"),
        ("table5", "eq8", {"sign_policy": "continuous"},
         "801a955db4e0a87b0cdd9ce61f07ff2cf1d61cb30a3f5bf1f14fcc2fb642a6bd"),
        ("table3", "eq6", {"amount_policy": DiscreteAmounts((0.75, 1.5, 3.0))},
         "aaa8cc8a855eb183a83d968e390c21a4a98059edec39cc4b282a7bd715561c70"),
        ("table5", "eq8", {"sign_policy": "continuous", "amount_policy": DiscreteAmounts((0.0, 250.0, 500.0))},
         "eddf3957749bcd26f30893230927d9c65d6939125becb7df47c74a45819df586"),
        ("m8_crossed", "eq5", {}, "2bc5501d3cc0ca901b02bf774d65df7dcd30db81ac40b15e13fc701fb003fd68"),
        ("m8_crossed", "eq5", {"sign_policy": "continuous"},
         "64cf00d7d560fe11df6fef2ff9d1382ec078409bfe79f48dd62125a13c07933e"),
        ("m6_crossed", "eq6", {}, "2a9b47fb7078ff00e5ba0843402e3767f72b62edf406dac4e992ccf9d319398f"),
        ("table3", "eq2", {"sign_policy": "continuous"},
         "bfc8aea29a38e89335cff96d0e4ab87b1927239998aa25f00232f82106318368"),
    ],
    ids=["table3-eq6-orderings", "table5-eq8-orderings", "table5-eq8-continuous-signs",
         "table3-eq6-discrete-amounts", "table5-eq8-continuous-signs-discrete-with-0",
         "m8-eq5-orderings", "m8-eq5-continuous-signs", "m6-eq6-orderings", "table3-eq2-continuous-signs"],
)
def test_fds_text_is_pinned(request, table, eq, kwargs, digest):
    # the benchmark's four paper-study curves, zero-masked continuous signs,
    # an m = 8 design, whose row sums take numpy's 8-lane adds, and two
    # degree-2 curves of the product path d_base d_A
    design = request.getfixturevalue(table)
    curve = fds_curve(design, build_spec(eq, design.m), n_samples=20000, seed=7, **kwargs)
    assert hashlib.sha256(curve.to_text().encode()).hexdigest() == digest


def _fresh_array_variances(design, spec, n_samples, seed, policy, sign_policy, general=False):
    """The FDS chunk loop with fresh arrays for every chunk, sorted after one
    concatenate: the reference for `fds_curve`'s reused buffers.  Its
    samples are `_reference_sample_chunk`'s, whose amounts are numpy's
    ``uniform`` itself.  Where the variances factor (`_crossed_factors`)
    each is d_base d_A, unless `general` asks for the full model rows and
    factor; the powers 1, A, A^2 of d_A are numpy's own ones, amounts and
    square, not the library's rows."""
    fac = model_matrix(design, spec)._factor
    product = None if general else _crossed_factors(design, spec)
    parts = []
    for index, start in enumerate(range(0, n_samples, _FDS_CHUNK)):
        count = min(_FDS_CHUNK, n_samples - start)
        x, keys, signs, amounts = _reference_sample_chunk(seed, index, count, spec.m, policy, sign_policy)
        if product is None:
            parts.append(fac.pv(_rows_from_samples(spec, x, keys, signs, amounts)))
        else:
            (base, base_fac), (_, amount_fac) = product
            d_base = base_fac.pv(_rows_from_samples(base, x, keys, signs, amounts))
            powers = np.column_stack([np.ones(count), amounts, np.square(amounts)])
            parts.append(d_base * amount_fac.pv(powers[:, : amount_fac.X.shape[1]]))
    return np.sort(np.concatenate(parts))


@pytest.fixture(scope="module")
def m6_crossed():
    return cross_amounts(oofa_expand(simplex_lattice(6, 4)), ["1/2", "5/4", "2"])


@pytest.fixture(scope="module")
def m8_crossed():
    return cross_amounts(oofa_expand(simplex_lattice(8, 2)), ["1/2", "5/4", "2"])


@pytest.fixture(scope="module")
def crossed_with_zero(table1):
    # base runs 1..4 twice, and an amount level of 0, where d_A is M_A^{-1}[0, 0]
    replicated = Design(table1.m, table1.kind, table1.runs + table1.runs[:4])
    return cross_amounts(replicated, ["0", "1", "5/2"])


@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
@pytest.mark.parametrize(
    "table, eq, m, discrete",
    [("table3", "eq2", 3, False), ("table3", "eq5", 3, False), ("table3", "eq6", 3, False),
     ("table5", "eq8", 3, False), ("table2", "eq8", 3, True), ("m6_crossed", "eq5", 6, False),
     ("m8_crossed", "eq5", 8, False)],
    ids=["table3-eq2", "table3-eq5", "table3-eq6", "table5-eq8", "table2-eq8-discrete-with-0", "m6-eq5", "m8-eq5"],
)
def test_fds_buffered_loop_matches_fresh_arrays(request, table, eq, m, discrete, sign_policy):
    design = request.getfixturevalue(table)
    spec = build_spec(eq, m)
    if discrete:
        # table2's levels include 0, so the zero mask runs on some draws
        policy = DiscreteAmounts(tuple(float(a) for a in design.amount_levels))
        assert 0.0 in policy.levels
    else:
        policy = _default_policy(design)
    sizes = (100, _FDS_BLOCK - 1, _FDS_BLOCK, _FDS_BLOCK + 1, _FDS_CHUNK - 1, _FDS_CHUNK, _FDS_CHUNK + 1,
             _FDS_CHUNK + _FDS_BLOCK + 1, 2 * _FDS_CHUNK + 1)
    for n in sizes:
        got = fds_curve(design, spec, n, seed=5, amount_policy=policy, sign_policy=sign_policy)
        want = _fresh_array_variances(design, spec, n, 5, policy, sign_policy)
        assert np.array_equal(got.variances, want), (n, eq, sign_policy)


def _reference_sample_chunk(seed: int, index: int, n: int, m: int, policy, sign_policy: str):
    """The FDS sampler with fresh C-ordered arrays and numpy's row sums: the
    reference for `_sample_chunk`'s buffers, column layout and column adds.
    It draws the order keys under continuous signs too, and returns None
    for them, so a match shows that advancing the stream past them is the
    same as drawing them."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    e = rng.standard_exponential((n, m))
    x = e / e.sum(axis=1, keepdims=True)
    keys = rng.random((n, m))
    if sign_policy == "continuous":
        keys = None
        signs = rng.uniform(-1.0, 1.0, (n, m * (m - 1) // 2))
    else:
        signs = None
    if isinstance(policy, DiscreteAmounts):
        levels = np.asarray(policy.levels, dtype=float)
        amounts = levels[rng.integers(0, len(levels), n)]
    else:
        amounts = rng.uniform(policy.lo, policy.hi, n)
    return x, keys, signs, amounts


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(_FDS_CHUNK, 3), (777, 15)])
@pytest.mark.parametrize("seed", range(20))
def test_doubled_uniforms_less_one_are_numpys_uniform(seed, shape):
    # `_sample_chunk` draws continuous signs as U in [0, 1), then 2U - 1 in
    # place; numpy's uniform(-1, 1) is -1 + 2U.  2U is exact, so both round
    # once, the same sum: a numpy whose bits differ fails here by name
    want = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    got = np.random.default_rng(seed).random(out=np.empty(shape))
    got *= 2.0
    got -= 1.0
    assert _same_bits(got, want)


_AMOUNT_BOUNDS = st.one_of(
    st.floats(0.0, 10.0),
    st.floats(0.0, 1e300),
    st.integers(0, 10**6),
    st.fractions(0, 100, max_denominator=1000),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), bounds=st.tuples(_AMOUNT_BOUNDS, _AMOUNT_BOUNDS),
       n=st.integers(1, 3000), m=st.integers(2, 5))
@example(seed=0, bounds=(1.5, 1.5), n=100, m=3)
@example(seed=1, bounds=(0.0, 3.0), n=100, m=3)
@example(seed=2, bounds=(0, 0), n=100, m=3)
@example(seed=3, bounds=(0.0, 1e308), n=2048, m=3)
@example(seed=4, bounds=(1e-300, 1.7e308), n=2048, m=3)
@example(seed=5, bounds=(0.75, 3), n=_FDS_CHUNK, m=3)
@example(seed=6, bounds=(Fraction(1, 3), Fraction(7, 3)), n=777, m=4)
def test_scaled_uniforms_plus_lo_are_numpys_uniform(seed, bounds, n, m):
    # `_sample_chunk` draws continuous amounts as U in [0, 1), then U times
    # hi - lo and plus lo in place; numpy's uniform(lo, hi) is lo + (hi - lo)
    # U, the same two roundings: a numpy whose bits differ (one that fused
    # them, say) fails here by name.  lo == hi, lo == 0 and a hi near the
    # top of float range are among the examples
    lo, hi = sorted(bounds)
    policy = ContinuousAmounts(lo, hi)
    want = np.random.default_rng(seed).uniform(lo, hi, n)
    got = np.random.default_rng(seed).random(out=np.empty(n))
    got *= float(hi) - float(lo)
    got += float(lo)
    assert _same_bits(got, want)
    # and the sampler itself against the fresh reference, which calls uniform
    assert _same_bits(_sample_chunk(seed, 2, n, m, policy, "orderings")[3],
                      _reference_sample_chunk(seed, 2, n, m, policy, "orderings")[3])


@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
@pytest.mark.parametrize(
    "policy",
    [ContinuousAmounts(0.5, 3.0), DiscreteAmounts((0.75, 1.5, 3.0)), DiscreteAmounts((0.0, 250.0, 500.0))],
    ids=["continuous", "discrete", "discrete-with-0"],
)
@pytest.mark.parametrize("m", range(2, 10))
def test_sample_chunk_matches_fresh_reference(m, policy, sign_policy):
    draws = np.empty((3, _FDS_CHUNK * m))
    for index, n in ((0, _FDS_CHUNK), (3, 1), (5, 777)):
        want = _reference_sample_chunk(11, index, n, m, policy, sign_policy)
        for buffers in (None, draws):
            got = _sample_chunk(11, index, n, m, policy, sign_policy, buffers)
            for a, b in zip(got, want):
                assert (a is None and b is None) or _same_bits(a, b), (m, index, n)
            # every component's samples are one contiguous column
            assert all(a is None or a.ndim == 1 or a.flags.f_contiguous for a in got[:2]), (m, index, n)


@pytest.mark.parametrize("m", range(2, 13))
def test_row_sums_match_numpy_sum(m):
    rng = np.random.default_rng(m)
    # a wide spread of magnitudes, so a different order of adds would round differently
    e = rng.standard_exponential((20000, m)) * 10.0 ** rng.uniform(-8, 8, (20000, m))
    assert _same_bits(_row_sums(e), e.sum(axis=1))


@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
@pytest.mark.parametrize("m", [2, 3, 6, 9])
def test_pair_signs_match_where_and_masks(m, sign_policy):
    policy = DiscreteAmounts((0.0, 1.0, 2.0))
    x, keys, signs, amounts = _sample_chunk(4, 0, 3000, m, policy, sign_policy)
    j, k = np.array(pwo_pairs(m)).T - 1
    want = np.where(keys[:, j] <= keys[:, k], 1.0, -1.0) if signs is None else signs
    assert _same_bits(_pair_signs(m, x, keys, signs, None), want)
    comps = x * amounts[:, None]
    want = want * (comps[:, j] != 0) * (comps[:, k] != 0)
    z = np.empty((len(j), 3000)).T
    got = _pair_signs(m, comps, keys, signs, z)
    assert got is z and _same_bits(got, want)
    assert np.all(got[amounts == 0] == 0)


def test_pair_signs_rank_a_tie_to_the_lower_index():
    # an order key tie is ranked as a stable argsort ranks it: the lower
    # component first, so its sign is +1
    keys = np.array([[0.5, 0.5, 0.25], [0.0, 0.0, 0.0], [0.75, 0.25, 0.75]])
    comps = np.ones((3, 3))
    want = np.array([[1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
    got = _pair_signs(3, comps, np.asfortranarray(keys), None, None)
    assert _same_bits(got, want)
    ranks = np.argsort(np.argsort(keys, axis=1, kind="stable"), axis=1)
    j, k = np.array(pwo_pairs(3)).T - 1
    assert _same_bits(got, np.where(ranks[:, j] < ranks[:, k], 1.0, -1.0))


def test_blocks_join_a_one_row_tail():
    b = _FDS_BLOCK
    assert list(_blocks(1)) == [(0, 1)]
    assert list(_blocks(b)) == [(0, b)]
    assert list(_blocks(b + 1)) == [(0, b + 1)]
    assert list(_blocks(b + 2)) == [(0, b), (b, b + 2)]
    assert list(_blocks(2 * b + 1)) == [(0, b), (b, 2 * b + 1)]
    assert list(_blocks(_FDS_CHUNK)) == [(i, i + b) for i in range(0, _FDS_CHUNK, b)]


def test_term_columns_writes_into_out():
    x, _, signs, amounts = _sample_chunk(5, 0, 300, 3, ContinuousAmounts(0.5, 3.0), "continuous")
    for eq in [f"eq{i}" for i in range(1, 9)]:
        spec = build_spec(eq, 3)
        comps = x * amounts[:, None] if spec.kind.uses_amounts else x
        fresh = term_columns(spec, comps, signs, amounts)
        assert fresh.flags.c_contiguous
        for order in ("C", "F"):
            buf = np.empty((300, spec.p), order=order)
            assert term_columns(spec, comps, signs, amounts, out=buf) is buf
            assert np.array_equal(buf, fresh), (eq, order)


def _reduce_and_copy_columns(spec, comps, signs, amounts, out=None):
    """`models.term_columns` as it was before it wrote each product into its
    column: every term's factors are reduced with np.multiply into a new
    array, which is then copied into the column.  The oracle for the bits
    of the in-place builder."""
    pair_col = {pair: c for c, pair in enumerate(pwo_pairs(spec.m))}
    X = np.empty((comps.shape[0], spec.p)) if out is None else out
    products, powers = {}, {}
    for col, term in enumerate(spec.terms):
        key = (term.comp_powers, term.pwo_pair)
        if key not in products:
            factors = [comps[:, i - 1] if p == 1 else comps[:, i - 1] ** p for i, p in term.comp_powers]
            if term.pwo_pair is not None:
                factors.append(signs[:, pair_col[term.pwo_pair]])
            products[key] = functools.reduce(np.multiply, factors) if factors else None
        c, t = products[key], term.amount_power
        if t and t not in powers:
            powers[t] = amounts if t == 1 else amounts**t
        if c is None:
            X[:, col] = powers[t] if t else 1.0
        elif t:
            np.multiply(c, powers[t], out=X[:, col])
        else:
            X[:, col] = c
    return X


# terms that reach every branch of the in-place product: a square first or
# second, two squares, a cube, a term first met at A^1 and then at A^0, a
# repeated term, and terms with no component or sign factor
_ODD_TERMS = (
    Term(comp_powers=((1, 2), (2, 1)), pwo_pair=(1, 2), amount_power=1),
    Term(comp_powers=((1, 2), (2, 1)), pwo_pair=(1, 2)),
    Term(comp_powers=((1, 1), (2, 2))),
    Term(comp_powers=((1, 1), (2, 2), (3, 1)), pwo_pair=(2, 3), amount_power=2),
    Term(comp_powers=((1, 3),)),
    Term(comp_powers=((1, 2), (3, 2))),
    Term(amount_power=2),
    Term(intercept=True),
    Term(comp_powers=((1, 1), (2, 2))),
    Term(pwo_pair=(2, 3), amount_power=1),
    Term(comp_powers=((2, 1),), pwo_pair=(1, 3), amount_power=3),
)


@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
@pytest.mark.parametrize(
    "eq, reduction",
    [(f"eq{i}", "cyclic") for i in range(1, 9)] + [("eq6", "keep_all"), ("eq8", "keep_all"), ("odd", None)],
)
def test_term_columns_match_the_reduce_and_copy_builder(eq, reduction, sign_policy):
    # the FDS rows (zero-masked, with a level of 0 among the amounts) and
    # the model matrices of the reference tables, bit for bit, into a new
    # array and into C- and F-ordered buffers
    policy = DiscreteAmounts((0.0, 0.75, 1.5, 3.0))
    x, keys, signs, amounts = _sample_chunk(9, 1, 1500, 3, policy, sign_policy)
    if eq == "odd":
        spec = ModelSpec(kind=ModelKind.OOFA_MA_FULL, m=3, terms=_ODD_TERMS)
    else:
        spec = build_spec(eq, 3, reduction)
    comps = x * amounts[:, None] if spec.kind.uses_amounts else x
    z = _pair_signs(3, comps, keys, signs, None)
    cases = [(comps, np.ascontiguousarray(z), amounts)]
    if eq != "odd":
        design = oamix.reference_design("table5" if spec.kind.uses_amounts else "table3")
        X = model_matrix(design, spec).X
        assert _same_bits(X, _reduce_and_copy_columns(spec, *_matrix_inputs(design, spec)))
        cases.append(_matrix_inputs(design, spec))
    for inputs in cases:
        want = _reduce_and_copy_columns(spec, *inputs)
        assert _same_bits(term_columns(spec, *inputs), want), eq
        for order in ("C", "F"):
            buf = np.empty(want.shape, order=order)
            assert term_columns(spec, *inputs, out=buf) is buf
            assert _same_bits(np.ascontiguousarray(buf), want), (eq, order)


def _matrix_inputs(design, spec):
    """The float comps, signs and amounts `model_matrix` builds its terms of."""
    comps = np.array([[float(v) for v in run.point.values] for run in design.runs])
    signs = np.array([run.pwo for run in design.runs], dtype=float) if spec.kind.has_pwo else None
    amounts = None if spec.kind.uses_amounts else np.array([float(run.amount) for run in design.runs])
    return comps, signs, amounts


def _c_ordered_variances(design, spec, n_samples, seed, policy, sign_policy):
    """The FDS chunk loop with C-ordered rows and the zero mask applied to
    every chunk: the reference for `fds_curve`'s column-contiguous rows."""
    fac = model_matrix(design, spec)._factor
    j, k = np.array(pwo_pairs(spec.m)).T - 1
    parts = []
    for index, start in enumerate(range(0, n_samples, _FDS_CHUNK)):
        count = min(_FDS_CHUNK, n_samples - start)
        x, keys, signs, amounts = _sample_chunk(seed, index, count, spec.m, policy, sign_policy)
        comps = x * amounts[:, None] if spec.kind.uses_amounts else x
        if signs is None:
            signs = np.where(keys[:, j] <= keys[:, k], 1.0, -1.0)
        signs = signs * (comps[:, j] != 0) * (comps[:, k] != 0)
        parts.append(fac.pv(term_columns(spec, comps, signs, amounts)))
    return np.sort(np.concatenate(parts))


@pytest.mark.parametrize("discrete", [False, True], ids=["continuous-amounts", "discrete-amounts"])
@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
@pytest.mark.parametrize(
    "eq, crossed",
    [pytest.param(f"eq{i}", None, id=f"eq{i}") for i in range(1, 9)]
    + [
        pytest.param(eq, name, id=f"{name}-{eq}")
        for name in ("m6_crossed", "crossed_with_zero")
        for eq in ("eq5", "eq6")
    ],
)
def test_fds_matches_c_ordered_rows(request, table2, table3, table5, eq, crossed, sign_policy, discrete):
    # the mixture-amount cases on table3, m6_crossed and crossed_with_zero
    # take the product path d_base d_A; the reference takes the full factor
    design = request.getfixturevalue(crossed) if crossed else table3
    spec = build_spec(eq, design.m)
    design = table5 if spec.kind.uses_amounts else design
    if discrete:
        # table2's levels include 0, so amount models see zero-masked draws
        design = table2 if spec.kind.uses_amounts else design
        policy = DiscreteAmounts(tuple(float(a) for a in design.amount_levels))
    else:
        policy = _default_policy(design)
    for n in (100, _FDS_CHUNK + 1, 3 * _FDS_CHUNK + 5):
        got = fds_curve(design, spec, n, seed=5, amount_policy=policy, sign_policy=sign_policy).variances
        want = _c_ordered_variances(design, spec, n, 5, policy, sign_policy)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"n={n}")


_CROSSED_CASES = [pytest.param(eq, None, id=f"table3-{eq}") for eq in ("eq1", "eq2", "eq5", "eq6")] + [
    pytest.param(eq, name, id=f"{name}-{eq}") for name in ("m6_crossed", "crossed_with_zero") for eq in ("eq5", "eq6")
]


@pytest.mark.parametrize("eq, crossed", _CROSSED_CASES)
def test_product_rcond_is_the_full_factors(request, table3, eq, crossed):
    # the crossed cases of test_fds_matches_c_ordered_rows: the product path
    # gates on rcond_A * rcond_base, the full equilibrated matrix's rcond
    design = request.getfixturevalue(crossed) if crossed else table3
    spec = build_spec(eq, design.m)
    mm = model_matrix(design, spec)
    (_, base_fac), (_, amount_fac) = _crossed_factors(design, spec)
    assert base_fac.rcond * amount_fac.rcond == pytest.approx(mm._factor.rcond, rel=1e-9, abs=0)


def test_product_path_factors_only_the_small_matrices(spec6, factor_shapes):
    # a design of its own; a second curve and a raw evaluation read the
    # factors the first curve kept in its memo
    table3 = _fresh_table3()
    first = fds_curve(table3, spec6, 100, seed=1)
    assert factor_shapes == [(21, 12), (3, 3)]
    assert _same_bits(fds_curve(table3, spec6, 100, seed=1).variances, first.variances)
    evaluate_design(table3, spec6, coding="raw")
    assert factor_shapes == [(21, 12), (3, 3)]


def test_m6_crossed_eq6_builds_no_full_matrix(monkeypatch, factor_shapes):
    # 816 base runs at each of three levels: neither evaluate_design nor
    # fds_curve builds or factors a 2448-row matrix.  On a design of its
    # own, the raw evaluation factors X_base and the raw X_A, the coded one
    # only its coded X_A, and the curve reads both from the design's memo
    def refused(*args):
        raise AssertionError("a full model matrix was built")

    design = cross_amounts(oofa_expand(simplex_lattice(6, 4)), ["1/2", "5/4", "2"])
    monkeypatch.setattr(oamix.evaluate, "model_matrix", refused)
    monkeypatch.setattr(oamix.evaluate, "coded_model_matrix", refused)
    spec = build_spec("eq6", 6)
    evaluate_design(design, spec, coding="raw")
    assert factor_shapes == [(816, 42), (3, 3)]
    evaluate_design(design, spec, coding="coded")
    fds_curve(design, spec, 100, seed=1)
    assert factor_shapes == [(816, 42), (3, 3), (3, 3)]


@pytest.mark.parametrize("copied", ["pickle", "copy", "deepcopy"])
def test_a_copy_of_an_evaluated_design_carries_no_memo(spec6, spec8, factor_shapes, copied):
    make = {"pickle": lambda d: pickle.loads(pickle.dumps(d)), "copy": copy.copy, "deepcopy": copy.deepcopy}[copied]
    for design, spec, first in ((_fresh_table3(), spec6, [(21, 12), (3, 3), (3, 3)]),
                                (_fresh_table5(), spec8, [(31, 16), (31, 16)])):
        want = evaluate_design(design, spec, coding="coded")
        mm = model_matrix(design, spec)
        fds_curve(design, spec, 100, seed=1)
        assert "_memo" in vars(design)
        again = make(design)
        assert "_memo" not in vars(again)
        assert again == design and hash(again) == hash(design) and repr(again) == repr(design)
        # the copy builds and factors its own, the same bits
        factor_shapes.clear()
        assert _same_report(evaluate_design(again, spec, coding="coded"), want)
        assert factor_shapes == first
        assert model_matrix(again, spec) is not mm
        assert _same_bits(model_matrix(again, spec).X, mm.X)
        assert model_matrix(design, spec) is mm


def test_memo_entries_are_per_spec_and_coding(spec6, factor_shapes):
    # eq6 under cyclic and keep_all reductions never share an entry; an
    # equal spec built again does; raw and coded matrices are apart
    design = _fresh_table3()
    cyclic, keep_all = build_spec("eq6", 3, "cyclic"), build_spec("eq6", 3, "keep_all")
    assert cyclic == spec6 and cyclic is not spec6 and keep_all != cyclic
    raw = {spec: model_matrix(design, spec) for spec in (cyclic, keep_all)}
    coded = {spec: coded_model_matrix(design, spec) for spec in (cyclic, keep_all)}
    assert raw[cyclic].shape == (63, 36) and raw[keep_all].shape == (63, 45)
    assert coded[cyclic].shape == (63, 36) and coded[keep_all].shape == (63, 45)
    assert not _same_bits(raw[cyclic].X, coded[cyclic].X)
    assert model_matrix(design, spec6) is raw[cyclic] and coded_model_matrix(design, spec6) is coded[cyclic]
    reports = {spec: evaluate_design(design, spec) for spec in (cyclic, keep_all)}
    # X_base of 12 and of 15 base terms, each with its raw and coded X_A
    assert factor_shapes == [(21, 12), (3, 3), (3, 3), (21, 15), (3, 3), (3, 3)]
    assert reports[cyclic].n_params == 36 and reports[keep_all].n_params == 45
    assert _crossed_factors(design, cyclic)[0][0].p == 12 and _crossed_factors(design, keep_all)[0][0].p == 15
    assert _same_report(evaluate_design(design, spec6), reports[cyclic])
    assert len(factor_shapes) == 6


def test_memo_is_read_only_after_the_checks(spec6, spec8):
    # a design's errors come first and the same on every call, memo or not,
    # and a build that raises keeps nothing
    design = _fresh_table3()
    model_matrix(design, spec6)
    evaluate_design(design, spec6)
    for call in (model_matrix, coded_model_matrix, _crossed_factors, evaluate_design,
                 lambda d, s: fds_curve(d, s, 100, seed=1)):
        with pytest.raises(InvalidParameter, match="^spec must be a ModelSpec, got list$"):
            call(design, [])
        with pytest.raises(oamix.errors.KindMismatch, match="^eq8 needs an amount design$"):
            call(design, spec8)
    big = _big_level()
    for _ in range(2):
        with pytest.raises(InvalidParameter, match=f"^a total amount A of the design {re.escape(_BEYOND_FLOAT)}$"):
            model_matrix(big, build_spec("eq6", 3))
    assert "matrix" not in {key[0] for key in vars(big).get("_memo", {})}


@pytest.mark.parametrize(
    "runs, levels",
    [(slice(None), ["1", "2"]), (slice(5), ["1", "2", "3"]), (slice(None), ["1", "101/100", "51/50"])],
    ids=["two-levels", "five-base-runs", "close-levels"],
)
def test_singular_crossed_design_fails_as_the_full_factor(table1, spec6, runs, levels):
    # two levels cannot carry A^2, and five base runs cannot carry the 12
    # base terms: a small factor raises.  Levels 1/100 apart leave each
    # factor's rcond above 1e-10 (1.2e-10 and 0.012) but not their product,
    # the full matrix's.  Either way the error is the full matrix's
    design = cross_amounts(Design(table1.m, table1.kind, table1.runs[runs]), levels)
    with pytest.raises(SingularInformation) as want:
        leverages(model_matrix(design, spec6))
    with pytest.raises(SingularInformation) as got:
        fds_curve(design, spec6, 100, seed=1)
    assert str(got.value) == str(want.value)
    for coding in ("raw", "coded"):
        with pytest.raises(SingularInformation) as got:
            evaluate_design(design, spec6, coding=coding)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", ["1/2", "1/3"])
def test_constant_base_column_takes_the_full_path(value):
    # proportions that do not sum to 1, with x1 the same in every run, so X
    # is not singular: whether x1's R^2 is NaN turns on the full column's
    # sum of squares, so the report is the full matrices', bit for bit
    from oamix.core import DesignPoint, Kind

    rest = ((1, 2), (3, 1), (2, 5), (6, 1), (0, 3), (4, 4))
    runs = tuple(OofARun(DesignPoint((value, f"{a}/7", f"{b}/7"), Kind.PROPORTION)) for a, b in rest)
    design = cross_amounts(Design(3, Kind.PROPORTION, runs), ["1", "2", "3"])
    spec = build_spec("eq1", 3)
    assert _crossed_factors(design, spec) is None
    for coding, build in (("raw", model_matrix), ("coded", coded_model_matrix)):
        report, term = evaluate_design(design, spec, coding=coding), build(design, spec)
        np.testing.assert_array_equal([t.r2 for t in report.terms], term._factor.r2)
        assert [t.se for t in report.terms] == std_errors(term).tolist()


@pytest.mark.parametrize("coding", ["raw", "coded"])
def test_a_column_of_equal_cells_has_no_r2(coding):
    # x1 = 1/3 in every run: the mean of 16 equal cells does not round back
    # to 1/3, so the computed centred sum of squares is not 0, yet the
    # column is constant and its R^2 is undefined
    from oamix.core import DesignPoint, Kind

    rest = ((1, 2), (3, 1), (2, 4), (6, 1), (0, 3), (4, 4), (5, 2), (1, 1))
    runs = tuple(
        OofARun(DesignPoint(("1/3", f"{p}/7", f"{q}/5"), Kind.PROPORTION), None, amount)
        for amount in (1, 2)
        for p, q in rest
    )
    design = Design(3, Kind.PROPORTION, runs)
    spec = build_spec("eq1", 3)
    X = (model_matrix if coding == "raw" else coded_model_matrix)(design, spec).X
    assert (X[:, 0] == X[0, 0]).all() and _centred_sst(X)[0] > 0
    r2 = [t.r2 for t in evaluate_design(design, spec, coding=coding).terms]
    assert math.isnan(r2[0]) and not any(math.isnan(v) for v in r2[1:])
    with pytest.raises(ConstantColumn, match="^column x1 is constant$"):
        r2_multicollinearity(model_matrix(design, spec), 0)


def _big_level():
    return cross_amounts(oofa_expand(simplex_lattice(3, 2)), [1, 2, 10**400])


def _big_scale():
    return scale_amounts(oofa_expand(project_columns(simplex_centroid(4), [4])), 10**400)


_BEYOND_FLOAT = "is too large for a float (over 1.798e+308)"


@pytest.mark.parametrize(
    "build, eq, call, what",
    [
        (_big_level, "eq6", lambda d, s: evaluate_design(d, s, coding="raw"), "total amount A"),
        (_big_level, "eq6", lambda d, s: evaluate_design(d, s, coding="coded"), "total amount A"),
        (_big_level, "eq5", lambda d, s: fds_curve(d, s, 100, seed=1), "total amount A"),
        (_big_level, "eq1", model_matrix, "total amount A"),
        (_big_level, "eq2", coded_model_matrix, "total amount A"),
        # off the crossed path, the default sampling range converts the levels
        (lambda: _without_run(_big_level(), 0), "eq6", lambda d, s: fds_curve(d, s, 100, seed=1), "total amount A"),
        (lambda: _without_run(_big_level(), 0), "eq6", lambda d, s: _default_policy(d), "total amount A"),
        (_big_scale, "eq8", lambda d, s: evaluate_design(d, s), "component value"),
        (_big_scale, "eq3", model_matrix, "component value"),
    ],
    ids=["evaluate-raw", "evaluate-coded", "fds", "model_matrix", "coded_model_matrix", "fds-off-path",
         "default-policy", "evaluate-amounts", "model_matrix-amounts"],
)
def test_a_design_value_beyond_float_range_is_named(build, eq, call, what):
    design = build()
    with pytest.raises(InvalidParameter, match=f"^a {what} of the design {re.escape(_BEYOND_FLOAT)}$"):
        call(design, build_spec(eq, design.m))


@pytest.mark.parametrize("eq", ["eq1", "eq5", "eq6"])
def test_crossed_base_rows_are_the_full_matrix_rows(monkeypatch, eq):
    # sevenths do not fit a float exactly: X_base, taken from each distinct
    # point's exact pairs, is the full matrix's first-level rows bit for
    # bit, and each distinct point is converted once, with no float() of
    # its Fractions
    design = cross_amounts(oofa_expand(simplex_lattice(3, 7)), ["1/3", "1", "5/2"])
    spec = build_spec(eq, 3)
    X = model_matrix(design, spec).X
    values, floats = [0], [0]

    def counted_value(point, original=oamix.core._point_value):
        values[0] += 1
        return original(point)

    def counted_float(self, original=Fraction.__float__):
        floats[0] += 1
        return original(self)

    monkeypatch.setattr(oamix.core, "_point_value", counted_value)
    monkeypatch.setattr(Fraction, "__float__", counted_float)
    (base, base_fac), _ = _crossed_factors(design, spec)
    assert values[0] == 36 and floats[0] == 3
    np.testing.assert_array_equal(base_fac.X, X[: len(design) // 3, : base.p])


def _without_run(design, i):
    return Design(design.m, design.kind, design.runs[:i] + design.runs[i + 1 :])


def _level_moved(design):
    # in a design of three levels, the first level's first run and the
    # second level's last run trade amounts: every level keeps its run
    # count, not its multiset
    runs = list(design.runs)
    n = len(runs) // 3
    runs[0], runs[2 * n - 1] = (
        OofARun(runs[0].point, runs[0].pwo, runs[2 * n - 1].amount),
        OofARun(runs[2 * n - 1].point, runs[2 * n - 1].pwo, runs[0].amount),
    )
    return Design(design.m, design.kind, tuple(runs))


@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
@pytest.mark.parametrize(
    "name, eq",
    [("table3-one-run-dropped", "eq6"), ("table3-one-run-dropped", "eq5"), ("table3-level-moved", "eq6"),
     ("table5", "eq8")],
)
def test_fds_off_the_product_path_is_the_general_loop(table3, table5, name, eq, sign_policy):
    # a design that is not crossed, or a spec whose terms are no base list
    # times the powers of A, keeps the full model rows and factor
    designs = {
        "table3-one-run-dropped": _without_run(table3, 5),
        "table3-level-moved": _level_moved(table3),
        "table5": table5,
    }
    design, spec = designs[name], build_spec(eq, 3)
    assert _crossed_factors(design, spec) is None
    policy = _default_policy(design)
    for n in (100, _FDS_CHUNK + 1):
        got = fds_curve(design, spec, n, seed=5, sign_policy=sign_policy).variances
        assert _same_bits(got, _fresh_array_variances(design, spec, n, 5, policy, sign_policy, general=True))


@pytest.mark.parametrize("eq", ["eq1", "eq2", "eq5", "eq6"])
def test_table3_leverages_are_level_times_base_leverages(table1, table3, eq):
    # table3 is table1 at each of three levels, level-major, so X is
    # X_A (x) X_base and each leverage is a level's times a base run's
    spec = build_spec(eq, 3)
    degree = 1 if eq in ("eq1", "eq5") else 2
    q = spec.p // (degree + 1)
    levels = np.array([float(a) for a in table3.amount_levels])
    x_base = model_matrix(table3, spec).X[: len(table1), :q]
    want = np.kron(leverages(np.vander(levels, degree + 1, increasing=True)), leverages(x_base))
    np.testing.assert_allclose(leverages(model_matrix(table3, spec)), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("sign_policy", ["orderings", "continuous"])
def test_fds_rows_at_zero_amount_have_zero_signs(table2, spec8, sign_policy):
    policy = DiscreteAmounts(tuple(float(a) for a in table2.amount_levels))
    assert 0.0 in policy.levels
    x, keys, signs, amounts = _sample_chunk(2, 0, 1000, 3, policy, sign_policy)
    rows = _rows_from_samples(spec8, x, keys, signs, amounts)
    sign_cols = [c for c, term in enumerate(spec8.terms) if term.pwo_pair is not None]
    at_zero = amounts == 0
    assert 0 < at_zero.sum() < 1000
    assert np.all(rows[np.ix_(at_zero, sign_cols)] == 0)
    assert np.all(rows[np.ix_(~at_zero, sign_cols)] != 0)


def test_fds_curves_own_their_arrays(table3, spec6):
    a = fds_curve(table3, spec6, n_samples=1000, seed=1)
    b = fds_curve(table3, spec6, n_samples=1000, seed=1)
    assert np.array_equal(a.variances, b.variances)
    assert a.variances.flags.owndata and b.variances.flags.owndata
    assert not np.shares_memory(a.variances, b.variances)


def test_evaluate_report_schema(table2, spec8):
    report = evaluate_design(table2, spec8, signal_sd=2.0)
    data = report.to_dict()
    assert set(data) >= {
        "n_runs", "n_params", "max_pv", "avg_pv", "g_efficiency_pct",
        "d_criteria", "terms",
    }
    assert data["n_runs"] == 31 and data["n_params"] == 16
    assert data["avg_pv"] == pytest.approx(16 / 31, abs=1e-8)
    assert len(data["terms"]) == 16
    assert set(data["terms"][1]) == {"label", "se", "r2", "power"}
    assert 0 < data["g_efficiency_pct"] <= 100


def test_evaluate_raw_vs_coded_leverages_agree(table2, spec8):
    raw = evaluate_design(table2, spec8, coding="raw")
    coded = evaluate_design(table2, spec8, coding="coded")
    assert raw.max_pv == pytest.approx(coded.max_pv, abs=1e-10)
    assert raw.avg_pv == pytest.approx(coded.avg_pv, abs=1e-10)
    # per-term columns legitimately differ between codings
    assert raw.terms[1].se != coded.terms[1].se


def test_fds_refuses_a_sample_count_too_large_to_hold(table3, spec6):
    # the chunk buffers are a fixed size, so only the result cannot be made
    with pytest.raises(InvalidParameter, match=r"^n_samples=10{30} is too many to hold in memory$"):
        fds_curve(table3, spec6, 10**30, 1)


def test_fds_refuses_a_seed_its_text_could_not_show(table3, spec6):
    # Python writes an int of at most 4300 digits as text, so the curve's
    # header can show a seed that long and no longer
    for seed, digits in ((10**4300, 4301), (10**5000, 5001)):
        with pytest.raises(InvalidParameter, match=f"^seed must have at most 4300 digits, got an integer of {digits} digits$"):
            fds_curve(table3, spec6, 100, seed)
    seed = 10**4300 - 1
    text = fds_curve(table3, spec6, 100, seed).to_text()
    assert text.startswith(f"# fds seed={seed} samples=100 ") and len(text.splitlines()) == 101
