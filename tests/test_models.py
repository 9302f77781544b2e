"""Model specs, matrices, and least squares."""

import dataclasses
import hashlib
import pickle
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from oamix import (
    DesignPoint,
    Kind,
    ModelKind,
    build_spec,
    cross_amounts,
    evaluate_design,
    fds_curve,
    fit_ols,
    leverages,
    model_matrix,
    ordering_from_pwo,
    pwo_from_ordering,
    simplex_lattice,
    write_design,
)
from oamix.core import Design, OofARun
from oamix.errors import (
    InconsistentPwo,
    InvalidParameter,
    KindMismatch,
    MissingAmount,
    MissingPwo,
    SingularInformation,
    UnsupportedReduction,
)
from oamix import models
from oamix.models import Term, coded_model_matrix


def expected_p(kind: ModelKind, m: int) -> int:
    """Term counts assembled independently of build_spec."""
    pairs = comb(m, 2)
    return {
        ModelKind.MA_LIN: 2 * m,
        ModelKind.MA_QUAD: 3 * (m + pairs),
        ModelKind.CA_LIN: 1 + m,
        ModelKind.CA_QUAD: 1 + 2 * m + pairs,
        ModelKind.OOFA_MA_ADD: 2 * (m + pairs),
        ModelKind.OOFA_MA_FULL: 3 * (2 * m + 2 * pairs),
        ModelKind.OOFA_CA_ADD: 1 + m + pairs,
        ModelKind.OOFA_CA_FULL: 1 + 3 * m + 2 * pairs,
    }[kind]


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("m", range(2, 6))
def test_term_counts(kind, m):
    assert build_spec(kind, m).p == expected_p(kind, m)


def test_eq6_m3_has_36_terms_in_blocks():
    spec = build_spec("eq6", 3)
    assert spec.p == 36
    block = ["x1", "x2", "x3", "x1x2", "x1x3", "x2x3", "z12", "z13", "z23",
             "x1z12", "x2z23", "x3z13"]
    expected = block + [f"{t}A" for t in block] + [f"{t}A^2" for t in block]
    assert list(spec.labels) == expected


def test_eq8_m3_term_list_and_labels():
    spec = build_spec("eq8", 3)
    assert list(spec.labels) == [
        "1", "a1", "a2", "a3", "z12", "z13", "z23",
        "a11", "a22", "a33", "a1a2", "a1a3", "a2a3",
        "a1z12", "a2z23", "a3z13",
    ]


def test_ca_lin_terms():
    assert list(build_spec("eq3", 3).labels) == ["1", "a1", "a2", "a3"]


def test_the_term_with_no_factor_is_the_intercept():
    assert Term().label("x") == Term().label("a") == "1"


# sha256 of the labels and of every term's comp_powers, pwo_pair and
# amount_power, for each family at m = 2..9 under three reductions
SPEC_DIGEST = "b07cd7a5e811c89bd84d39aa06b81c67537df12f00174c34946b533382f43c0c"


def test_every_term_list_is_pinned():
    digest = hashlib.sha256()
    for kind in ModelKind:
        for m in range(2, 10):
            for reduction in ("cyclic", "keep_all", ((m, (1, m)), (1, (2, 1)))):
                spec = build_spec(kind, m, reduction)
                terms = [(t.comp_powers, t.pwo_pair, t.amount_power) for t in spec.terms]
                digest.update(repr((spec.labels, terms)).encode())
    assert digest.hexdigest() == SPEC_DIGEST


def test_model_kind_parse():
    assert ModelKind.parse("eq6") is ModelKind.OOFA_MA_FULL
    assert ModelKind.parse("OOFA_CA_FULL") is ModelKind.OOFA_CA_FULL
    with pytest.raises(InvalidParameter):
        ModelKind.parse("eq9")


def test_reduction_rules():
    cyclic = build_spec("eq8", 4)
    labels = [t for t in cyclic.labels if "z" in t and t.startswith("a")]
    assert labels == ["a1z12", "a2z23", "a3z34", "a4z14"]
    keep_all = build_spec("eq8", 3, reduction="keep_all")
    assert keep_all.p == 1 + 3 * 3 + 3 + 6
    custom = build_spec("eq8", 3, reduction=[(1, (1, 3)), (2, (2, 3))])
    assert [t for t in custom.labels if t.startswith("a1z") or t.startswith("a2z")] == [
        "a1z13", "a2z23"
    ]
    with pytest.raises(UnsupportedReduction):
        build_spec("eq8", 3, reduction="bogus")
    with pytest.raises(UnsupportedReduction):
        build_spec("eq8", 3, reduction=[(1, (2, 3))])  # not a member of its pair
    with pytest.raises(UnsupportedReduction):
        build_spec("eq8", 3, reduction=[(1, (1, 2)), (1, (1, 2))])


@pytest.mark.parametrize(
    "reduction, dtype",
    [([[1, 2]], None), ([1, 2], None), ([[1, 2, 3]], None), ("cyclic", None), (5, None),
     ([(1, (1, 3)), (2, (2, 3))], object), ([(1, (1, 5))], object)],
    ids=["pair_row", "flat_pair", "triple_row", "cyclic", "int", "custom", "out_of_range"],
)
def test_a_numpy_reduction_is_judged_as_the_equal_list(reduction, dtype):
    # an array is never compared to a rule name, so numpy raises no
    # ambiguous-truth ValueError
    outcomes = []
    for given in (reduction, np.array(reduction, dtype=dtype)):
        try:
            outcomes.append(build_spec("eq6", 3, given))
        except UnsupportedReduction as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    if reduction == [[1, 2]]:
        assert outcomes[1] == "a reduction entry is (component, (j, k)), got [1, 2]"


def _amount_degree(spec):
    """T of a spec split into a base spec and the amount terms 1, A, ...,
    A^T (`ModelSpec._parts`), 0 for a spec of one part."""
    parts = spec._parts
    return parts[1].p - 1 if len(parts) == 2 else 0


@pytest.mark.parametrize("eq, m, degree", [("eq6", 3, 2), ("eq5", 6, 1), ("eq8", 3, 0)])
def test_spec_facts_are_kept_and_leave_equality_hash_pickle_and_replace_alone(eq, m, degree):
    spec = build_spec(eq, m)
    twin = build_spec(eq, m)
    assert spec.labels is spec.labels and _amount_degree(spec) == degree
    assert "labels" in vars(spec) and "labels" not in vars(twin)
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and hash(copy) == hash(spec) and copy.labels == spec.labels
    # a replaced spec computes its own facts, not the original's
    fewer = dataclasses.replace(spec, terms=spec.terms[:-1])
    assert "labels" not in vars(fewer) and fewer.labels == spec.labels[:-1]
    assert _amount_degree(fewer) == 0
    assert dataclasses.replace(spec) == spec


@pytest.mark.parametrize("eq, degree", [("eq1", 1), ("eq2", 2), ("eq5", 1), ("eq6", 2)])
def test_a_mixture_amount_spec_splits_into_base_and_amount_parts(eq, degree):
    spec = build_spec(eq, 4)
    base, amount = spec._parts
    assert base == models.ModelSpec(spec.kind, 4, spec.terms[: spec.p // (degree + 1)])
    assert amount.labels == ("1", "A", "A^2")[: degree + 1]
    # the amount part's rows read neither signs nor component amounts
    assert not amount.kind.has_pwo and not amount.kind.uses_amounts
    assert pickle.loads(pickle.dumps(spec))._parts == (base, amount)
    a = np.array([0.0, 0.5, 1.25, 3.0, 1e-200, 1.3e154])
    want = np.column_stack([np.ones(a.size), a, np.square(a)])[:, : degree + 1]
    for out in (None, np.empty((degree + 1, a.size)).T):
        got = models.term_columns(amount, None, None, a, out=out)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("eq", ["eq3", "eq4", "eq7", "eq8"])
def test_a_component_amount_spec_is_one_part(eq):
    spec = build_spec(eq, 3)
    assert spec._parts == (spec,)
    assert pickle.loads(pickle.dumps(spec))._parts == (spec,)


def test_matrix_shapes(table2, table3, spec6, spec8):
    assert model_matrix(table3, spec6).shape == (63, 36)
    assert model_matrix(table2, spec8).shape == (31, 16)


def test_full_rank_on_reference_designs(table2, table3, spec6, spec8):
    assert np.linalg.matrix_rank(model_matrix(table3, spec6).X) == 36
    assert np.linalg.matrix_rank(model_matrix(table2, spec8).X) == 16


def test_vertex_row_eq1():
    point = DesignPoint((1, 0, 0), Kind.PROPORTION)
    run = OofARun(point, pwo=pwo_from_ordering(point, (1,)), amount=Fraction(1))
    d = Design(m=3, kind=Kind.PROPORTION, runs=(run,))
    X = model_matrix(d, build_spec("eq1", 3)).X
    assert X.tolist() == [[1, 0, 0, 1, 0, 0]]


def test_scheffe_rows_sum_to_one(table3, spec6):
    X = model_matrix(table3, spec6).X
    assert np.allclose(X[:, :3].sum(axis=1), 1.0)


def test_matrix_kind_checks(table1, table2, table3, spec6, spec8):
    with pytest.raises(KindMismatch):
        model_matrix(table2, spec6)  # amount design under a proportion spec
    with pytest.raises(KindMismatch):
        model_matrix(table3, spec8)  # proportion design under an amount spec
    with pytest.raises(KindMismatch):
        model_matrix(table2, build_spec("eq8", 4))  # component count mismatch
    with pytest.raises(MissingAmount):
        model_matrix(table1, spec6)  # no amount levels attached yet
    base = simplex_lattice(3, 3)
    with pytest.raises(MissingPwo):
        model_matrix(cross_amounts(base, [1]), spec6)


_SIGN_READERS = {
    "model_matrix": lambda design: model_matrix(design, build_spec("eq5", 3)),
    "coded_model_matrix": lambda design: coded_model_matrix(design, build_spec("eq6", 3)),
    "evaluate_design": lambda design: evaluate_design(design, build_spec("eq5", 3)),
    "fds_curve": lambda design: fds_curve(design, build_spec("eq6", 3), 100, 1),
    "write_design": write_design,
}


@pytest.mark.parametrize("reader", list(_SIGN_READERS))
@pytest.mark.parametrize(
    "cut, count",
    [(lambda n, pwo: pwo[:2], 2), (lambda n, pwo: pwo if n % 2 else pwo + (1,), 4)],
    ids=["all_short", "ragged"],
)
def test_sign_tuples_of_the_wrong_length_are_refused(table3, reader, cut, count):
    # refused when the design is built, so no matrix, report, curve or
    # file is ever made of them
    runs = [OofARun(run.point, cut(n, run.pwo), run.amount) for n, run in enumerate(table3.runs)]
    with pytest.raises(InconsistentPwo, match=f"^run 1: {count} signs for the pairs of 3 components$"):
        _SIGN_READERS[reader](Design(3, Kind.PROPORTION, runs))


@pytest.mark.parametrize(
    "kind, m, reduction, error, message",
    [
        ("eq5", 3.5, "cyclic", InvalidParameter, "m must be an integer, got 3.5"),
        ("eq6", True, "cyclic", InvalidParameter, "m must be an integer, got True"),
        ("eq6", 3, [(1.5, (1, 2))], InvalidParameter, "reduction component must be an integer, got 1.5"),
        ("eq8", 3, [(1, (1, 2.0))], InvalidParameter, "reduction component must be an integer, got 2.0"),
        ("eq8", 3, [(True, (1, 2))], InvalidParameter, "reduction component must be an integer, got True"),
        ("eq6", 3, [5], UnsupportedReduction, r"a reduction entry is \(component, \(j, k\)\), got 5"),
        ("eq6", 3, [(1, (1,))], UnsupportedReduction, r"a reduction entry is \(component, \(j, k\)\), got \(1, \(1,\)\)"),
        ("eq6", 3, [(1, (1, 2, 3))], UnsupportedReduction, "a reduction entry is"),
        ("eq6", 3, 5, UnsupportedReduction, "unknown reduction rule 5"),
    ],
    ids=["m_3.5", "m_True", "component_1.5", "pair_2.0", "component_True", "entry_int", "pair_of_one",
         "pair_of_three", "rule_int"],
)
def test_build_spec_checks_its_integer_arguments(kind, m, reduction, error, message):
    with pytest.raises(error, match=f"^{message}"):
        build_spec(kind, m, reduction=reduction)


def test_build_spec_rejects_small_m():
    from oamix.errors import InvalidDimension

    with pytest.raises(InvalidDimension):
        build_spec("eq1", 1)


def test_exchange_symmetry_leverages(table1, spec6):
    # relabel components by a cycle; leverage multiset is unchanged
    perm = {1: 2, 2: 3, 3: 1}
    runs = []
    for run in table1.runs:
        values = [None] * 3
        for i, v in enumerate(run.point.values, start=1):
            values[perm[i] - 1] = v
        point = DesignPoint(tuple(values), Kind.PROPORTION)
        ordering = tuple(perm[c] for c in ordering_from_pwo(run.point.support(), run.pwo))
        runs.append(OofARun(point, pwo=pwo_from_ordering(point, ordering)))
    permuted = cross_amounts(
        Design(m=3, kind=Kind.PROPORTION, runs=tuple(runs)),
        [Fraction(3, 4), Fraction(3, 2), Fraction(3)],
    )
    original = cross_amounts(table1, [Fraction(3, 4), Fraction(3, 2), Fraction(3)])
    lev_a = np.sort(leverages(model_matrix(original, spec6)))
    lev_b = np.sort(leverages(model_matrix(permuted, spec6)))
    assert np.allclose(lev_a, lev_b, atol=1e-8)


def test_coded_matrix_same_shape_and_signs(table2, spec8):
    raw = model_matrix(table2, spec8)
    coded = coded_model_matrix(table2, spec8)
    assert coded.shape == raw.shape
    assert coded.col_labels == raw.col_labels
    # sign columns are untouched by coding
    assert np.array_equal(coded.X[:, 4:7], raw.X[:, 4:7])


@pytest.mark.parametrize("build", [model_matrix, coded_model_matrix])
@pytest.mark.parametrize("eq, p", [("eq3", 4), ("eq4", 10)])
def test_a_design_with_no_runs_has_a_matrix_with_no_rows(build, eq, p):
    mm = build(Design(3, Kind.AMOUNT, ()), build_spec(eq, 3))
    assert mm.shape == (0, p)
    assert mm.col_labels == build_spec(eq, 3).labels


def test_fit_ols_identity():
    fit = fit_ols(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(fit.coef, [1, 2, 3])
    assert fit.df_resid == 0


def test_fit_ols_recovers_coefficients(table2, spec8):
    X = model_matrix(table2, spec8).X
    rng = np.random.default_rng(0)
    beta = rng.normal(size=X.shape[1])
    fit = fit_ols(X, X @ beta)
    assert np.max(np.abs(fit.coef - beta)) / np.max(np.abs(beta)) < 1e-10


def test_fit_ols_residual_df(table3, spec6):
    mm = model_matrix(table3, spec6)
    rng = np.random.default_rng(1)
    fit = fit_ols(mm, rng.normal(size=63))
    assert fit.df_resid == 27


def test_fit_ols_rank_deficient_reports_labels():
    X = np.column_stack([np.ones(5), np.arange(5.0), 2 * np.arange(5.0)])
    with pytest.raises(SingularInformation, match=r"columns include \['1', '2'\]"):
        fit_ols(X, np.zeros(5))


def test_fit_ols_more_params_than_rows():
    with pytest.raises(SingularInformation):
        fit_ols(np.ones((2, 3)), [1.0, 2.0])


@pytest.mark.parametrize("y", [[1.0, 2.0], [1.0, float("nan"), 2.0], [[1.0, 2.0, 3.0]], ["a", "b", "c"]],
                         ids=["short", "nan", "two_dimensional", "strings"])
def test_fit_ols_rejects_a_bad_response(y):
    with pytest.raises(InvalidParameter, match="y needs 3 finite values"):
        fit_ols(np.eye(3), y)


def test_keep_all_eq6_has_the_most_terms_at_each_m():
    # the term limit is checked against this count, so no family or
    # reduction may exceed it
    for m in range(2, 8):
        largest = 3 * m * (2 * m - 1)
        assert build_spec("eq6", m, "keep_all").p == largest
        for kind, reduction in product(ModelKind, ["cyclic", "keep_all", [(1, (1, 2)), (2, (1, 2))]]):
            assert build_spec(kind, m, reduction).p <= largest


@pytest.mark.parametrize(
    "kind, m, reduction, message",
    [
        ("eq5", 10**400, "cyclic", "a model at m=10{400} may have 59{399}70{400} terms, over the limit of 100000$"),
        ("eq6", 10**400, "keep_all", "a model at m=10{400} may have "),
        ("eq8", 10**400, [(1, (1, 2))], "a model at m=10{400} may have "),
        ("eq1", 130, "cyclic", "a model at m=130 may have 101010 terms, over the limit of 100000$"),
    ],
    ids=["eq5_huge", "eq6_keep_all_huge", "eq8_custom_huge", "eq1_just_over"],
)
def test_a_spec_over_the_term_limit_is_refused_before_it_is_built(monkeypatch, kind, m, reduction, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a term was built")

    monkeypatch.setattr(models, "Term", refuse)
    with pytest.raises(InvalidParameter, match=f"^{message}"):
        build_spec(kind, m, reduction)


def test_the_term_limit_admits_an_m_of_its_size(monkeypatch):
    # 3m(2m - 1) is 45 at m = 3 and 84 at m = 4
    monkeypatch.setattr(models, "_MAX_TERMS", 45)
    assert build_spec("eq6", 3, "keep_all").p == 45
    with pytest.raises(InvalidParameter, match="^a model at m=4 may have 84 terms, over the limit of 45$"):
        build_spec("eq1", 4)
