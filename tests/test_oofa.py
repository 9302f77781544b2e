"""Orderings, sign vectors, expansion, crossing, scaling."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamix import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    cross_amounts,
    oofa_expand,
    ordering_from_pwo,
    pwo_from_ordering,
    project_columns,
    pwo_pairs,
    read_design,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    validate_design,
    write_design,
)
from oamix.errors import (
    AlreadyExpanded,
    BadPwoValue,
    DuplicateLevel,
    EmptyLevels,
    InconsistentPwo,
    InconsistentPwoRow,
    InvalidDimension,
    InvalidParameter,
    NegativeEntry,
    NonPositiveScale,
    OamixError,
    OrderingSupportMismatch,
    WrongKind,
)
from oamix import oofa
from oamix.oofa import _m_from_pairs, _ordering_from_pwo, _tournaments, validate_run
from oamix.simplex import project_columns

import reader_faults


def P(*values, kind=Kind.PROPORTION):
    return DesignPoint(tuple(values), kind)


def test_pwo_pairs_lexicographic():
    assert pwo_pairs(3) == ((1, 2), (1, 3), (2, 3))
    assert pwo_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


@pytest.mark.parametrize("m", [None, "x", True, 2.0, 0, -3], ids=["None", "text", "bool", "float", "zero", "negative"])
def test_pwo_pairs_refuses_an_m_that_is_no_component_count(m):
    with pytest.raises(InvalidParameter, match="^m must be an integer >= 1, got "):
        pwo_pairs(m)


@pytest.mark.parametrize("m", [448, 10**400])
def test_pwo_pairs_refuses_too_many_pairs_before_building_them(monkeypatch, m):
    # 448 components have 100128 pairs; 10**400 is refused by its count alone
    def build(m):
        raise AssertionError("the pairs were built")

    monkeypatch.setattr(oofa, "_pwo_pairs", build)
    with pytest.raises(InvalidParameter, match=f"^m={m} has {m * (m - 1) // 2} pairs, over the limit of 100000$"):
        pwo_pairs(m)


def test_pwo_pairs_builds_up_to_its_limits():
    assert pwo_pairs(1) == ()
    assert len(pwo_pairs(447)) == 447 * 446 // 2


def test_pwo_full_support_example():
    # order (2, 1, 3): 2 first, so z12 = -1; 1 and 2 both precede 3
    z = pwo_from_ordering(P("1/3", "1/3", "1/3"), (2, 1, 3))
    assert z == (-1, 1, 1)


def test_pwo_masking_binary_blend():
    z = pwo_from_ordering(P("1/3", "2/3", 0), (1, 2))
    assert z == (1, 0, 0)


def test_pwo_vertex_all_zero():
    assert pwo_from_ordering(P(1, 0, 0), (1,)) == (0, 0, 0)


def test_pwo_support_mismatch():
    with pytest.raises(OrderingSupportMismatch):
        pwo_from_ordering(P("1/3", "2/3", 0), (1, 2, 3))
    with pytest.raises(OrderingSupportMismatch):
        pwo_from_ordering(P("1/3", "1/3", "1/3"), (1, 2))


def test_ordering_from_pwo_identity_and_reverse():
    assert ordering_from_pwo({1, 2, 3}, (1, 1, 1)) == (1, 2, 3)
    assert ordering_from_pwo({1, 2, 3}, (-1, -1, -1)) == (3, 2, 1)


def test_ordering_from_pwo_cyclic_pattern_rejected():
    with pytest.raises(InconsistentPwo):
        ordering_from_pwo({1, 2, 3}, (1, -1, 1))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ordering_from_pwo_accepts_exactly_the_induced_signs(m):
    # over every support and every sign vector, the vectors some order
    # induces decode to that order, and every other vector is refused
    for size in range(m + 1):
        for support in combinations(range(1, m + 1), size):
            point = P(*(int(i in support) for i in range(1, m + 1)), kind=Kind.AMOUNT)
            induced = {pwo_from_ordering(point, o): o for o in permutations(support)}
            assert len(induced) == factorial(size)
            for z in product((-1, 0, 1), repeat=len(pwo_pairs(m))):
                if z in induced:
                    assert ordering_from_pwo(support, z) == induced[z]
                else:
                    with pytest.raises(InconsistentPwo):
                        ordering_from_pwo(support, z)


def _full_pair_ordering(support: tuple[int, ...], pwo: tuple) -> tuple[int, ...]:
    """`_ordering_from_pwo` as a loop over every pair: the reference for the
    plan that visits only the support's pairs."""
    if not {-1, 0, 1}.issuperset(pwo):
        raise BadPwoValue(f"sign entries must be -1, 0 or +1, got {','.join(map(str, pwo))}")
    m = _m_from_pairs(len(pwo))
    if support and support[-1] > m:
        raise InconsistentPwo(f"support {support} exceeds the {m} components the signs cover")
    present = [False] * (m + 1)
    for c in support:
        present[c] = True
    wins = [0] * (m + 1)
    for (j, k), z in zip(pwo_pairs(m), pwo):
        if present[j] and present[k]:
            if z == 0:
                raise InconsistentPwo(f"z{j}{k} must be nonzero: both components are active")
            wins[j if z == 1 else k] += 1
        elif z != 0:
            raise InconsistentPwo(f"z{j}{k} must be zero: an absent component is involved")
    order = [0] * len(support)
    for c in support:
        order[len(support) - 1 - wins[c]] = c
    if 0 in order:
        raise InconsistentPwo("sign pattern is not induced by any addition order")
    return tuple(order)


def _outcome(call):
    try:
        return call()
    except OamixError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", [3, 4])
def test_order_check_agrees_with_the_full_pair_loop(m):
    # every support (and one beyond m) against every sign vector, and
    # vectors holding a value that is no sign
    n_pairs = len(pwo_pairs(m))
    supports = [s for size in range(m + 1) for s in combinations(range(1, m + 1), size)] + [(1, m + 1)]
    vectors = list(product((-1, 0, 1), repeat=n_pairs))
    vectors += [(2,) + (1,) * (n_pairs - 1), (1,) * (n_pairs - 1) + (Fraction(1, 2),), (0, -2) + (0,) * (n_pairs - 2)]
    for support in supports:
        for pwo in vectors:
            want = _outcome(lambda: _full_pair_ordering(support, pwo))
            assert _outcome(lambda: _ordering_from_pwo(support, pwo)) == want, (support, pwo)
    # a sign count that is no pair set
    for pwo in ((1, 1), (1, 0, 0, 1)):
        assert _outcome(lambda: _ordering_from_pwo((1, 2), pwo)) == _outcome(lambda: _full_pair_ordering((1, 2), pwo))


def _run(m: int, support, pwo: tuple) -> OofARun:
    """A run of m components over `support` holding `pwo` as it is, so a
    value that is no sign reaches the order check: a proportion run of
    equal shares at an odd m and a support not empty, else an amount run of
    unit amounts."""
    if support and m % 2:
        point = P(*(Fraction(int(c in support), len(support)) for c in range(1, m + 1)))
        return OofARun._of(point, pwo, None)
    point = P(*(int(c in support) for c in range(1, m + 1)), kind=Kind.AMOUNT)
    return OofARun._of(point, pwo, Fraction(len(support)))


@st.composite
def sign_patterns(draw):
    """A run of m <= 8 components, with the signs of one ordering of its
    support, or those signs with up to three faults: the first-added of
    three components moved after the last (a cyclic tournament), a flipped
    sign, a 0 within the support, a nonzero sign outside it, or a value
    that is no sign."""
    m = draw(st.sampled_from(range(1, 9)))
    s = draw(st.sampled_from(range(m + 1)))
    support = tuple(sorted(draw(st.permutations(range(1, m + 1)))[:s]))
    ordering = draw(st.permutations(support))
    pwo = list(pwo_from_ordering(_run(m, support, None).point, ordering))
    pairs = pwo_pairs(m)
    within = [n for n, (j, k) in enumerate(pairs) if j in support and k in support]
    outside = [n for n in range(len(pairs)) if n not in within]
    for fault in draw(st.lists(st.sampled_from(["cycle", "flip", "zero", "outside", "value"]), max_size=3)):
        if fault == "cycle" and len(support) >= 3:
            p, _, r = sorted(draw(st.sets(st.integers(0, len(support) - 1), min_size=3, max_size=3)))
            at = pairs.index(tuple(sorted((ordering[p], ordering[r]))))
            pwo[at] = -pwo[at]
        elif fault in ("flip", "zero") and within:
            at = draw(st.sampled_from(within))
            pwo[at] = -pwo[at] if fault == "flip" else 0
        elif fault == "outside" and outside:
            pwo[draw(st.sampled_from(outside))] = draw(st.sampled_from((1, -1)))
        elif fault == "value" and pairs:
            pwo[draw(st.integers(0, len(pairs) - 1))] = draw(st.sampled_from((2, -2, Fraction(1, 2))))
    return _run(m, support, tuple(pwo))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(sign_patterns())
@example(_run(1, (), ()))
@example(_run(4, (), (0,) * 6))  # an amount point of all-zero amounts
@example(_run(3, (1, 2, 3), (1, -1, 1)))  # 1 before 2 before 3 before 1
@example(_run(7, tuple(range(1, 8)), (-1,) + (1,) * 20))  # past the table
@example(_run(8, tuple(range(1, 9)), (1, -1) + (1,) * 26))  # and cyclic
@example(_run(3, (1, 2), (0, 0, 0)))
@example(_run(3, (1, 2), (1, 1, 0)))
@example(_run(3, (1, 2, 3), (1, 2, 1)))
@example(_run(3, (1, 2, 3), (1, 1, Fraction(1, 2))))
def test_a_run_is_judged_by_its_order_as_the_win_count_walk_judges_its_signs(run):
    # the table lookup accepts exactly the signs the walk accepts, and
    # every refusal is the walk's, class and message
    want = _refusal(lambda: _ordering_from_pwo(run.point.support(), run.pwo))
    assert _refusal(lambda: validate_run(run)) == want, run


def _refusal(call):
    """None when `call` returns, else the class and message of its error."""
    try:
        call()
    except OamixError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("s", range(7))
def test_the_table_holds_the_signs_of_every_ordering(s):
    point = P(*(1,) * s or (0,), kind=Kind.AMOUNT)
    assert _tournaments(s) == {pwo_from_ordering(point, o) for o in permutations(range(1, s + 1))}
    assert len(_tournaments(s)) == factorial(s)


@pytest.mark.parametrize(
    "support, pwo",
    [((0,), (0,)), ((-3,), (0, 0, 0)), ((1, 1), (0,))],
    ids=["zero", "negative", "repeated"],
)
def test_ordering_from_pwo_refuses_a_support_that_is_not_component_indices(support, pwo):
    message = f"support {tuple(sorted(support))} must be distinct component indices from 1"
    with pytest.raises(OrderingSupportMismatch, match=f"^{re.escape(message)}$"):
        ordering_from_pwo(support, pwo)


def test_only_six_patterns_are_transitive():
    # enumerate the orders; exactly 6 of the 8 sign patterns are induced
    induced = {
        pwo_from_ordering(P("1/3", "1/3", "1/3"), order)
        for order in permutations((1, 2, 3))
    }
    assert len(induced) == 6
    assert (1, -1, 1) not in induced
    assert (-1, 1, -1) not in induced


def test_ordering_from_pwo_masking_violations():
    with pytest.raises(InconsistentPwo):
        ordering_from_pwo({1, 2}, (0, 0, 0))  # active pair must be nonzero
    with pytest.raises(InconsistentPwo):
        ordering_from_pwo({1}, (1, 0, 0))  # absent pair must be zero


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ordering_from_pwo((1, 2), (1.7,)), BadPwoValue),
        (lambda: ordering_from_pwo((1, 2), ("-1",)), BadPwoValue),
        (lambda: ordering_from_pwo((1.5, 2), (1,)), OrderingSupportMismatch),
        (lambda: pwo_from_ordering(P("1/2", "1/2"), (1.9, 2.2)), OrderingSupportMismatch),
        (lambda: pwo_from_ordering(P("1/2", "1/2"), ("1", "2")), OrderingSupportMismatch),
    ],
    ids=["fractional_sign", "string_sign", "fractional_support", "fractional_ordering", "string_ordering"],
)
def test_order_functions_refuse_non_integer_entries(call, error):
    # a non-integer entry is refused, never truncated to a valid one
    with pytest.raises(error, match="entries must be integers, got "):
        call()


def test_order_functions_accept_integral_numbers():
    i64 = np.int64
    assert ordering_from_pwo((i64(1), i64(2)), (i64(-1),)) == (2, 1)
    assert ordering_from_pwo((1, 2), (Fraction(1),)) == (1, 2)
    assert pwo_from_ordering(P("1/2", "1/2"), (i64(2), i64(1))) == (-1,)
    assert all(type(c) is int for c in ordering_from_pwo((i64(1), i64(2)), (i64(1),)))
    assert all(type(z) is int for z in pwo_from_ordering(P("1/2", "1/2"), (i64(1), i64(2))))


def test_expand_lattice_21_runs(table1):
    assert len(table1) == 21
    # 3 vertices, 6 binary points twice, 1 centroid six times
    sizes = sorted(len(r.point.support()) for r in table1.runs)
    assert sizes.count(1) == 3 and sizes.count(2) == 12 and sizes.count(3) == 6
    validate_design(table1)


def test_expand_projected_centroid_31_runs(table2):
    assert len(table2) == 31
    validate_design(table2)


def test_validate_design_needs_a_sign_per_pair():
    point = P("1/2", "1/2", 0)
    design = Design(m=3, kind=Kind.PROPORTION, runs=(OofARun(point, pwo=(1,)),))
    with pytest.raises(InconsistentPwo, match="^run 1: "):
        validate_design(design)


def test_expand_counts_sum_of_factorials():
    for d in [simplex_lattice(3, 2), simplex_centroid(4), project_columns(simplex_centroid(4), {4})]:
        expanded = oofa_expand(d)
        assert len(expanded) == sum(
            factorial(max(1, len(r.point.support()))) for r in d.runs
        )


def test_expand_pure_vertices_passthrough():
    d = simplex_lattice(3, 1)
    e = oofa_expand(d)
    assert len(e) == 3
    assert all(r.pwo == (0, 0, 0) for r in e.runs)


def test_expand_twice_raises(table1):
    with pytest.raises(AlreadyExpanded):
        oofa_expand(table1)


def test_expand_needs_two_components():
    with pytest.raises(InvalidDimension):
        oofa_expand(project_columns(simplex_centroid(3), {2, 3}))


def test_cross_amounts_counts_and_levels(table1, table3):
    assert len(table3) == 63
    assert table3.amount_levels == (Fraction(3, 4), Fraction(3, 2), Fraction(3))
    # level-major order: first 21 runs at the first level
    assert all(r.amount == Fraction(3, 4) for r in table3.runs[:21])
    assert len(cross_amounts(table1, ["0.75", "1.5"])) == 42


def test_cross_single_level_is_identity_with_amount(table1):
    d = cross_amounts(table1, [1])
    assert len(d) == len(table1)
    assert all(r.amount == 1 for r in d.runs)
    assert all(r.point == s.point for r, s in zip(d.runs, table1.runs))


def test_cross_errors(table1, table2, table3):
    with pytest.raises(EmptyLevels):
        cross_amounts(table1, [])
    with pytest.raises(DuplicateLevel):
        cross_amounts(table1, [1, "1"])
    with pytest.raises(NegativeEntry):
        cross_amounts(table1, [-1])
    with pytest.raises(WrongKind):
        cross_amounts(table2, [1])  # amount designs cannot be crossed
    with pytest.raises(WrongKind):
        cross_amounts(table3, [1])  # already carries levels


@pytest.mark.parametrize(
    "levels, message",
    [
        (1, "levels must be iterable, got 1"),
        ([True], "amount level must be an int, a Fraction or exact text, got True"),
        ([0.1], "amount level must be an int, a Fraction or exact text, got 0.1"),
        (["x"], "amount level must be an int, a Fraction or exact text, got 'x'"),
        ([1, None], "amount level must be an int, a Fraction or exact text, got None"),
    ],
    ids=["not_iterable", "bool", "float", "unreadable_text", "None"],
)
def test_cross_refuses_bad_levels(table1, levels, message):
    # a bool is never taken as the level 1
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        cross_amounts(table1, levels)


def test_scale_amounts_table5(table2, table5):
    assert table5.amount_levels == (
        Fraction(0),
        Fraction(250),
        Fraction(1000, 3),
        Fraction(375),
        Fraction(500),
    )
    # signs unchanged, coordinates scaled
    for r5, r2 in zip(table5.runs, table2.runs):
        assert r5.pwo == r2.pwo
        assert r5.point.values == tuple(v * 500 for v in r2.point.values)
    run = [r for r in table5.runs if r.point.values == (Fraction(500, 3), Fraction(500, 3), 0)]
    assert run and run[0].amount == Fraction(1000, 3)


def test_scale_identity_and_errors(table1, table2):
    same = scale_amounts(table2, 1)
    assert all(a.point == b.point for a, b in zip(same.runs, table2.runs))
    with pytest.raises(NonPositiveScale):
        scale_amounts(table2, 0)
    with pytest.raises(WrongKind):
        scale_amounts(table1, 500)


@pytest.mark.parametrize(
    "scale, message",
    [
        (True, "scale must be an int, a Fraction or exact text, got True"),
        (1.5, "scale must be an int, a Fraction or exact text, got 1.5"),
        (None, "scale must be an int, a Fraction or exact text, got None"),
        ("x", "scale must be an int, a Fraction or exact text, got 'x'"),
    ],
    ids=["bool", "float", "None", "unreadable_text"],
)
def test_scale_refuses_bad_scales(table2, scale, message):
    # a bool is never taken as the scale 1
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        scale_amounts(table2, scale)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pwo_from_ordering(P("1/2", "1/2", 0), None), "ordering must be iterable, got None"),
        (lambda: pwo_from_ordering(P("1/2", "1/2", 0), 5), "ordering must be iterable, got 5"),
        (lambda: ordering_from_pwo(None, (1, 0, 0)), "support must be iterable, got None"),
    ],
    ids=["ordering_None", "ordering_int", "support_None"],
)
def test_orderings_and_supports_must_be_iterable(call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()


# -- property tests -----------------------------------------------------------

amount_points = st.lists(
    st.integers(min_value=0, max_value=5), min_size=2, max_size=5
).map(lambda ks: DesignPoint(tuple(Fraction(k, 6) for k in ks), Kind.AMOUNT))


@st.composite
def point_with_ordering(draw):
    point = draw(amount_points)
    support = list(point.support())
    ordering = tuple(draw(st.permutations(support))) if support else ()
    return point, ordering


@given(point_with_ordering())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pwo_round_trip(case):
    point, ordering = case
    z = pwo_from_ordering(point, ordering)
    assert ordering_from_pwo(point.support(), z) == ordering
    assert pwo_from_ordering(point, ordering_from_pwo(point.support(), z)) == z


@given(point_with_ordering())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pwo_zero_masking(case):
    point, ordering = case
    z = pwo_from_ordering(point, ordering)
    for (j, k), sign in zip(pwo_pairs(point.m), z):
        masked = min(point.values[j - 1], point.values[k - 1]) == 0
        assert (sign == 0) == masked


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: oofa_expand(None), "design must be a Design, got NoneType"),
        (lambda: cross_amounts(None, [1]), "design must be a Design, got NoneType"),
        (lambda: scale_amounts(None, 2), "design must be a Design, got NoneType"),
        (lambda: project_columns(None, {1}), "design must be a Design, got NoneType"),
        (lambda: write_design(object()), "design must be a Design, got object"),
        (lambda: oofa_expand(simplex_lattice(3, 2).runs), "design must be a Design, got tuple"),
    ],
    ids=["expand", "cross", "scale", "project", "write", "expand_runs"],
)
def test_design_transforms_refuse_what_is_not_a_design(call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()


# -- the first faulty run of a design built in code -------------------------------


def _walked(runs) -> list[str]:
    """The reference answer: `validate_run` on each run in order, the first
    error's class (InconsistentPwoRow for a sign-order fault) and its
    message prefixed ``run N:``, or ["ok"]."""
    for n, run in enumerate(runs, start=1):
        try:
            validate_run(run)
        except OamixError as exc:
            cls = InconsistentPwoRow if isinstance(exc, InconsistentPwo) else type(exc)
            return [cls.__name__, f"run {n}: {exc}"]
    return ["ok"]


def _validated(design: Design) -> list[str]:
    try:
        validate_design(design)
    except OamixError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok"]


def _edit(rng: random.Random, runs: list[OofARun]) -> None:
    """One edit of one run, in place: its A negated, incremented or taken
    from another run, one sign set to -1, 0, 1 or 2, one component moved
    off the simplex, its sign tuple negated, or the run replaced by a copy
    of another, whole or with its own A."""
    # the first and last runs are where a search by halves ends
    n = rng.choice((0, len(runs) - 1)) if rng.random() < 0.1 else rng.randrange(len(runs))
    run = runs[n]
    edit = rng.choice(("sign", "signs", "point", "copy") + (("amount",) if run.amount is not None else ()))
    if edit == "amount":
        amount = rng.choice((-run.amount, run.amount + 1, runs[rng.randrange(len(runs))].amount))
        runs[n] = OofARun(run.point, run.pwo, amount)
    elif edit == "sign":
        at = rng.randrange(len(run.pwo))
        runs[n] = OofARun(run.point, run.pwo[:at] + (rng.choice((-1, 0, 1, 2)),) + run.pwo[at + 1 :], run.amount)
    elif edit == "signs":
        runs[n] = OofARun(run.point, tuple(-z for z in run.pwo), run.amount)
    elif edit == "point":
        values = list(run.point.values)
        at = rng.randrange(len(values))
        values[at] = -values[at] if values[at] and rng.random() < 0.5 else values[at] + Fraction(1, 7)
        runs[n] = OofARun(DesignPoint(values, run.point.kind), run.pwo, run.amount)
    else:
        other = runs[rng.randrange(len(runs))]
        runs[n] = other if rng.random() < 0.5 else OofARun(other.point, other.pwo, run.amount)


# 1,500 designs in all, fewer of the m = 6 designs, whose walk is long
@pytest.mark.parametrize(
    "name, count",
    [("table1", 300), ("table2", 300), ("table3", 300), ("table5", 300), ("m6_crossed", 150), ("m6_scaled", 150)],
)
def test_the_first_faulty_run_is_the_one_a_walk_over_the_runs_names(name, count):
    # each design has 1 to 3 edits
    design = read_design(reader_faults.design_text(name))
    rng = random.Random(f"first faulty run {name}")
    classes = set()
    for _ in range(count):
        runs = list(design.runs)
        for _ in range(rng.randint(1, 3)):
            _edit(rng, runs)
        want = _walked(runs)
        assert _validated(Design(design.m, design.kind, runs)) == want
        classes.add(want[0])
    faults = {"NegativeEntry", "BadPwoValue", "InconsistentPwoRow"}
    faults.add("SumNotOne" if design.kind is Kind.PROPORTION else "AmountMismatch")
    assert faults | {"ok"} <= classes


def test_the_first_faulty_run_is_sought_by_halves(monkeypatch):
    levels = (Fraction(1, 2), Fraction(5, 4), Fraction(2))
    design = cross_amounts(oofa_expand(simplex_lattice(6, 4)), levels)
    runs = list(design.runs)
    runs[-1] = OofARun(runs[-1].point, runs[-1].pwo, -runs[-1].amount)
    checks = []
    check = oofa._check_index
    monkeypatch.setattr(oofa, "_check_index", lambda index: checks.append(index) or check(index))
    with pytest.raises(NegativeEntry, match="^run 2448: total amount A is negative: -2$"):
        validate_design(Design(design.m, design.kind, runs))
    # the bulk check, one check per halving and the run alone, where a walk
    # checks each of the 2448 runs
    assert len(checks) <= math.ceil(math.log2(2448)) + 2
