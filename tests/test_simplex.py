"""Base designs and projection, checked against brute-force enumerators."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from oamix import Kind, project_columns, simplex, simplex_centroid, simplex_lattice
from oamix.errors import AlreadyExpanded, DropAllColumns, InvalidDimension, InvalidParameter, WrongKind
from oamix.oofa import cross_amounts, oofa_expand


def brute_force_lattice_points(m, w):
    """All grid points on the simplex, enumerated the dumb way."""
    return sorted(
        tuple(Fraction(k, w) for k in combo)
        for combo in product(range(w + 1), repeat=m)
        if sum(combo) == w
    )


def test_lattice_3_3_contents():
    d = simplex_lattice(3, 3)
    points = {run.point.values for run in d.runs}
    assert len(d) == 10
    assert (Fraction(1), Fraction(0), Fraction(0)) in points
    assert (Fraction(1, 3), Fraction(2, 3), Fraction(0)) in points
    assert (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)) in points


def test_lattice_2_1_vertices_only():
    d = simplex_lattice(2, 1)
    assert [run.point.values for run in d.runs] == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("w", range(1, 7))
def test_lattice_matches_brute_force(m, w):
    d = simplex_lattice(m, w)
    expected = brute_force_lattice_points(m, w)
    assert len(d) == comb(m + w - 1, w)
    assert sorted(run.point.values for run in d.runs) == expected


@pytest.mark.parametrize("m", range(2, 9))
def test_centroid_count(m):
    assert len(simplex_centroid(m)) == 2**m - 1


def test_centroid_order_and_endpoints():
    d = simplex_centroid(4)
    assert d.runs[0].point.values == (1, 0, 0, 0)
    assert d.runs[-1].point.values == (Fraction(1, 4),) * 4
    d2 = simplex_centroid(2)
    assert [r.point.values for r in d2.runs] == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]


def test_invalid_dimensions():
    with pytest.raises(InvalidDimension):
        simplex_lattice(1, 3)
    with pytest.raises(InvalidDimension):
        simplex_lattice(3, 0)
    with pytest.raises(InvalidDimension):
        simplex_centroid(1)


def test_projection_centroid4_levels():
    d = project_columns(simplex_centroid(4), {4})
    assert d.kind is Kind.AMOUNT
    assert len(d) == 15
    assert d.amount_levels == (
        Fraction(0),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(1),
    )


def test_projection_lattice43_levels():
    d = project_columns(simplex_lattice(4, 3), {4})
    assert d.amount_levels == (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))


def test_projection_centroid5_to_three_levels():
    d = project_columns(simplex_centroid(5), {4, 5})
    assert len(d) == 31
    assert d.amount_levels == (
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(1),
    )


def test_projection_empty_drop_is_identity_on_coordinates():
    base = simplex_lattice(3, 2)
    d = project_columns(base, set())
    assert d.kind is Kind.AMOUNT
    assert all(
        run.point.values == src.point.values for run, src in zip(d.runs, base.runs)
    )
    assert set(d.amount_levels) == {Fraction(1)}


def test_projection_is_column_selection():
    base = simplex_centroid(4)
    d = project_columns(base, {2})
    keep = [1, 3, 4]
    for run, src in zip(d.runs, base.runs):
        for new_idx, old_idx in enumerate(keep, start=1):
            assert run.point.values[new_idx - 1] == src.point.values[old_idx - 1]
        assert run.amount == sum(src.point.values[i - 1] for i in keep)


def test_projection_keeps_duplicate_rows():
    # dropping two columns of the {4,2} lattice collapses three points onto
    # the origin; projection must not silently deduplicate them
    d = project_columns(simplex_lattice(4, 2), {3, 4})
    assert len(d) == 10
    origins = [r for r in d.runs if r.point.values == (Fraction(0), Fraction(0))]
    assert len(origins) == 3


def test_projection_errors():
    base = simplex_centroid(3)
    with pytest.raises(DropAllColumns):
        project_columns(base, {1, 2, 3})
    with pytest.raises(InvalidDimension):
        project_columns(base, {0})
    with pytest.raises(InvalidDimension):
        project_columns(base, {4})
    with pytest.raises(WrongKind):
        project_columns(project_columns(base, {3}), {1})
    with pytest.raises(AlreadyExpanded):
        project_columns(oofa_expand(base), {3})


def test_projection_refuses_a_crossed_design():
    # projecting would turn each run's total into its A, and the crossed
    # levels would be lost: the same runs again at every level
    crossed = cross_amounts(simplex_lattice(3, 2), [1, 2])
    with pytest.raises(WrongKind, match="^project the base design before crossing amounts$"):
        project_columns(crossed, {3})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: simplex_lattice(3.5, 2), "m must be an integer, got 3.5"),
        (lambda: simplex_lattice(3, True), "w must be an integer, got True"),
        (lambda: simplex_lattice(3, 2.0), "w must be an integer, got 2.0"),
        (lambda: simplex_centroid("3"), "m must be an integer, got '3'"),
        (lambda: project_columns(simplex_centroid(4), {1.5}), "drop column must be an integer, got 1.5"),
        (lambda: project_columns(simplex_centroid(4), {True}), "drop column must be an integer, got True"),
        (lambda: project_columns(simplex_centroid(4), {"x"}), "drop column must be an integer, got 'x'"),
        (lambda: project_columns(simplex_centroid(4), 4), "drop must be iterable, got 4"),
    ],
    ids=["lattice_m_3.5", "lattice_w_True", "lattice_w_2.0", "centroid_m_str", "drop_1.5", "drop_True", "drop_str",
         "drop_not_iterable"],
)
def test_integer_arguments_must_be_integers(build, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        build()


def _recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first, *rest)


def test_compositions_are_in_ascending_order():
    for total, parts in product(range(0, 6), range(1, 7)):
        assert list(simplex._compositions(total, parts)) == list(_recursive_compositions(total, parts)), (total, parts)


def test_compositions_of_many_parts_need_no_recursion():
    # one part per component: a recursive walk would pass Python's
    # recursion limit here
    comps = list(simplex._compositions(1, 3000))
    assert len(comps) == 3000
    assert comps[0][-1] == comps[-1][0] == 1 and sum(map(sum, comps)) == 3000


def test_lattice_size_is_counted_exactly_at_the_limit():
    for m, w in product(range(2, 30), range(1, 30)):
        count = comb(m + w - 1, w)
        for limit in (count - 1, count, 10**7):
            assert simplex._lattice_size_over(m, w, limit) == (count > limit), (m, w, limit)


@pytest.fixture
def no_building(monkeypatch):
    """Make building any base design fail, so that a refusal is shown to
    come from the count alone."""

    def refuse(*args):
        raise AssertionError("a base design was built")

    monkeypatch.setattr(simplex, "_compositions", refuse)
    monkeypatch.setattr(simplex, "combinations", refuse)


_LATTICE_OVER = r"a lattice has C\(m \+ w - 1, w\) runs, over the limit of 10000000, "
_CENTROID_OVER = r"a centroid design has 2\^m - 1 runs, over the limit of 10000000, "


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: simplex_lattice(10**400, 2), _LATTICE_OVER + "at m=10{400}, w=2"),
        (lambda: simplex_lattice(3, 10**400), _LATTICE_OVER + "at m=3, w=10{400}"),
        (lambda: simplex_lattice(10**400, 10**400), "a lattice has C"),
        (lambda: simplex_lattice(3, 4471), "a lattice has C"),
        (lambda: simplex_centroid(10**400), _CENTROID_OVER + "at m=10{400}$"),
        (lambda: simplex_centroid(24), _CENTROID_OVER + "at m=24$"),
    ],
    ids=["lattice_huge_m", "lattice_huge_w", "lattice_huge_both", "lattice_just_over", "centroid_huge_m",
         "centroid_just_over"],
)
def test_a_base_design_over_the_size_limit_is_refused_before_it_is_built(no_building, build, message):
    with pytest.raises(InvalidParameter, match=f"^{message}"):
        build()


def test_the_size_limit_admits_a_design_of_its_size(monkeypatch):
    # C(4, 2) = 6 and C(5, 3) = 10 runs; 2^3 - 1 = 7 and 2^4 - 1 = 15 runs
    monkeypatch.setattr(simplex, "_MAX_RUNS", 10)
    assert len(simplex_lattice(3, 2)) == 6
    assert len(simplex_lattice(3, 3)) == 10
    assert len(simplex_centroid(3)) == 7
    with pytest.raises(InvalidParameter):
        simplex_lattice(3, 4)
    with pytest.raises(InvalidParameter):
        simplex_centroid(4)


def test_lattice_points_share_one_fraction_per_level():
    design = simplex_lattice(4, 3)
    values = {id(v) for run in design.runs for v in run.point.values}
    assert len(values) == 4
