"""Simplex-lattice and simplex-centroid base designs, plus column-deletion
projection of a proportion design into a component-amount design."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .core import Design, DesignPoint, Kind, total_amount
from .errors import AlreadyExpanded, DropAllColumns, InvalidDimension, WrongKind, _int_in_range, _iterable

__all__ = ["simplex_lattice", "simplex_centroid", "project_columns"]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # all nonnegative integer tuples of length `parts` summing to `total`,
    # ascending lexicographic order
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def simplex_lattice(m: int, w: int) -> Design:
    """All proportion vectors with entries in {0, 1/w, ..., w/w} summing to 1.

    Points are emitted in ascending lexicographic order of the coordinate
    tuple; the count is binom(m+w-1, w).
    """
    m, w = _int_in_range("m", m), _int_in_range("w", w)
    if m < 2 or w < 1:
        raise InvalidDimension(f"need m >= 2 and w >= 1, got m={m}, w={w}")
    points = [DesignPoint(tuple(Fraction(k, w) for k in comp), Kind.PROPORTION) for comp in _compositions(w, m)]
    return _one_run_per_point(m, points)


def simplex_centroid(m: int) -> Design:
    """One run per nonempty subset S: value 1/|S| on S and 0 elsewhere.

    Subsets are ordered by size, then lexicographically; the count is
    2**m - 1, ending at the overall centroid (1/m, ..., 1/m).
    """
    m = _int_in_range("m", m)
    if m < 2:
        raise InvalidDimension(f"need m >= 2, got m={m}")
    points = []
    for size in range(1, m + 1):
        share = Fraction(1, size)
        for subset in combinations(range(1, m + 1), size):
            chosen = set(subset)
            values = tuple(share if i in chosen else Fraction(0) for i in range(1, m + 1))
            points.append(DesignPoint(values, Kind.PROPORTION))
    return _one_run_per_point(m, points)


def project_columns(design: Design, drop: Iterable[int]) -> Design:
    """Delete the given 1-based columns and reinterpret what remains as
    amounts; each run's total becomes its amount level.

    A pure column selection: duplicates created by the projection are kept,
    and deduplication is left to the caller.  Each distinct point of the
    design is projected once, so runs that shared a point share its
    projection and its total.
    """
    dropped = frozenset(_int_in_range("drop column", c) for c in _iterable("drop", drop))
    if design.kind is not Kind.PROPORTION:
        raise WrongKind("projection applies to proportion designs")
    if design.is_expanded:
        raise AlreadyExpanded("project the base design before attaching orderings")
    if design.has_amounts:
        raise WrongKind("project the base design before crossing amounts")
    if any(c < 1 or c > design.m for c in dropped):
        raise InvalidDimension(f"drop columns {sorted(dropped)} out of range 1..{design.m}")
    if len(dropped) >= design.m:
        raise DropAllColumns(f"cannot drop all {design.m} columns")
    keep = [i for i in range(1, design.m + 1) if i not in dropped]
    points, point_of = design._index["point"]
    projected = tuple(DesignPoint(tuple(point.values[i - 1] for i in keep), Kind.AMOUNT) for point in points)
    index = {
        "point": (projected, point_of),
        "pwo": design._index["pwo"],
        # one new total per projected point, so the point slots carry over
        "amount": (tuple(map(total_amount, projected)), point_of),
    }
    return Design._of(len(keep), Kind.AMOUNT, index, design._checked)


def _one_run_per_point(m: int, points: list[DesignPoint]) -> Design:
    """A proportion base design of one run per point, as its index: each
    point is a new object, so run i holds slot i."""
    n = len(points)
    none = ((None,) if n else (), (0,) * n)
    return Design._of(m, Kind.PROPORTION, {"point": (tuple(points), tuple(range(n))), "pwo": none, "amount": none}, True)
