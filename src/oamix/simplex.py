"""Simplex-lattice and simplex-centroid base designs, plus column-deletion
projection of a proportion design into a component-amount design."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .core import Design, DesignPoint, Kind, OofARun, total_amount
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
    return _one_run_per_point(m, Kind.PROPORTION, points)


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
    return _one_run_per_point(m, Kind.PROPORTION, points)


def project_columns(design: Design, drop: Iterable[int]) -> Design:
    """Delete the given 1-based columns and reinterpret what remains as
    amounts; each run's total becomes its amount level.

    A pure column selection: duplicates created by the projection are kept,
    and deduplication is left to the caller.
    """
    dropped = frozenset(_int_in_range("drop column", c) for c in _iterable("drop", drop))
    if design.kind is not Kind.PROPORTION:
        raise WrongKind("projection applies to proportion designs")
    if design.is_expanded:
        raise AlreadyExpanded("project the base design before attaching orderings")
    if any(c < 1 or c > design.m for c in dropped):
        raise InvalidDimension(f"drop columns {sorted(dropped)} out of range 1..{design.m}")
    if len(dropped) >= design.m:
        raise DropAllColumns(f"cannot drop all {design.m} columns")
    keep = [i for i in range(1, design.m + 1) if i not in dropped]
    points = [DesignPoint(tuple(run.point.values[i - 1] for i in keep), Kind.AMOUNT) for run in design.runs]
    return _one_run_per_point(len(keep), Kind.AMOUNT, points, [total_amount(point) for point in points])


def _one_run_per_point(m: int, kind: Kind, points: list[DesignPoint], amounts: list | None = None) -> Design:
    """A design of one run per point, born with its index: each point, and
    each amount when given, is a new object, so run i holds slot i."""
    n = len(points)
    slots = tuple(range(n))
    none = ((None,) if n else (), (0,) * n)
    index = {
        "point": (tuple(points), slots),
        "pwo": none,
        "amount": none if amounts is None else (tuple(amounts), slots),
    }
    runs = tuple(OofARun._of(point, None, None if amounts is None else amounts[i]) for i, point in enumerate(points))
    return Design._of(m, kind, runs, index)
