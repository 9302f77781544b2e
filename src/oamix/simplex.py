"""Simplex-lattice and simplex-centroid base designs, plus column-deletion
projection of a proportion design into a component-amount design."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .core import Design, DesignPoint, Kind, _require_design, total_amount
from .errors import (
    AlreadyExpanded,
    DropAllColumns,
    InvalidDimension,
    InvalidParameter,
    WrongKind,
    _SIZE_DIGITS,
    _int_in_range,
    _iterable,
    _shown,
)

__all__ = ["simplex_lattice", "simplex_centroid", "project_columns"]


# the most runs a base design may have; its size is counted before it is built
_MAX_RUNS = 10**7


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # all nonnegative integer tuples of length `parts` summing to `total`,
    # ascending lexicographic order: from (0, ..., 0, total), each next one
    # moves one unit from the last nonzero entry j > 0 to entry j - 1 and
    # the rest of entry j to the end
    comp = [0] * (parts - 1) + [total]
    while True:
        yield tuple(comp)
        j = parts - 1
        while j and not comp[j]:
            j -= 1
        if not j:
            return
        rest = comp[j] - 1
        comp[j] = 0
        comp[j - 1] += 1
        comp[-1] = rest


def _lattice_size_over(m: int, w: int, limit: int) -> bool:
    """Whether C(m + w - 1, w), the run count of a {m, w} lattice, is over
    `limit`.  The count is built as C(n - k + i, i) for i = 1..k with
    k = min(w, m - 1), a product that at least doubles each step, so it
    stops after about log2(limit) steps for any m and w."""
    n, k = m + w - 1, min(w, m - 1)
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i
        if count > limit:
            return True
    return False


def simplex_lattice(m: int, w: int) -> Design:
    """All proportion vectors with entries in {0, 1/w, ..., w/w} summing to 1.

    Points are emitted in ascending lexicographic order of the coordinate
    tuple; the count is binom(m+w-1, w).  A count over 10^7 (`_MAX_RUNS`)
    raises InvalidParameter before anything is built.
    """
    m, w = _int_in_range("m", m), _int_in_range("w", w)
    if m < 2 or w < 1:
        raise InvalidDimension(f"need m >= 2 and w >= 1, got m={_shown(m)}, w={_shown(w)}")
    if _lattice_size_over(m, w, _MAX_RUNS):
        raise InvalidParameter(
            f"a lattice has C(m + w - 1, w) runs, over the limit of {_MAX_RUNS}, "
            f"at m={_shown(m, _SIZE_DIGITS)}, w={_shown(w, _SIZE_DIGITS)}"
        )
    # one Fraction per level, shared by every point that holds it
    levels = [Fraction(k, w) for k in range(w + 1)]
    points = [DesignPoint._of(tuple(map(levels.__getitem__, comp)), Kind.PROPORTION) for comp in _compositions(w, m)]
    return _one_run_per_point(m, points)


def simplex_centroid(m: int) -> Design:
    """One run per nonempty subset S: value 1/|S| on S and 0 elsewhere.

    Subsets are ordered by size, then lexicographically; the count is
    2**m - 1, ending at the overall centroid (1/m, ..., 1/m).  A count over
    10^7 (`_MAX_RUNS`) raises InvalidParameter before anything is built.
    """
    m = _int_in_range("m", m)
    if m < 2:
        raise InvalidDimension(f"need m >= 2, got m={_shown(m)}")
    # 2^m - 1 is counted only for an m whose power is small to build
    if m > 64 or 2**m - 1 > _MAX_RUNS:
        raise InvalidParameter(
            f"a centroid design has 2^m - 1 runs, over the limit of {_MAX_RUNS}, at m={_shown(m, _SIZE_DIGITS)}"
        )
    points = []
    for size in range(1, m + 1):
        share = Fraction(1, size)
        for subset in combinations(range(1, m + 1), size):
            chosen = set(subset)
            values = tuple(share if i in chosen else Fraction(0) for i in range(1, m + 1))
            points.append(DesignPoint._of(values, Kind.PROPORTION))
    return _one_run_per_point(m, points)


def project_columns(design: Design, drop: Iterable[int]) -> Design:
    """Delete the given 1-based columns and reinterpret what remains as
    amounts; each run's total becomes its amount level.

    A pure column selection: duplicates created by the projection are kept,
    and deduplication is left to the caller; runs that shared a point share
    its projection.  A `design` that is not a Design raises
    InvalidParameter.
    """
    _require_design(design)
    dropped = frozenset(_int_in_range("drop column", c) for c in _iterable("drop", drop))
    if design.kind is not Kind.PROPORTION:
        raise WrongKind("projection applies to proportion designs")
    if design.is_expanded:
        raise AlreadyExpanded("project the base design before attaching orderings")
    if design.has_amounts:
        raise WrongKind("project the base design before crossing amounts")
    if any(c < 1 or c > design.m for c in dropped):
        raise InvalidDimension(f"drop columns {_shown(sorted(dropped))} out of range 1..{design.m}")
    if len(dropped) >= design.m:
        raise DropAllColumns(f"cannot drop all {design.m} columns")
    keep = [i for i in range(1, design.m + 1) if i not in dropped]
    points, point_of = design._index["point"]
    projected = tuple(DesignPoint._of(tuple(point.values[i - 1] for i in keep), Kind.AMOUNT) for point in points)
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
