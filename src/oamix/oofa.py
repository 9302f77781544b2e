"""Addition orders and pairwise-order (PWO) sign factors.

The sign factor z_jk for a pair j < k is +1 when component j is added
before component k, -1 when after, and 0 when either component is absent
from the blend (zero masking).  This module maps orderings to sign
vectors and back, expands base designs over all orderings of each run's
support, crosses proportion designs with total-amount levels, and scales
amount designs to a physical maximum.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import isqrt
from typing import Iterable, Sequence

from .core import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    _as_ints,
    _as_signs,
    as_fraction,
    total_amount,
    validate_point,
)
from .errors import (
    AlreadyExpanded,
    AmountMismatch,
    BadPwoValue,
    DuplicateLevel,
    EmptyLevels,
    InconsistentPwo,
    InvalidDimension,
    InvalidParameter,
    NegativeEntry,
    NonPositiveScale,
    OamixError,
    OrderingSupportMismatch,
    WrongKind,
    _iterable,
    located,
)

__all__ = [
    "pwo_pairs",
    "pwo_from_ordering",
    "ordering_from_pwo",
    "oofa_expand",
    "cross_amounts",
    "scale_amounts",
    "validate_run",
    "validate_design",
]


@cache
def pwo_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All pairs (j, k) with 1 <= j < k <= m, lexicographic.  The tuple is
    immutable, so one per m is built and shared by every caller."""
    return tuple((j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1))


def pwo_from_ordering(point: DesignPoint, ordering: Sequence[int]) -> tuple[int, ...]:
    """Sign vector over pwo_pairs(point.m) induced by an addition order.

    `ordering` must be a permutation of the point's support; pairs with a
    component outside the support are masked to 0.  An entry that is not a
    number equal to an integer raises OrderingSupportMismatch.
    """
    ordering = _as_ints(ordering, OrderingSupportMismatch, "ordering")
    support = point.support()
    if tuple(sorted(ordering)) != support:
        raise OrderingSupportMismatch(
            f"ordering {ordering} is not a permutation of the support {support}"
        )
    return _pwo_from_ordering(point.m, ordering)


def _pwo_from_ordering(m: int, ordering: tuple[int, ...]) -> tuple[int, ...]:
    """`pwo_from_ordering` of an ordering that is already a tuple of ints
    permuting a known support of m components, as `oofa_expand`'s are."""
    pos = {c: i for i, c in enumerate(ordering)}
    out = []
    for j, k in pwo_pairs(m):
        if j in pos and k in pos:
            out.append(1 if pos[j] < pos[k] else -1)
        else:
            out.append(0)
    return tuple(out)


def _m_from_pairs(n_pairs: int) -> int:
    m = (1 + isqrt(1 + 8 * n_pairs)) // 2
    if m * (m - 1) // 2 != n_pairs:
        raise InconsistentPwo(f"{n_pairs} entries is not a full j<k pair set")
    return m


def ordering_from_pwo(support: Iterable[int], pwo: Sequence[int]) -> tuple[int, ...]:
    """The unique permutation of `support` inducing the given sign vector.

    Inverse of pwo_from_ordering.  Raises BadPwoValue for a sign other
    than -1, 0 or +1 (see ``core._as_signs``), OrderingSupportMismatch for
    a support entry that is not a number equal to an integer, and
    InconsistentPwo when the signs violate zero masking or cannot come from
    any total order (a cyclic pattern such as z12=+1, z23=+1, z13=-1 on
    full support).
    """
    support = tuple(sorted(_as_ints(support, OrderingSupportMismatch, "support")))
    return _ordering_from_pwo(support, _as_signs(pwo))


def _ordering_from_pwo(support: tuple[int, ...], pwo: tuple[int, ...]) -> tuple[int, ...]:
    """`ordering_from_pwo` of an ascending support and a sign vector that
    are already tuples of ints, as a point's support and a run's signs are."""
    if any(z not in (-1, 0, 1) for z in pwo):
        raise BadPwoValue(f"sign entries must be -1, 0 or +1, got {','.join(map(str, pwo))}")
    m = _m_from_pairs(len(pwo))
    if support and support[-1] > m:
        raise InconsistentPwo(f"support {support} exceeds the {m} components the signs cover")
    active = set(support)
    wins = {c: 0 for c in support}
    for (j, k), z in zip(pwo_pairs(m), pwo):
        if j in active and k in active:
            if z == 0:
                raise InconsistentPwo(f"z{j}{k} must be nonzero: both components are active")
            wins[j if z == 1 else k] += 1
        elif z != 0:
            raise InconsistentPwo(f"z{j}{k} must be zero: an absent component is involved")
    # the signs make a tournament on the support, and a tournament is
    # transitive exactly when its win counts are all distinct
    if len(set(wins.values())) != len(support):
        raise InconsistentPwo("sign pattern is not induced by any addition order")
    return tuple(sorted(support, key=lambda c: -wins[c]))


def oofa_expand(design: Design) -> Design:
    """Replace each base run of support size s by its s! ordered runs.

    Orderings are enumerated in lexicographic order of the support indices;
    runs with s <= 1 pass through as a single run with an all-zero sign
    vector.  Amount tags and coordinates are unchanged, and the ordered
    runs of a base run share its point.  The sign vectors of each distinct
    support are computed once, so runs with the same support and ordering
    share one sign tuple.  A design needs two components to have sign
    factors (and a file with none could not tell its expanded runs from
    unexpanded ones), so m = 1 is refused.
    """
    if design.m < 2:
        raise InvalidDimension(f"addition orders need m >= 2 components, got m={design.m}")
    if design.is_expanded:
        raise AlreadyExpanded("design already carries orderings")
    signs: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    runs = []
    for run in design.runs:
        support = run.point.support()
        vectors = signs.get(support)
        if vectors is None:
            # permutations of a support of size 0 or 1 is that support alone
            vectors = signs[support] = [_pwo_from_ordering(design.m, o) for o in permutations(support)]
        runs.extend(OofARun._of(run.point, pwo, run.amount) for pwo in vectors)
    return Design(design.m, design.kind, tuple(runs))


def cross_amounts(design: Design, levels: Iterable) -> Design:
    """Replicate the whole design once per total-amount level, tagging each
    run with its level.  Output is level-major: all runs at the first level,
    then all at the second, and so on.  A level is an int, a Fraction or
    exact text such as ``'3/4'``; a bool, a float or unreadable text raises
    InvalidParameter."""
    if design.kind is not Kind.PROPORTION:
        raise WrongKind("amount crossing applies to proportion designs")
    if design.has_amounts:
        raise WrongKind("design already carries amount levels")
    coerced = tuple(_exact_amount("amount level", level) for level in _iterable("levels", levels))
    if not coerced:
        raise EmptyLevels("need at least one amount level")
    if len(set(coerced)) != len(coerced):
        raise DuplicateLevel(f"amount levels contain duplicates: {coerced}")
    if any(v < 0 for v in coerced):
        raise NegativeEntry("amount levels must be nonnegative")
    runs = tuple(OofARun._of(run.point, run.pwo, level) for level in coerced for run in design.runs)
    return Design(design.m, design.kind, runs)


def _exact_amount(what: str, value) -> Fraction:
    """An amount level or scale as an exact Fraction, or InvalidParameter
    naming `what` and the value; a bool is never taken as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return as_fraction(value)
        except (TypeError, ValueError, ZeroDivisionError):
            pass
    raise InvalidParameter(f"{what} must be an int, a Fraction or exact text, got {value!r}")


def scale_amounts(design: Design, a_max) -> Design:
    """Multiply every coordinate and per-run total by `a_max`; sign vectors
    are unchanged.  Each distinct point and amount is scaled once, so runs
    that shared a point share its scaled point."""
    if design.kind is not Kind.AMOUNT:
        raise WrongKind("amount scaling applies to amount designs")
    scale = _exact_amount("scale", a_max)
    if scale <= 0:
        raise NonPositiveScale(f"scale must be positive, got {scale}")
    points, point_of = design._index["point"]
    amounts, amount_of = design._index["amount"]
    scaled_points = [DesignPoint(tuple(v * scale for v in point.values), Kind.AMOUNT) for point in points]
    scaled_amounts = [amount * scale for amount in amounts]
    runs = tuple(
        OofARun._of(scaled_points[i], run.pwo, scaled_amounts[j])
        for run, i, j in zip(design.runs, point_of, amount_of)
    )
    return Design(design.m, design.kind, runs)


def validate_run(run: OofARun) -> None:
    """Raise unless one run is valid: its point satisfies its kind, a
    total-amount tag A is nonnegative and, for an amount run, equals the
    sum of its amounts, and its signs are induced by some addition order of
    its support.  The one run check of `read_design` and `validate_design`,
    which share its work between the runs of one call (see `_check_run`).
    """
    _check_run(run, (None, None, None), {}, set())


def _check_run(run: OofARun, keys: tuple, seen: dict, orders: set) -> None:
    """`validate_run` with memos kept for one pass over many runs.

    `keys` holds the run's (point, signs, amount) keys from the caller, equal
    only where runs hold the same value.  Each point is checked once per key
    (`validate_point`, its support, an amount point's total), its A once
    per amount key, and its signs once per sign key, with one order check
    per (support, signs) content in `orders`.  Only passed checks are
    recorded, so the first faulty run still raises.
    """
    point, pwo, amount = run.point, run.pwo, run.amount
    point_key, pwo_key, amount_key = keys
    known = seen.get(point_key)
    if known is None:
        validate_point(point)
        total = total_amount(point) if point.kind is Kind.AMOUNT else None
        known = seen[point_key] = (point.support(), total, set(), set())
    support, total, amounts_seen, signs_seen = known
    if amount_key not in amounts_seen:
        if amount is not None and amount < 0:
            raise NegativeEntry(f"total amount A is negative: {amount}")
        if point.kind is Kind.AMOUNT and amount != total:
            raise AmountMismatch(f"A is {amount} but the amounts sum to {total}")
        amounts_seen.add(amount_key)
    if pwo is not None and pwo_key not in signs_seen:
        if len(pwo) != point.m * (point.m - 1) // 2:
            raise InconsistentPwo(f"{len(pwo)} signs for the pairs of {point.m} components")
        if (support, pwo) not in orders:
            _ordering_from_pwo(support, pwo)
            orders.add((support, pwo))
        signs_seen.add(pwo_key)


def validate_design(design: Design) -> None:
    """Check each run of a design built in code with `validate_run`, whose
    errors are prefixed ``run N:``.  Each distinct point, and each distinct
    sign pattern of a support, is checked once per call, however many runs
    repeat it.  The design's shape (m, kind, and which of signs and A its
    runs carry) is checked when the Design is built.  Every design
    `read_design` returns already passes it."""
    seen: dict = {}
    orders: set = set()
    slots = zip(*(design._index[field][1] for field in ("point", "pwo", "amount")))
    for idx, (run, keys) in enumerate(zip(design.runs, slots), start=1):
        try:
            _check_run(run, keys, seen, orders)
        except OamixError as exc:
            raise located(f"run {idx}", exc) from exc
