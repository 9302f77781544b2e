"""Addition orders and pairwise-order (PWO) sign factors.

The sign factor z_jk for a pair j < k is +1 when component j is added
before component k, -1 when after, and 0 when either component is absent
from the blend (zero masking).  This module maps orderings to sign
vectors and back, expands base designs over all orderings of each run's
support, crosses proportion designs with total-amount levels, and scales
amount designs to a physical maximum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import chain, compress, permutations, repeat
from math import isqrt
from typing import Iterable, Sequence

from .core import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    _as_ints,
    _as_signs,
    _once_per_object,
    _point_facts,
    _require_design,
    _require_point,
    as_fraction,
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
    _SIZE_DIGITS,
    _int_in_range,
    _iterable,
    _joined,
    _shown,
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


# the most pairs `pwo_pairs` builds, as ``models.build_spec`` caps its terms
_MAX_PAIRS = 10**5


def pwo_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """All pairs (j, k) with 1 <= j < k <= m, lexicographic.  The tuple is
    immutable, so one per m is built and shared by every caller.  An `m`
    that is not an integer of at least 1 (a bool is not) raises
    InvalidParameter, as does one of over 10^5 pairs, before any is
    built."""
    m = _int_in_range("m", m, 1)
    if m * (m - 1) // 2 > _MAX_PAIRS:
        count = _shown(m * (m - 1) // 2, _SIZE_DIGITS)
        raise InvalidParameter(f"m={_shown(m, _SIZE_DIGITS)} has {count} pairs, over the limit of {_MAX_PAIRS}")
    return _pwo_pairs(m)


@cache
def _pwo_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """`pwo_pairs` of an m the library holds: the design's or the spec's."""
    return tuple((j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1))


def pwo_from_ordering(point: DesignPoint, ordering: Sequence[int]) -> tuple[int, ...]:
    """Sign vector over pwo_pairs(point.m) induced by an addition order.

    `ordering` must be a permutation of the point's support; pairs with a
    component outside the support are masked to 0.  An entry that is not a
    number equal to an integer raises OrderingSupportMismatch, and a
    `point` that is not a DesignPoint raises InvalidParameter.
    """
    _require_point(point)
    ordering = _as_ints(ordering, OrderingSupportMismatch, "ordering")
    support = point.support()
    if tuple(sorted(ordering)) != support:
        raise OrderingSupportMismatch(
            f"ordering {_shown(ordering)} is not a permutation of the support {support}"
        )
    return _pwo_from_orderings(point.m, support, (ordering,))[0]


def _pwo_from_orderings(m: int, support: tuple[int, ...], orderings) -> list[tuple[int, ...]]:
    """`pwo_from_ordering` of each of `orderings`, tuples of ints that
    permute the ascending `support` of m components, as `oofa_expand`'s
    are."""
    within = [(at, j, k) for at, (j, k) in enumerate(_pwo_pairs(m)) if j in support and k in support]
    signs = [0] * (m * (m - 1) // 2)
    rank = [0] * (m + 1)
    out = []
    for ordering in orderings:
        for r, c in enumerate(ordering):
            rank[c] = r
        # every ordering of the support writes every pair within it
        for at, j, k in within:
            signs[at] = 1 if rank[j] < rank[k] else -1
        out.append(tuple(signs))
    return out


def _m_from_pairs(n_pairs: int) -> int:
    m = (1 + isqrt(1 + 8 * n_pairs)) // 2
    if m * (m - 1) // 2 != n_pairs:
        raise InconsistentPwo(f"{n_pairs} entries is not a full j<k pair set")
    return m


def ordering_from_pwo(support: Iterable[int], pwo: Sequence[int]) -> tuple[int, ...]:
    """The unique permutation of `support` inducing the given sign vector.

    Inverse of pwo_from_ordering.  Raises BadPwoValue for a sign other
    than -1, 0 or +1 (see ``core._as_signs``), OrderingSupportMismatch for
    a support entry that is not a number equal to an integer, is below 1
    or is repeated, and InconsistentPwo when the signs violate zero masking
    or cannot come from any total order (a cyclic pattern such as z12=+1,
    z23=+1, z13=-1 on full support).
    """
    support = tuple(sorted(_as_ints(support, OrderingSupportMismatch, "support")))
    if support and (support[0] < 1 or len(set(support)) != len(support)):
        raise OrderingSupportMismatch(f"support {_shown(support)} must be distinct component indices from 1")
    return _ordering_from_pwo(support, _as_signs(pwo))


def _ordering_from_pwo(support: tuple[int, ...], pwo: tuple[int, ...]) -> tuple[int, ...]:
    """`ordering_from_pwo` of an ascending support and a sign vector that
    are already tuples of ints, as a point's support and a run's signs are:
    the support's entries distinct and from 1.  It is the walk that
    `_check_order` takes for the signs its table does not hold, one pass
    over every pair in pair order."""
    if pwo.count(0) + pwo.count(1) + pwo.count(-1) != len(pwo):
        raise BadPwoValue(f"sign entries must be -1, 0 or +1, got {_shown(pwo, text=_joined)}")
    m = _m_from_pairs(len(pwo))
    if support and support[-1] > m:
        raise InconsistentPwo(f"support {_shown(support)} exceeds the {m} components the signs cover")
    # each support component's wins: the pairs it is added first in
    wins = dict.fromkeys(support, 0)
    for (j, k), z in zip(_pwo_pairs(m), pwo):
        if j in wins and k in wins:
            if z == 0:
                raise InconsistentPwo(f"z{j}{k} must be nonzero: both components are active")
            wins[j if z == 1 else k] += 1
        elif z != 0:
            raise InconsistentPwo(f"z{j}{k} must be zero: an absent component is involved")
    # the signs make a tournament on the support, and a tournament is
    # transitive exactly when its win counts are all distinct: then the
    # component with the most wins is added first
    if len(set(wins.values())) != len(wins):
        raise InconsistentPwo("sign pattern is not induced by any addition order")
    return tuple(sorted(wins, key=wins.get, reverse=True))


# the largest support whose orderings' sign tuples are tabled: 720 of them
_TABLED = 6


# room for every support of at most 6 components at every m the file
# format covers (2 to 9), 964 of them, and the check's 7 full supports
@lru_cache(maxsize=1024)
def _support_signs(m: int, support: tuple[int, ...]) -> dict[tuple[int, ...], None]:
    """The sign tuples over the pairs of m components of every ordering of
    an ascending support of at most 6 (`_TABLED`) components, in the
    lexicographic order of the orderings, as the keys of a dict: the one
    statement of the signs a run over that support may hold.  `oofa_expand`
    writes a support's runs from it, so expansions over one support share
    its tuples, and `_check_order` looks up a run's signs within its
    support in the table of the full support of that size (m = s).

    Only expansion tables a support at a larger m, and its tuples are the
    expanded design's own: at most 1,957 at m = 6 (0.4 MiB), and at m = 9,
    the format's limit, 79,210 (28.6 MiB) once designs holding every
    ordering of every support of at most 6 components are expanded.  The
    check adds the 7 full supports' tables, 874 tuples of at most 15
    signs."""
    return dict.fromkeys(_pwo_from_orderings(m, support, permutations(support)))


# room for every support of at most 6 components at every m from 2 to 9
@lru_cache(maxsize=1024)
def _within(m: int, support: tuple[int, ...]) -> tuple[tuple[bool, ...], int, dict]:
    """For signs over the pairs of m components and an ascending support
    of at most 6 components: which pairs lie within the support, as a mask
    in pair order, the number of the others, whose signs must be 0, and the
    table of the signs the pairs within take under each ordering, which is
    `_support_signs` of the support's size and full support, since
    relabelling the support 1..s keeps the order of its pairs."""
    mask = tuple(j in support and k in support for j, k in _pwo_pairs(m))
    s = len(support)
    return mask, mask.count(False), _support_signs(s, tuple(range(1, s + 1)))


def oofa_expand(design: Design) -> Design:
    """Replace each base run of support size s by its s! ordered runs.

    Orderings are enumerated in lexicographic order of the support indices;
    runs with s <= 1 pass through as a single run with an all-zero sign
    vector.  Amount tags and coordinates are unchanged; the ordered runs
    of a base run share its point, and runs with the same support and
    ordering share one sign tuple.  A support of at most 6 components takes
    its tuples from its table (`_support_signs`, whose full supports'
    tables `_check_order` looks signs up in), so expansions over one
    support share them.  A design needs two components to have sign
    factors (and a file with none could not tell its expanded runs from
    unexpanded ones), so m = 1 is refused.  A `design` that is not a Design raises InvalidParameter.
    """
    _require_design(design)
    if design.m < 2:
        raise InvalidDimension(f"addition orders need m >= 2 components, got m={_shown(design.m)}")
    if design.is_expanded:
        raise AlreadyExpanded("design already carries orderings")
    points, point_of = design._index["point"]
    amounts, amount_of = design._index["amount"]
    supports = [point.support() for point in points]
    # each support's sign tuples get the next slots as they are made, which
    # is the order the expanded runs first hold them in
    slots_of: dict[tuple[int, ...], range] = {}
    signs: list[tuple[int, ...]] = []
    run_points, run_signs, run_amounts = [], [], []
    for i, k in zip(point_of, amount_of):
        support = supports[i]
        slots = slots_of.get(support)
        if slots is None:
            start = len(signs)
            # permutations of a support of size 0 or 1 is that support alone
            if len(support) <= _TABLED:
                signs += _support_signs(design.m, support)
            else:
                signs += _pwo_from_orderings(design.m, support, permutations(support))
            slots = slots_of[support] = range(start, len(signs))
        run_points += [i] * len(slots)
        run_signs += slots
        run_amounts += [k] * len(slots)
    index = {
        "point": (points, tuple(run_points)),
        "pwo": (tuple(signs), tuple(run_signs)),
        "amount": (amounts, tuple(run_amounts)),
    }
    return Design._of(design.m, design.kind, index, design._checked)


def cross_amounts(design: Design, levels: Iterable) -> Design:
    """Replicate the whole design once per total-amount level, tagging each
    run with its level.  Output is level-major: all runs at the first level,
    then all at the second, and so on.  A level is an int, a Fraction or
    exact text such as ``'3/4'``; a bool, a float or unreadable text raises
    InvalidParameter, as does a `design` that is not a Design."""
    _require_design(design)
    if design.kind is not Kind.PROPORTION:
        raise WrongKind("amount crossing applies to proportion designs")
    if design.has_amounts:
        raise WrongKind("design already carries amount levels")
    coerced = tuple(_exact_amount("amount level", level) for level in _iterable("levels", levels))
    if not coerced:
        raise EmptyLevels("need at least one amount level")
    if len(set(coerced)) != len(coerced):
        raise DuplicateLevel(f"amount levels contain duplicates: {_shown(coerced)}")
    if any(v < 0 for v in coerced):
        raise NegativeEntry("amount levels must be nonnegative")
    points, point_of = design._index["point"]
    signs, sign_of = design._index["pwo"]
    n = len(point_of)
    # each level repeats the parent's point and sign slots; levels are
    # distinct values, so distinct objects, numbered in order
    index = {
        "point": (points, point_of * len(coerced)),
        "pwo": (signs, sign_of * len(coerced)),
        "amount": (coerced if n else (), tuple(chain.from_iterable(repeat(k, n) for k in range(len(coerced))))),
    }
    return Design._of(design.m, design.kind, index, design._checked)


def _exact_amount(what: str, value) -> Fraction:
    """An amount level or scale as an exact Fraction, or InvalidParameter
    naming `what` and the value; a bool is never taken as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return as_fraction(value)
        except (TypeError, ValueError):
            pass
    raise InvalidParameter(f"{what} must be an int, a Fraction or exact text, got {_shown(value)}")


def scale_amounts(design: Design, a_max) -> Design:
    """Multiply every coordinate and per-run total by `a_max`; sign vectors
    are unchanged, and runs that shared a point share its scaled point.
    Each distinct value object is multiplied once, and points that shared
    it share its product.  A `design` that is not a Design raises
    InvalidParameter."""
    _require_design(design)
    if design.kind is not Kind.AMOUNT:
        raise WrongKind("amount scaling applies to amount designs")
    scale = _exact_amount("scale", a_max)
    if scale <= 0:
        raise NonPositiveScale(f"scale must be positive, got {_shown(scale, text=str)}")
    points, point_of = design._index["point"]
    amounts, amount_of = design._index["amount"]
    # the design holds every value alive for the call
    scaled = _once_per_object(lambda value: value * scale)
    scaled_points = [DesignPoint._of(tuple(map(scaled, point.values)), Kind.AMOUNT) for point in points]
    scaled_amounts = list(map(scaled, amounts))
    # one new object per distinct object, so the parent's slots carry over
    index = {
        "point": (tuple(scaled_points), point_of),
        "pwo": design._index["pwo"],
        "amount": (tuple(scaled_amounts), amount_of),
    }
    return Design._of(design.m, design.kind, index, design._checked)


def validate_run(run: OofARun) -> None:
    """Raise unless one run is valid: its point satisfies its kind, a
    total-amount tag A is nonnegative and, for an amount run, equals the
    sum of its amounts, and its signs are induced by some addition order of
    its support.  The checks run in that order (point, A, the amount sum,
    the sign count, the order), and the first fault is raised unprefixed;
    a `run` that is not an OofARun raises InvalidParameter."""
    if not isinstance(run, OofARun):
        raise InvalidParameter(f"run must be an OofARun, got {type(run).__name__}")
    _check_index({"point": ((run.point,), (0,)), "pwo": ((run.pwo,), (0,)), "amount": ((run.amount,), (0,))})


def validate_design(design: Design) -> None:
    """Raise unless every run of a design passes `validate_run`.

    The first faulty run in order is named, as ``run N: ...`` with its
    error's class; on one run the checks run in the order point, A, the
    amount sum, the sign count and the order.  The check costs what the
    design's distinct values cost (`_check_index`; a faulty run is sought
    by `_raise_first_fault`), and the shape (m, kind, and which of signs
    and A its runs carry) is checked when the Design is built.  A design
    the library made returns at once (see ``core.Design._of``).  A
    `design` that is not a Design raises InvalidParameter."""
    _require_design(design)
    if not design._checked:
        try:
            _check_index(design._index)
        except OamixError:
            _raise_faulty_run(design)
            raise


def _raise_faulty_run(design: Design) -> None:
    """Raise the error of the first run of `design` that `validate_run`
    refuses, prefixed ``run N:``, by `_raise_first_fault`.  A run's keys
    are its (point, sign) slot pair and its amount slot, or on an amount
    design, whose A is compared with its point's sum, its (point, sign,
    amount) slot triple; runs are checked by `_check_index` of the
    sub-index of their slots, so no run is built."""
    point_of, sign_of, amount_of = (design._index[field][1] for field in ("point", "pwo", "amount"))
    keys = [list(zip(point_of, sign_of, amount_of))] if design.kind is Kind.AMOUNT else [list(zip(point_of, sign_of)), amount_of]

    def check(ats: list[int]) -> None:
        _check_index({field: (distinct, [slots[at] for at in ats]) for field, (distinct, slots) in design._index.items()})

    _raise_first_fault(keys, check, lambda at: f"run {at + 1}")


def _raise_first_fault(columns: list[Sequence], check, where) -> None:
    """Raise the first fault of the rows of a file or the runs of a design
    whose bulk check failed, prefixed by `where` of its row's position
    (see ``errors.located``): the one search of `read_design` and
    `validate_design`.

    `columns` hold each row's keys, one column per kind of key, such that
    a row's checks read only its keys.  A row whose keys earlier rows all
    hold passes when they do, so the first faulty row is the first faulty
    one of the first rows of each column's distinct keys.  `check` of a
    list of positions raises an OamixError when one of their rows is
    faulty: any set of rows passes the bulk check exactly when each of its
    rows does, so that row is sought by halves, each half checked in bulk.
    The half of one row found is its check alone, which raises its first
    fault in the order of a row's checks."""
    # each key's first position: a later one is written over by it
    firsts = sorted(set().union(*(dict(zip(column[::-1], range(len(column) - 1, -1, -1))).values() for column in columns)))
    # the rows firsts[:lo] pass, and firsts[lo:hi] hold a faulty one
    lo, hi = 0, len(firsts)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            check(firsts[lo:mid])
            lo = mid
        except OamixError as exc:
            # a half of one row: its check alone raised its first fault
            if mid == lo + 1:
                raise located(where(firsts[lo]), exc) from exc
            hi = mid


def _check_index(index: dict) -> None:
    """Raise unless every run of a design index passes `validate_run`.

    A run's checks read only its point, its A, its (point, A) pair, its
    sign tuple and its (support, signs) content, so each check runs once
    per distinct key, with the keys taken from the slot lists in bulk
    passes (``dict.fromkeys``); each order is checked by `_check_order`,
    by a lookup in the table of its support's size or a walk.
    A faulty key's error is raised unprefixed: the callers name the first
    faulty row or run (`_raise_first_fault`)."""
    points, point_of = index["point"]
    signs, sign_of = index["pwo"]
    amounts, amount_of = index["amount"]
    if not point_of:
        return
    # by point slot: its support and the exact sum of its values, a
    # numerator over a denominator
    supports: dict[int, tuple[int, ...]] = {}
    totals: dict[int, tuple[int, int]] = {}
    for i in dict.fromkeys(point_of):
        supports[i], totals[i] = _point_facts(points[i])
    for k in dict.fromkeys(amount_of):
        amount = amounts[k]
        if amount is not None and amount < 0:
            raise NegativeEntry(f"total amount A is negative: {amount}")
    m, kind = points[point_of[0]].m, points[point_of[0]].kind
    if kind is Kind.AMOUNT:
        for i, k in dict.fromkeys(zip(point_of, amount_of)):
            amount, (numerator, denominator) = amounts[k], totals[i]
            if amount is None or amount.numerator * denominator != numerator * amount.denominator:
                raise AmountMismatch(f"A is {amount} but the amounts sum to {Fraction(numerator, denominator)}")
    if signs[0] is not None:
        _check_counts(map(signs.__getitem__, dict.fromkeys(sign_of)), m)
        # each (support, signs) content, from the distinct (point, signs)
        # slot pairs, so each sign tuple is hashed once per pair
        point_slots, sign_slots = zip(*dict.fromkeys(zip(point_of, sign_of)))
        for pattern in dict.fromkeys(zip(map(supports.__getitem__, point_slots), map(signs.__getitem__, sign_slots))):
            _check_order(m, *pattern)


def _check_order(m: int, support: tuple[int, ...], pwo: tuple[int, ...]) -> None:
    """`_ordering_from_pwo`'s error, if any, for an ascending support of m
    components and a sign tuple of m's pair count: the one check that a
    run's signs are those of an addition order of its support.

    Signs over a support of at most 6 components pass when the pairs
    outside it are all 0 and the signs within it are one lookup in the
    table of the orderings of a support of that size (`_within`), which
    holds every valid pattern, so a design pays for a table per support
    size, not per support; any other signs, a larger support's and every
    faulty one, take `_ordering_from_pwo`'s walk, which raises in the
    order: a value that is no sign, a sign count that is no pair set or a
    support past m, the first zero-masking fault in pair order, and last
    signs that no sequence of additions gives."""
    if len(support) <= _TABLED:
        mask, outside, table = _within(m, support)
        if pwo.count(0) == outside and tuple(compress(pwo, mask)) in table:
            return
    _ordering_from_pwo(support, pwo)


def _check_counts(signs: Iterable[tuple], m: int) -> None:
    """InconsistentPwo at the first of the sign tuples `signs` that does not
    hold one sign for each pair of m components."""
    pairs = m * (m - 1) // 2
    count = next((len(pwo) for pwo in signs if len(pwo) != pairs), None)
    if count is not None:
        raise InconsistentPwo(f"{count} signs for the pairs of {m} components")


def _check_sign_counts(design: Design) -> None:
    """Raise InconsistentPwo, with `_check_index`'s message, at the first
    distinct sign tuple of an expanded design that does not hold one sign
    for each pair of its m components.  A design valid at birth
    (``core.Design._of``) has passed `_check_index`, so is not counted."""
    if not design._checked:
        _check_counts(design._index["pwo"][0], design.m)
