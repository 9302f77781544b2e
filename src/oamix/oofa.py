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
from itertools import chain, permutations, repeat
from math import isqrt
from operator import getitem, itemgetter
from typing import Iterable, Sequence

from .core import (
    Design,
    DesignPoint,
    Kind,
    OofARun,
    _as_ints,
    _as_signs,
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
    are.  Only the pairs within the support are visited per ordering; the
    others stay 0."""
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
    the support's entries distinct and from 1.  The entries are all -1, 0
    or +1 when those three counts add up to the vector's length.  Only the
    support's pairs are then visited one by one (see `_order_plan`): the
    others pass zero masking when the vector holds as many zeros as they
    number and none of the support's pairs is zero.  The lowest pair that
    breaks zero masking is found only when one does."""
    zeros = pwo.count(0)
    if zeros + pwo.count(1) + pwo.count(-1) != len(pwo):
        raise BadPwoValue(f"sign entries must be -1, 0 or +1, got {_shown(pwo, text=_joined)}")
    within, choices, outside = _order_plan(len(pwo), support)
    # each pair's first-added component: a sign of 1 picks j, -1 picks k
    # and 0 picks None
    firsts = list(map(getitem, choices, within(pwo)))
    if None in firsts or zeros != outside:
        _raise_mask_fault(support, pwo)
    # the signs make a tournament on the support, and a tournament is
    # transitive exactly when its win counts are all distinct: then they
    # are 0..s-1, and the component with w wins is added at s - 1 - w
    s = len(support)
    order = [0] * s
    for c in support:
        order[s - 1 - firsts.count(c)] = c
    if 0 in order:
        raise InconsistentPwo("sign pattern is not induced by any addition order")
    return tuple(order)


# room for every support at every m the file format covers (2 to 9)
@lru_cache(maxsize=2048)
def _order_plan(n_pairs: int, support: tuple[int, ...]) -> tuple[itemgetter, tuple[tuple, ...], int]:
    """For signs over `n_pairs` pairs and an ascending support: a getter of
    the tuple of signs of the pairs within the support, for each of those
    pairs (j, k) the tuple (None, j, k) that a sign indexes, and the number
    of the other pairs, whose signs must be 0.  InconsistentPwo when
    `n_pairs` is not the pair count of some m or the support exceeds that
    m."""
    m = _m_from_pairs(n_pairs)
    if support and support[-1] > m:
        raise InconsistentPwo(f"support {_shown(support)} exceeds the {m} components the signs cover")
    at = [n for n, (j, k) in enumerate(_pwo_pairs(m)) if j in support and k in support]
    # a getter of one item returns it bare, one of a slice a tuple
    within = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1) if at else slice(0))
    choices = tuple((None, *_pwo_pairs(m)[n]) for n in at)
    return within, choices, n_pairs - len(at)


def _raise_mask_fault(support: tuple[int, ...], pwo: tuple[int, ...]) -> None:
    """InconsistentPwo at the lowest pair, in pair order, whose sign breaks
    zero masking: 0 within the support, or nonzero outside it."""
    for (j, k), z in zip(_pwo_pairs(_m_from_pairs(len(pwo))), pwo):
        if j in support and k in support:
            if z == 0:
                raise InconsistentPwo(f"z{j}{k} must be nonzero: both components are active")
        elif z != 0:
            raise InconsistentPwo(f"z{j}{k} must be zero: an absent component is involved")


def oofa_expand(design: Design) -> Design:
    """Replace each base run of support size s by its s! ordered runs.

    Orderings are enumerated in lexicographic order of the support indices;
    runs with s <= 1 pass through as a single run with an all-zero sign
    vector.  Amount tags and coordinates are unchanged, and the ordered
    runs of a base run share its point.  The sign vectors of each distinct
    support are computed once, so runs with the same support and ordering
    share one sign tuple.  A design needs two components to have sign
    factors (and a file with none could not tell its expanded runs from
    unexpanded ones), so m = 1 is refused.  A `design` that is not a Design
    raises InvalidParameter.
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
    are unchanged.  Each distinct point and amount is scaled once, so runs
    that shared a point share its scaled point.  A `design` that is not a
    Design raises InvalidParameter."""
    _require_design(design)
    if design.kind is not Kind.AMOUNT:
        raise WrongKind("amount scaling applies to amount designs")
    scale = _exact_amount("scale", a_max)
    if scale <= 0:
        raise NonPositiveScale(f"scale must be positive, got {_shown(scale, text=str)}")
    points, point_of = design._index["point"]
    amounts, amount_of = design._index["amount"]
    scaled_points = [DesignPoint._of(tuple(v * scale for v in point.values), Kind.AMOUNT) for point in points]
    scaled_amounts = [amount * scale for amount in amounts]
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
    amount sum, the sign count and the order.  The design's index is
    checked in bulk (see `_check_index`), at the cost of its distinct
    values, and the runs are walked (see `_raise_faulty_run`) only when
    that check fails.  The design's shape (m, kind, and which of signs and
    A its runs carry) is checked when the Design is built.  A design that
    `read_design` or a constructor of the library made from valid input is
    valid at birth and records it (see ``core.Design._of``), so this
    returns at once for it; a design built by calling `Design` is checked.
    A `design` that is not a Design raises InvalidParameter."""
    _require_design(design)
    if not design._checked:
        try:
            _check_index(design._index)
        except OamixError:
            _raise_faulty_run(design)
            raise


def _raise_faulty_run(design: Design) -> None:
    """Raise the error of the first run of `design` that `validate_run`
    refuses, prefixed ``run N:`` (see ``errors.located``)."""
    for n, run in enumerate(design.runs, start=1):
        try:
            validate_run(run)
        except OamixError as exc:
            raise located(f"run {n}", exc) from exc


def _check_index(index: dict) -> None:
    """Raise unless every run of a design index passes `validate_run`.

    A run's checks read only its point, its A, its (point, A) pair, its
    sign tuple and its (support, signs) content, so each check runs once
    per distinct key, and the keys are taken from the slot lists in bulk
    passes (``dict.fromkeys``): each referenced point is checked and its
    support and total are found once; each amount is checked for sign
    once; on an amount design each (point, A) pair has its total compared
    once; each sign tuple has its count checked once, and each (support,
    signs) content its order once (see `_check_order`): by one lookup in a
    table of the orderings' sign tuples for a support of at most 6
    components, and by win counts beyond.  A faulty key's error is raised
    unprefixed; the callers name the first faulty row of a file or run of
    a design, which they seek only when this check fails."""
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
            _check_order(*pattern)


# the largest support whose orderings' sign tuples are tabled: 720 of them
_TABLED = 6


@cache
def _tournaments(s: int) -> frozenset[tuple[int, ...]]:
    """The sign tuples, over the pairs of 1..s, of every ordering of 1..s
    (s <= 6), as `oofa_expand` writes them.  They are the signs within any
    support of s components, in pair order, that some ordering induces."""
    support = tuple(range(1, s + 1))
    return frozenset(_pwo_from_orderings(s, support, permutations(support)))


def _check_order(support: tuple[int, ...], pwo: tuple[int, ...]) -> None:
    """`_ordering_from_pwo`'s error, if any, for an ascending support and
    a sign tuple of its m's pair count.  Signs within a support of at most
    6 components that are one ordering's, with zeros only outside it,
    pass by one lookup in `_tournaments`; any other signs take the win
    count walk, which also names the fault."""
    within, _, outside = _order_plan(len(pwo), support)
    if len(support) > _TABLED or pwo.count(0) != outside or within(pwo) not in _tournaments(len(support)):
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
    for each pair of its m components.  A design valid at birth has passed
    `_check_index`, so its tuples are not counted again."""
    if not design._checked:
        _check_counts(design._index["pwo"][0], design.m)
