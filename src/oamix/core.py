"""Exact-rational design points, runs, and design containers.

Everything on the generation side is stored as `fractions.Fraction`, so
lattice values like 1/3 stay exact; conversion to binary floating point
happens only when a numeric model matrix is materialized.  Component
indices are 1-based on every public surface.  All containers are frozen
and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from numbers import Real
from operator import attrgetter

from .errors import BadPwoValue, InvalidDimension, InvalidParameter, NegativeEntry, NotExact, SumNotOne, WrongKind
from .errors import _int_in_range, _iterable, _joined, _shown

__all__ = [
    "Kind",
    "DesignPoint",
    "OofARun",
    "Design",
    "as_fraction",
    "validate_point",
    "total_amount",
]


class Kind(Enum):
    """Whether coordinates are simplex proportions or physical amounts."""

    PROPORTION = "proportion"
    AMOUNT = "amount"


def _as_kind(kind) -> Kind:
    """A Kind, or the Kind whose value `kind` is (``'proportion'`` or
    ``'amount'``); anything else raises InvalidParameter."""
    if type(kind) is Kind:
        return kind
    try:
        return Kind(kind)
    except (TypeError, ValueError):
        raise InvalidParameter(f"kind must be a Kind, 'proportion' or 'amount', got {_shown(kind)}") from None


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and strings like '1/3' or '0.75' exactly.

    A Fraction is immutable, so one comes back as it is.  Floats are
    rejected with NotExact, a TypeError: a binary float has already lost
    the decimal value it was meant to carry, and exactness is the whole
    point here.  A value that is no number (None, a container, an array,
    bytes) raises NotExact too, and text that is no exact number ('x', '',
    '1/0') raises InvalidParameter, a ValueError, as does an infinite
    Decimal.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise NotExact(f"refusing lossy coercion of float {value!r}; pass a string, int, or Fraction")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        error = NotExact if isinstance(exc, TypeError) else InvalidParameter
        raise error(f"an exact number is an int, a Fraction or text such as 3/4 or 0.75, got {_shown(value)}") from None


def _as_signs(values) -> tuple[int, ...]:
    """A sign vector as a tuple of ints: each entry must be a real number
    equal to an integer (``1``, ``numpy.int64(-1)``, ``Fraction(1)``,
    ``1.0``); anything else, such as ``1.7``, NaN or the string ``'-1'``,
    raises BadPwoValue."""
    return _as_ints(values, BadPwoValue, "sign")


# the one entry type of a tuple of exact ints
_INT = frozenset((int,))


def _as_ints(values, error: type, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints, raising `error` about the `what`
    entries unless each is a real number equal to an integer, and
    InvalidParameter unless `values` is iterable.  A tuple of exact ints
    comes back as it is, unconverted."""
    if not isinstance(values, tuple):
        values = tuple(_iterable(what, values))
    if _INT.issuperset(map(type, values)):
        return values
    if not all(isinstance(z, Real) and _is_integer(z) for z in values):
        raise error(f"{what} entries must be integers, got {_shown(values, text=_joined)}")
    return tuple(int(z) for z in values)


def _is_integer(z: Real) -> bool:
    try:
        return int(z) == z
    except (ValueError, OverflowError):  # NaN, infinities
        return False


@dataclass(frozen=True)
class DesignPoint:
    """A single blend: a vector of proportions or amounts.  `kind` is a Kind
    or its value as text, stored as the Kind.  `values` is an iterable of
    exact numbers (see `as_fraction`); a text, bytes or a mapping, which
    would be read as its characters, bytes or keys, raises
    InvalidParameter."""

    values: tuple[Fraction, ...]
    kind: Kind

    def __post_init__(self):
        if isinstance(self.values, (str, bytes, bytearray, Mapping)):
            raise InvalidParameter(f"values must be a sequence of numbers, got {type(self.values).__name__}")
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in _iterable("values", self.values)))
        object.__setattr__(self, "kind", _as_kind(self.kind))

    @classmethod
    def _of(cls, values: tuple[Fraction, ...], kind: Kind) -> DesignPoint:
        """A point of a tuple of Fractions and a Kind, which `__post_init__`
        would keep as they are; it skips that walk."""
        point = object.__new__(cls)
        object.__setattr__(point, "values", values)
        object.__setattr__(point, "kind", kind)
        return point

    @property
    def m(self) -> int:
        return len(self.values)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero coordinates, ascending."""
        return tuple(compress(range(1, len(self.values) + 1), self.values))


@dataclass(frozen=True)
class OofARun:
    """One design row: a point, optionally the sign vector of its addition
    order, and optionally a total-amount tag.

    `pwo` is aligned with ``oofa.pwo_pairs(m)`` and is None until the design
    is expanded over orderings; it is the one record of the order, which
    ``oofa.ordering_from_pwo(point.support(), pwo)`` recovers.  `amount` is
    the exact per-run total for amount-kind points, or the attached
    total-amount level for proportion points (None until one is attached).
    A point that is not a DesignPoint raises InvalidParameter.  Signs are
    stored as ints; one that is not a number equal to an integer raises
    BadPwoValue (see `_as_signs`), and an amount that is not exact NotExact
    or InvalidParameter (see `as_fraction`).
    """

    point: DesignPoint
    pwo: tuple[int, ...] | None = None
    amount: Fraction | None = None

    def __post_init__(self):
        _require_point(self.point)
        if self.pwo is not None:
            object.__setattr__(self, "pwo", _as_signs(self.pwo))
        if self.amount is not None:
            object.__setattr__(self, "amount", as_fraction(self.amount))

    @classmethod
    def _of(cls, point: DesignPoint, pwo: tuple[int, ...] | None, amount: Fraction | None) -> OofARun:
        """A run of fields already in stored form: a tuple of ints (or None)
        and a Fraction (or None).  It skips `__post_init__`, so runs that
        share a checked sign tuple are not scanned again one by one; only
        a design stored as its index, whose objects are in that form, calls
        it to make its runs."""
        run = object.__new__(cls)
        # attribute by attribute, as the generated __init__ does: writing
        # through __dict__ would give each run an unshared, larger dict
        assign = object.__setattr__
        assign(run, "point", point)
        assign(run, "pwo", pwo)
        assign(run, "amount", amount)
        return run


@dataclass(frozen=True)
class Design:
    """An ordered collection of runs of one shape.

    Every run has the design's `m` and `kind`; either all runs carry a sign
    vector or none does; either all carry a total amount A or none does,
    and all runs of an amount design do.  A run that breaks the shape
    raises WrongKind naming the first such run.  Sign vectors need two
    components, so a design with m < 2 whose runs carry them raises
    InvalidDimension.  An `m` that is not an integer, `runs` that cannot
    be iterated and a run that is not an OofARun raise InvalidParameter;
    `kind` may be given as the Kind's value as text.

    Runs may share point, sign tuple and amount objects, and every design
    holds the index of its distinct objects, which every layer reads, so
    it costs what its distinct values cost.  A design built by calling
    `Design` keeps its runs; the library's are stored as their index and
    valid at birth (see `_of`).  `==` and `hash` are a dataclass's, equal
    when `m`, `kind` and the runs are, in order, but read `_value_index`
    and build no run.  The model layer's memo is ``models._memoized``.
    """

    m: int
    kind: Kind
    runs: tuple[OofARun, ...]

    # not a field: only `_of` sets it, in the instance dict
    _checked = False

    def __post_init__(self):
        object.__setattr__(self, "m", _int_in_range("m", self.m))
        object.__setattr__(self, "kind", _as_kind(self.kind))
        runs = tuple(_iterable("runs", self.runs))
        object.__setattr__(self, "runs", runs)
        # the run types first, each distinct one once; the stray is sought
        # only when there is one
        if not all(issubclass(cls, OofARun) for cls in set(map(type, runs))):
            stray = next((n for n, run in enumerate(runs, start=1) if not isinstance(run, OofARun)), None)
            if stray is not None:
                raise InvalidParameter(f"run {stray} must be an OofARun, got {type(runs[stray - 1]).__name__}")
        index = {field: _identity_index(runs, field) for field in _FIELDS}
        object.__setattr__(self, "_index", index)
        # the shape from the first run, checked once per distinct point (m
        # and kind), sign tuple and amount (present or not); the first run
        # that breaks it is sought only when one does
        shape = (self.m, self.kind, self.is_expanded, self.has_amounts)
        faults = (
            {slot for slot, point in enumerate(index["point"][0]) if (point.m, point.kind) != shape[:2]},
            {slot for slot, pwo in enumerate(index["pwo"][0]) if (pwo is not None) != shape[2]},
            {slot for slot, amount in enumerate(index["amount"][0]) if (amount is not None) != shape[3]},
        )
        if any(faults):
            slots = zip(*(index[field][1] for field in _FIELDS))
            idx = next(n for n, run in enumerate(slots, start=1) if any(map(set.__contains__, faults, run)))
            run = runs[idx - 1]
            got = (run.point.m, run.point.kind, run.pwo is not None, run.amount is not None)
            raise WrongKind(f"run {idx} has {_describe(*got)}; the design's runs have {_describe(*shape)}")
        if self.m < 2 and self.is_expanded:
            raise InvalidDimension(f"addition orders need m >= 2 components, got m={_shown(self.m)}")

    @classmethod
    def _of(cls, m: int, kind: Kind, index: dict, checked: bool) -> Design:
        """A design of one shape stored as its index, with no runs.

        `index`, what `__post_init__` builds from runs, is the design's
        storage, and its runs are made from it on first access (see
        `__getattr__`).  Only the library's own constructors, which hold
        the slots of a valid shape, call it.

        `checked` records that every run passes ``oofa.validate_run``, so
        that ``oofa.validate_design`` returns at once for the design: the
        reader, which has checked every row, and the lattice and centroid,
        valid by construction, pass True, and a projection, expansion,
        crossing or scaling passes its parent's flag, since its argument
        checks keep a valid parent's child valid.  The flag is kept in the
        instance dict, not as a field, so `==`, `hash`, `repr` and pickle
        are those of the runs; a design built by calling `Design` (or
        `dataclasses.replace`) is never marked, and is checked in full."""
        design = object.__new__(cls)
        assign = object.__setattr__
        assign(design, "m", m)
        assign(design, "kind", kind)
        assign(design, "_index", index)
        design.__dict__["_checked"] = checked
        return design

    def __getattr__(self, name: str):
        """The runs of a design stored as its index, made on first access:
        one run per slot triple, sharing the index's objects.  Only a
        missing `runs` is answered here; the tuple is kept, and when two
        threads build it at once both return the one stored first."""
        if name != "runs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}", name=name, obj=self)
        fields = (map(distinct.__getitem__, slots) for distinct, slots in map(self._index.__getitem__, _FIELDS))
        return self.__dict__.setdefault("runs", tuple(map(OofARun._of, *fields)))

    def __getstate__(self) -> dict:
        """The instance dict, less the memo of matrices and factors built of
        the design (``models._memoized``): a pickle or a copy starts
        without one."""
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state

    def __eq__(self, other):
        return self._value_index == other._value_index if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._value_index)

    def __len__(self) -> int:
        return len(self._index["point"][1])

    @property
    def is_expanded(self) -> bool:
        """True when the runs carry the sign vectors of addition orders."""
        signs = self._index["pwo"][0]
        return bool(signs) and signs[0] is not None

    @property
    def has_amounts(self) -> bool:
        """True when the runs carry a total amount A, as amount runs always do."""
        amounts = self._index["amount"][0]
        return self.kind is Kind.AMOUNT or (bool(amounts) and amounts[0] is not None)

    @property
    def amount_levels(self) -> tuple[Fraction, ...]:
        """Sorted distinct per-run totals (empty when none are attached)."""
        return tuple(sorted(set(self._index["amount"][0]))) if self.has_amounts else ()

    @cached_property
    def _value_index(self) -> tuple:
        """`m`, `kind`, then each run field's distinct values in first-seen
        order and each run's slot among them: a point's value is its
        `_point_value` (its kind is the design's), any other's is itself."""
        (points, point_of), signs, amounts = map(self._index.__getitem__, _FIELDS)
        points = _by_value(list(map(_point_value, points)), point_of)
        return self.m, self.kind, points, _by_value(*signs), _by_value(*amounts)


# the run fields, in the order of OofARun's
_FIELDS = ("point", "pwo", "amount")


def _identity_index(runs: tuple[OofARun, ...], field: str) -> tuple[tuple, tuple[int, ...]]:
    """The distinct objects of one run field by identity in first-seen
    order and each run's slot among them."""
    slots: dict[int, int] = {}
    distinct = []
    run_slots = []
    for obj in map(attrgetter(field), runs):
        slot = slots.get(id(obj))
        if slot is None:
            slot = slots[id(obj)] = len(distinct)
            distinct.append(obj)
        run_slots.append(slot)
    return tuple(distinct), tuple(run_slots)


def _point_value(point: DesignPoint) -> tuple[tuple[int, int], ...]:
    """A point's values as (numerator, denominator) pairs: a Fraction is kept
    in lowest terms, so the pairs are its value, and ints hash faster."""
    return tuple((v.numerator, v.denominator) for v in point.values)


def _by_value(values, slots: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """The distinct `values` of a field's distinct objects in first-seen
    order, and each run's slot among them, from its object's slot."""
    ids: dict = {}
    value_of = [ids.setdefault(value, len(ids)) for value in values]
    return tuple(ids), slots if len(ids) == len(value_of) else tuple(map(value_of.__getitem__, slots))


def _require_design(design) -> None:
    """InvalidParameter naming the type of a `design` argument that is not a
    Design: the one check of every layer that takes a design."""
    if not isinstance(design, Design):
        raise InvalidParameter(f"design must be a Design, got {type(design).__name__}")


def _describe(m: int, kind: Kind, signs: bool, amount: bool) -> str:
    return f"{_shown(m)} {kind.value} components, {'with' if signs else 'no'} signs, {'with' if amount else 'no'} A"


def _require_point(point) -> None:
    """InvalidParameter naming the type of a `point` that is not a DesignPoint."""
    if not isinstance(point, DesignPoint):
        raise InvalidParameter(f"point must be a DesignPoint, got {type(point).__name__}")


def validate_point(point: DesignPoint) -> None:
    """Raise unless the point satisfies its kind's constraints: entries are
    nonnegative, and proportions sum to exactly 1, taken exactly.  A
    `point` that is not a DesignPoint raises InvalidParameter."""
    _require_point(point)
    _point_facts(point)


def total_amount(point: DesignPoint) -> Fraction:
    """Exact total of an amount-kind point.  A `point` that is not a
    DesignPoint raises InvalidParameter."""
    _require_point(point)
    if point.kind is not Kind.AMOUNT:
        raise WrongKind("total_amount applies to amount-kind points")
    return Fraction(*_exact_sum([v.as_integer_ratio() for v in point.values]))


def _point_facts(point: DesignPoint) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The support of a point that passes `validate_point`, and the exact
    sum of its values (see `_exact_sum`), all from one read of their
    numerators and denominators; the error of `validate_point` for a point
    that does not pass."""
    ratios = [v.as_integer_ratio() for v in point.values]
    # the least ratio has the least numerator
    if ratios and min(ratios)[0] < 0:
        i = next(i for i, (numerator, _) in enumerate(ratios) if numerator < 0)
        raise NegativeEntry(f"component {i + 1} is negative: {_shown(point.values[i], text=str)}")
    numerator, denominator = _exact_sum(ratios)
    if point.kind is Kind.PROPORTION and numerator != denominator:
        raise SumNotOne(f"proportions sum to {_shown(Fraction(numerator, denominator), text=str)}, expected exactly 1")
    return tuple(compress(range(1, len(ratios) + 1), [n for n, _ in ratios])), (numerator, denominator)


def _exact_sum(ratios: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the fractions n/d of (n, d) `ratios` as a numerator over
    their least common denominator, not reduced: one integer sum, where
    adding Fractions one by one would reduce every partial sum."""
    denominator = lcm(*(d for _, d in ratios))
    return sum(n * (denominator // d) for n, d in ratios), denominator
