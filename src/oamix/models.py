"""Model specifications and numeric model matrices.

Eight model families are supported, keyed eq1..eq8, each stated once in
`_FAMILIES` as its ordered blocks of terms and its top amount power:

  eq1/eq2  mixture-amount: linear/quadratic Scheffe blocks in the
           proportions x_i, each block multiplied by a power of the total
           amount A (no intercept; the x_i sum to 1)
  eq3/eq4  component-amount: linear/quadratic polynomial in the actual
           amounts a_i, with an intercept (rows at A = 0 are admissible)
  eq5/eq6  eq1/eq2 plus pairwise-order factors z_jk; eq6 also carries
           component-by-order interactions, reduced for identifiability
  eq7/eq8  eq3/eq4 plus pairwise-order factors; eq8 with reduced
           interactions

The interaction reduction defaults to cyclic pairing: component i keeps
only its interaction with the pair {i, i mod m + 1}, materialized on the
j < k sign column (for m = 3 that is x1z12, x2z23, x3z13).  "keep_all"
retains every membership interaction x_i z_jk with i in {j, k}; a custom
list of (component, pair) entries is also accepted.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain

import numpy as np

from .core import Design, Kind, _require_design
from .errors import (
    InvalidDimension,
    InvalidParameter,
    KindMismatch,
    MissingAmount,
    MissingPwo,
    UnsupportedReduction,
    _SIZE_DIGITS,
    _int_in_range,
    _iterable,
    _shown,
)
from .oofa import _pwo_pairs

__all__ = [
    "ModelKind",
    "Term",
    "ModelSpec",
    "ModelMatrix",
    "build_spec",
    "model_matrix",
    "coded_model_matrix",
]

_AMOUNT_KINDS = frozenset({"eq3", "eq4", "eq7", "eq8"})
_PWO_KINDS = frozenset({"eq5", "eq6", "eq7", "eq8"})


class ModelKind(Enum):
    MA_LIN = "eq1"
    MA_QUAD = "eq2"
    CA_LIN = "eq3"
    CA_QUAD = "eq4"
    OOFA_MA_ADD = "eq5"
    OOFA_MA_FULL = "eq6"
    OOFA_CA_ADD = "eq7"
    OOFA_CA_FULL = "eq8"

    @property
    def uses_amounts(self) -> bool:
        """True for component-amount families (model terms in a_i)."""
        return self.value in _AMOUNT_KINDS

    @property
    def has_pwo(self) -> bool:
        return self.value in _PWO_KINDS

    @classmethod
    def parse(cls, text: "str | ModelKind") -> "ModelKind":
        if isinstance(text, cls):
            return text
        key = text.strip().lower() if isinstance(text, str) else None
        for member in cls:
            if key in (member.value, member.name.lower()):
                return member
        raise InvalidParameter(f"unknown model kind {_shown(text)}; expected eq1..eq8")


@dataclass(frozen=True)
class Term:
    """A product of component powers, at most one sign factor, and a power
    of the total amount.  The term with no factor, ``Term()``, is the
    intercept, labelled ``1``."""

    comp_powers: tuple[tuple[int, int], ...] = ()
    pwo_pair: tuple[int, int] | None = None
    amount_power: int = 0

    def label(self, comp_symbol: str) -> str:
        parts = []
        for i, p in self.comp_powers:
            # squares render subscript-style: a1^2 is "a11"
            parts.append(f"{comp_symbol}{i}" if p == 1 else f"{comp_symbol}{i}{i}")
        if self.pwo_pair is not None:
            j, k = self.pwo_pair
            parts.append(f"z{j}{k}")
        if self.amount_power == 1:
            parts.append("A")
        elif self.amount_power >= 2:
            parts.append(f"A^{self.amount_power}")
        return "".join(parts) or "1"


@dataclass(frozen=True)
class ModelSpec:
    kind: ModelKind
    m: int
    terms: tuple[Term, ...]

    @property
    def p(self) -> int:
        return len(self.terms)

    @property
    def comp_symbol(self) -> str:
        return "a" if self.kind.uses_amounts else "x"

    # facts of the terms, computed on first use and kept in the instance
    # dict: the fields alone make `==`, `hash`, `repr` and a `replace`

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(term.label(self.comp_symbol) for term in self.terms)

    @cached_property
    def _parts(self) -> tuple[ModelSpec, ...]:
        """The specs whose model matrices this one's is the Kronecker
        product of on a crossed design (see `_crossed_rows`): (base, amount)
        when the terms are one list of terms in proportions and signs
        repeated, in consecutive blocks, for amount powers t = 0, ..., T
        with T >= 1, as eq1, eq2, eq5 and eq6 are, and (self,) otherwise.
        The base spec holds the t = 0 block; the amount spec, of kind eq1
        so that its rows read neither signs nor component amounts, holds
        the terms 1, A, ..., A^T.  A model in component amounts is never
        split: its terms take the amounts apart."""
        top = max((term.amount_power for term in self.terms), default=0)
        q, rest = divmod(self.p, top + 1)
        if self.kind.uses_amounts or not top or rest:
            return (self,)
        base = self.terms[:q]
        for t in range(top + 1):
            if self.terms[t * q : (t + 1) * q] != tuple(replace(term, amount_power=t) for term in base):
                return (self,)
        powers = tuple(Term(amount_power=t) for t in range(top + 1))
        return replace(self, terms=base), ModelSpec(kind=ModelKind.MA_LIN, m=self.m, terms=powers)


def _resolve_reduction(reduction, m: int) -> tuple[tuple[int, tuple[int, int]], ...]:
    """A reduction's (component, pair) entries.  Only text is compared to
    the rule names; a numpy array is read as its nested lists, so it is
    judged as the equal list is."""
    if isinstance(reduction, np.ndarray):
        reduction = reduction.tolist()
    if reduction is None or isinstance(reduction, str):
        if reduction in (None, "cyclic"):
            return tuple((i, tuple(sorted((i, i % m + 1)))) for i in range(1, m + 1))
        if reduction == "keep_all":
            return tuple((i, (j, k)) for i in range(1, m + 1) for j, k in _pwo_pairs(m) if i in (j, k))
        raise UnsupportedReduction(f"unknown reduction rule {_shown(reduction)}")
    if not isinstance(reduction, Iterable):
        raise UnsupportedReduction(f"unknown reduction rule {_shown(reduction)}")
    out = []
    seen = set()
    for entry in reduction:
        try:
            i, (j, k) = entry
        except (TypeError, ValueError):
            raise UnsupportedReduction(f"a reduction entry is (component, (j, k)), got {_shown(entry)}") from None
        i, j, k = (_int_in_range("reduction component", c) for c in (i, j, k))
        j, k = sorted((j, k))
        if not (1 <= j < k <= m) or not (1 <= i <= m):
            i, j, k = map(_shown, (i, j, k))
            raise UnsupportedReduction(f"interaction ({i}, ({j},{k})) out of range for m={m}")
        if i not in (j, k):
            raise UnsupportedReduction(
                f"component {i} must belong to its pair ({j},{k})"
            )
        if (i, (j, k)) in seen:
            raise UnsupportedReduction(f"duplicate interaction ({i}, ({j},{k}))")
        seen.add((i, (j, k)))
        out.append((i, (j, k)))
    return tuple(out)


# the blocks of terms the families are made of: each gives, at m and with
# the kept (component, pair) interactions, its terms' (comp_powers, pwo_pair)
def _intercept(m, kept):
    return [((), None)]


def _linear(m, kept):
    return [(((i, 1),), None) for i in range(1, m + 1)]


def _squares(m, kept):
    return [(((i, 2),), None) for i in range(1, m + 1)]


def _crosses(m, kept):
    return [(((i, 1), (j, 1)), None) for i, j in _pwo_pairs(m)]


def _signs(m, kept):
    return [((), pair) for pair in _pwo_pairs(m)]


def _interactions(m, kept):
    return [(((i, 1),), pair) for i, pair in kept]


# each family's top amount power T and its blocks, in order; the blocks are
# repeated, in the same order, for the amount powers t = 0, ..., T
_FAMILIES = {
    ModelKind.MA_LIN: (1, (_linear,)),
    ModelKind.MA_QUAD: (2, (_linear, _crosses)),
    ModelKind.CA_LIN: (0, (_intercept, _linear)),
    ModelKind.CA_QUAD: (0, (_intercept, _linear, _squares, _crosses)),
    ModelKind.OOFA_MA_ADD: (1, (_linear, _signs)),
    ModelKind.OOFA_MA_FULL: (2, (_linear, _crosses, _signs, _interactions)),
    ModelKind.OOFA_CA_ADD: (0, (_intercept, _linear, _signs)),
    ModelKind.OOFA_CA_FULL: (0, (_intercept, _linear, _signs, _squares, _crosses, _interactions)),
}

# the most terms a spec may have; m is checked against the largest family,
# eq6 keeping all interactions, before any term is built
_MAX_TERMS = 10**5


def build_spec(kind, m: int, reduction="cyclic") -> ModelSpec:
    """Deterministic term list for one of the eight model families: its
    blocks (`_FAMILIES`) for A^0, then for A^1, up to its top power.

    `reduction` applies only to eq6/eq8 and defaults to cyclic pairing; a
    custom one is a list of (component, (j, k)) entries of integers.  An m
    at which the largest family, eq6 keeping all interactions, has over
    10^5 terms (`_MAX_TERMS`; m over 129) raises InvalidParameter before
    any term is built.
    """
    kind = ModelKind.parse(kind)
    m = _int_in_range("m", m)
    if m < 2:
        raise InvalidDimension(f"need m >= 2, got m={_shown(m)}")
    # eq6 with keep_all has 3(m + 2 C(m, 2) + m(m - 1)) = 3m(2m - 1) terms,
    # more than any other family or reduction at m (a custom reduction
    # repeats no interaction)
    count = 3 * m * (2 * m - 1)
    if count > _MAX_TERMS:
        raise InvalidParameter(
            f"a model at m={_shown(m, _SIZE_DIGITS)} may have {_shown(count, _SIZE_DIGITS)} terms, "
            f"over the limit of {_MAX_TERMS}"
        )
    top, blocks = _FAMILIES[kind]
    kept = _resolve_reduction(reduction, m) if _interactions in blocks else ()
    terms = tuple(
        Term(comp_powers=comps, pwo_pair=pair, amount_power=t)
        for t in range(top + 1)
        for block in blocks
        for comps, pair in block(m, kept)
    )
    return ModelSpec(kind=kind, m=m, terms=terms)


@dataclass(frozen=True, eq=False)
class ModelMatrix:
    """An N x p model matrix.  X is read-only, so the one factor that every
    criterion reads, built on first use and kept, stays valid."""

    X: np.ndarray
    col_labels: tuple[str, ...]

    def __post_init__(self):
        X, labels = _checked_matrix(self.X, self.col_labels)
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "col_labels", labels)

    @property
    def shape(self) -> tuple[int, int]:
        return self.X.shape

    @cached_property
    def _factor(self):
        from .evaluate import _Factor  # evaluate imports this module

        return _Factor(self.X, self.col_labels)


def _checked_matrix(X, labels=None) -> tuple[np.ndarray, tuple[str, ...]]:
    """X as a 2-D float array with at least one column, and one text label
    per column: `labels`, or the column numbers when None.  Anything else
    raises InvalidParameter."""
    try:
        arr = np.asarray(X, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter("X must be a numeric array") from None
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise InvalidParameter(f"X must be 2-D with at least one column, got shape {arr.shape}")
    p = arr.shape[1]
    labels = tuple(map(str, range(p))) if labels is None else tuple(_iterable("col_labels", labels))
    if len(labels) != p:
        raise InvalidParameter(f"X has {p} columns but {len(labels)} labels")
    if not all(isinstance(label, str) for label in labels):
        raise InvalidParameter(f"col_labels must be text, got {_shown(labels)}")
    return arr, labels


def _power_into(a: np.ndarray, p, out: np.ndarray) -> np.ndarray:
    """`a ** p` written into `out`, with the bits of numpy's `a ** p`: a
    square is numpy's ``square``, a * a, a first power is `a` itself, and
    any other power is `a ** p` itself, copied."""
    if p == 2:
        return np.square(a, out=out)
    out[...] = a if p == 1 else a**p
    return out


def _product_into(factors: list, out: np.ndarray) -> np.ndarray:
    """The product of `factors`, (array, power) pairs, written into `out` in
    the order ``reduce(np.multiply, [a ** p ...])`` takes: the first two
    factors are multiplied into `out` and the rest in place.  A power of 1
    is the array itself, and a product of two floats does not depend on
    their order, so a term of one square, or of columns and signs, makes no
    temporary."""
    (a, p), rest = factors[0], factors[1:]
    if p != 1:
        _power_into(a, p, out)
    elif rest and rest[0][1] == 1:
        np.multiply(a, rest[0][0], out=out)
        rest = rest[1:]
    elif rest:
        _power_into(*rest[0], out)
        out *= a
        rest = rest[1:]
    else:
        out[...] = a
    for a, p in rest:
        out *= a if p == 1 else a**p
    return out


def term_columns(spec: ModelSpec, comps, signs, amounts, out=None) -> np.ndarray:
    """The n x p matrix of model vectors f(x) at n points given as float arrays:
    `comps` (n, m), `signs` (n, pairs) in `pwo_pairs` order with zero masking
    applied, and `amounts` (n,).  Each column is one product of its term's
    factors, comps**p, z and amounts**t in that order, written straight
    into the column (`_product_into`), for design matrices and FDS rows
    alike; the term with no factor, the intercept, is a column of ones.
    `comps` may be None for a spec of terms in A alone.  The matrix is
    written into `out`, an (n, p) float array of either order with the same
    bits, or into a new C-ordered array."""
    pair_col = {pair: c for c, pair in enumerate(_pwo_pairs(spec.m))}
    X = np.empty((len(amounts if comps is None else comps), spec.p)) if out is None else out
    for col, term in enumerate(spec.terms):
        factors = [(comps[:, i - 1], p) for i, p in term.comp_powers]
        if term.pwo_pair is not None:
            factors.append((signs[:, pair_col[term.pwo_pair]], 1))
        if term.amount_power:
            factors.append((amounts, term.amount_power))
        if factors:
            _product_into(factors, X[:, col])
        else:
            X[:, col] = 1.0
    return X


def _field_rows(design: Design, field: str, runs=None) -> np.ndarray:
    """One run field (``point``, ``pwo`` or ``amount``) as float rows, one
    per run, or one per entry of `runs` (run numbers) when it is given,
    gathered by slot from the field's float table (`_field_table`)."""
    floats, slots = _memoized(design, ("floats", field), lambda: _field_table(design, field))
    return floats.take(slots if runs is None else slots[runs], axis=0)


def _field_table(design: Design, field: str) -> tuple[np.ndarray, np.ndarray]:
    """The read-only floats of a run field's distinct objects, one row each,
    and each run's slot among them as an intp array; a value beyond float
    range raises InvalidParameter naming the field."""
    distinct, slots = design._index[field]
    floats, slots = _floats(field, _TO_FLOATS[field], distinct), _slots(slots)
    floats.flags.writeable = slots.flags.writeable = False
    return floats, slots


def _slots(slots: tuple[int, ...]) -> np.ndarray:
    """Slots as an intp array."""
    return np.fromiter(slots, np.intp, len(slots))


_FIELD_VALUES = {"point": "component value", "pwo": "sign", "amount": "total amount A"}


def _floats(field: str, to_floats, values):
    """`to_floats(values)`, values of the run field `field`; a value beyond
    float range raises InvalidParameter naming the field."""
    try:
        return to_floats(values)
    except OverflowError:
        raise InvalidParameter(
            f"a {_FIELD_VALUES[field]} of the design is too large for a float (over {sys.float_info.max:.4g})"
        ) from None


def _point_floats(points) -> np.ndarray:
    """The (points, m) floats of DesignPoints: numerator / denominator is
    the true division `float` of a Fraction makes, so the bits are the
    same."""
    return np.array([[v.numerator / v.denominator for v in point.values] for point in points])


def _sign_floats(signs) -> np.ndarray:
    """The (sign tuples, pairs) floats of sign tuples of -1, 0 and 1."""
    pairs = len(signs[0]) if signs else 0
    return np.fromiter(chain.from_iterable(signs), float, len(signs) * pairs).reshape(len(signs), pairs)


def _amount_floats(amounts) -> np.ndarray:
    return np.fromiter(map(float, amounts), float, len(amounts))


_TO_FLOATS = {"point": _point_floats, "pwo": _sign_floats, "amount": _amount_floats}


def _level_floats(design: Design) -> list[float]:
    """The design's amount levels as floats, ascending; one beyond float
    range raises InvalidParameter."""
    return _floats("amount", _amount_floats, design.amount_levels).tolist()


def _check_design(design: Design, spec: ModelSpec) -> None:
    """Raise unless `design` is a Design whose shape the ModelSpec `spec`
    can read: the same m, the kind its terms are in, total-amount levels
    for a mixture-amount spec and, for a spec with sign terms, sign
    vectors, which hold one sign per pair, as every Design's do."""
    _require_design(design)
    if not isinstance(spec, ModelSpec):
        raise InvalidParameter(f"spec must be a ModelSpec, got {type(spec).__name__}")
    if design.m != spec.m:
        raise KindMismatch(f"design has m={design.m}, spec has m={spec.m}")
    if spec.kind.uses_amounts:
        if design.kind is not Kind.AMOUNT:
            raise KindMismatch(f"{spec.kind.value} needs an amount design")
    else:
        if design.kind is not Kind.PROPORTION:
            raise KindMismatch(f"{spec.kind.value} needs a proportion design")
        if not design.has_amounts:
            raise MissingAmount(f"{spec.kind.value} needs total-amount levels; the design carries none")
    if spec.kind.has_pwo:
        if not design.is_expanded:
            raise MissingPwo("spec has sign terms but the design carries no orderings")


def _memoized(design: Design, key: tuple, build):
    """`build()`, kept in the design's memo under `key` and returned for
    every later call with an equal key, None included.

    The memo is one dict in the design's instance dict: a design is
    immutable, so what is built of it stays valid for its life, and the memo
    dies with it.  It holds the model matrices, raw and coded, each with
    the one factor every criterion reads (`_matrix`), and the crossed parts
    (``evaluate._crossed_factors``), per spec and coding, so a design
    evaluated coded and raw and then sampled builds and factors each matrix
    once.  It also holds the float tables every build reads, one per run
    field: the floats of the field's distinct objects and the runs' slots
    (`_field_table`), so raw, coded and crossed builds convert each
    distinct value to float once per design.  `==`, `hash` and `repr` do
    not read it, and a pickle or a copy does not carry it
    (``Design.__getstate__``).  Callers check the design against the spec
    first, so every error comes before the memo is read, and a build that
    raises stores nothing.  Two threads that build one entry at once both
    get the one stored first."""
    memo = design.__dict__.setdefault("_memo", {})
    # the memo itself marks a missing entry: it is never one
    found = memo.get(key, memo)
    return memo.setdefault(key, build()) if found is memo else found


def _matrix(design: Design, spec: ModelSpec, coded: bool) -> ModelMatrix:
    """The model matrix of the design under the spec, checked first
    (`_check_design`), then built once per coding (`_memoized`)."""
    _check_design(design, spec)
    return _memoized(design, ("matrix", spec, coded), lambda: _build_matrix(design, spec, coded))


def _build_matrix(design: Design, spec: ModelSpec, coded: bool) -> ModelMatrix:
    """`_matrix`'s build: each distinct value converted to float once."""
    comps = _field_rows(design, "point").reshape(len(design), spec.m)
    signs = _field_rows(design, "pwo") if spec.kind.has_pwo else None
    if spec.kind.uses_amounts:
        if coded:
            comps = np.column_stack([_code_column(comps[:, i]) for i in range(spec.m)])
        amounts = None
    else:
        amounts = _field_rows(design, "amount")
        if coded:
            amounts = _code_column(amounts)
    X = term_columns(spec, comps, signs, amounts)
    return ModelMatrix(X=X, col_labels=spec.labels)


def model_matrix(design: Design, spec: ModelSpec) -> ModelMatrix:
    """Materialize the N x p model matrix for a design.

    The design's exact rational values (signs are exact integers) are
    converted to float once per distinct value, and the term products are
    taken in float, so a cell is within an ulp or two of its exact value.
    The design and spec are checked on every call (KindMismatch,
    MissingAmount, MissingPwo, InconsistentPwo, or InvalidParameter for a
    value beyond float range or an argument of the wrong type), and a later
    call with the same design and an equal spec returns the same read-only
    matrix, kept in the design's memo (`_memoized`).
    """
    return _matrix(design, spec, False)


def _code_column(col: np.ndarray) -> np.ndarray:
    """`col` centered and scaled to [-1, 1]; a constant or empty column
    comes back as it is."""
    if not col.size:
        return col
    lo, hi = col.min(), col.max()
    if hi == lo:
        return col
    center = (hi + lo) / 2.0
    half = (hi - lo) / 2.0
    return (col - center) / half


def _crossed_rows(design: Design, spec: ModelSpec) -> np.ndarray | None:
    """X_base, the rows of the base spec (`ModelSpec._parts`) at the runs of
    the first run's amount level, when the spec has two parts and every
    level of the design holds the same multiset of base runs (point values
    and sign tuple); None otherwise.  Whether the design is crossed is read
    from its value index (``Design._value_index``), so two equal designs
    built from different objects give the same answer.

    The model matrix X is then X_A (x) X_base up to the order of its rows,
    with X_A the amount spec's rows at the levels (`_amount_rows`); X_base
    is, cell for cell, the t = 0 columns of the first level's rows of X,
    and both codings share it, since coding recodes only A.  The design
    is one checked against the spec."""
    if len(spec._parts) == 1:
        return None
    _, _, (_, point_of), (signs, sign_of), (_, amount_of) = design._value_index
    base_runs = _slots(point_of) * len(signs) + _slots(sign_of)
    level = _slots(amount_of)
    counts = np.bincount(level)
    if counts.min() != counts.max():
        return None
    groups = base_runs[np.lexsort((base_runs, level))].reshape(counts.size, -1)
    if not (groups == groups[0]).all():
        return None
    runs = np.flatnonzero(level == 0)
    base = spec._parts[0]
    comps = _field_rows(design, "point", runs)
    signs = _field_rows(design, "pwo", runs) if base.kind.has_pwo else None
    return term_columns(base, comps, signs, None)


def _amount_rows(design: Design, spec: ModelSpec, coded: bool) -> np.ndarray:
    """X_A, the rows of an amount spec (`ModelSpec._parts`) at the design's
    distinct levels, ascending, coded as `coded_model_matrix` codes A when
    `coded`."""
    levels = np.array(_level_floats(design))
    return term_columns(spec, None, None, _code_column(levels) if coded else levels)


def coded_model_matrix(design: Design, spec: ModelSpec) -> ModelMatrix:
    """Model matrix with numeric amount factors centered and scaled to [-1, 1].

    For component-amount specs each a_i is replaced by u_i = (a_i - c_i)/s_i,
    where c_i and s_i are the midpoint and half-range of that column across
    the design; for mixture-amount specs the proportions stay raw (they live
    on the simplex already) and only the total amount is coded.  Sign factors
    are untouched.  This is the coding under which the reference designs'
    documented standard-error, multicollinearity, and power columns reproduce;
    leverage-based criteria do not depend on it.  The same physical design
    yields the same coded matrix in any amount units.  Checks, errors and
    memo (`_memoized`) are `model_matrix`'s, the coded matrix kept apart.
    """
    return _matrix(design, spec, True)
