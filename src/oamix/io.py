"""Design file serialization.

A design file is comma-separated text with one header line naming the
columns: component columns ``x1..xm`` (proportions) or ``a1..am``
(amounts), then sign columns ``z12, z13, ...`` in lexicographic pair order
when the design is expanded, then the total-amount column ``A`` when it
carries amounts (amount designs always do).  `_columns` is the one
statement of this grammar: the writer emits its header, and the reader
accepts a header only when it equals `_columns` for some kind, m and
flags.  The flags are the design's shape, which ``core.Design`` fixes for
all its runs at once.

Values are exact rational strings (``1/3``) by default and round-trip
losslessly.  ``decimals=k`` renders a display variant: values are rounded
half-up to k decimal places, with exact integers printed bare (``0``,
``1``, ``500``) the way the reference tables print them.  Decimal files
are display artifacts.

`read_design`, the one reader the library and the CLI share, accepts a
file only when every row passes the format and ``oofa.validate_run``, so
it rejects a display file of thirds rounded to 0.33 (proportions no
longer summing to 1) and an amount row whose rounded A differs from the
sum of its rounded amounts.  It names the first faulty row in file order
as ``line N: ...``.  Pair labels use single digits, so the format covers
up to 9 components.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from itertools import compress, count, product, repeat
from numbers import Integral, Rational

from .core import Design, DesignPoint, Kind, _as_signs, _once_per_object, _require_design
from .errors import InvalidParameter, MalformedHeader, NotExact, OamixError, RowLengthMismatch, _int_in_range, _shown
from .oofa import _check_index, _check_sign_counts, _pwo_pairs, _raise_first_fault

__all__ = ["write_design", "read_design", "format_value", "reference_design"]


def format_value(value: Fraction, decimals: int | None) -> str:
    """Render one exact value: rational text, or half-up rounded decimals.

    `value` is an int or a Fraction; an integer of another type, a bool or
    a numpy integer, renders as the int it equals at any `decimals`, and
    anything else, a float among them, raises NotExact.  `decimals`, when
    given, is an integer from 0 to 1000."""
    if not isinstance(value, Rational):
        raise NotExact(f"value must be an int or a Fraction, got {_shown(value)}")
    if decimals is not None:
        decimals = _int_in_range("decimals", decimals, 0, _MAX_DECIMALS)
    return _format_value(int(value) if isinstance(value, Integral) else value, decimals)


def _format_value(value: Fraction, decimals: int | None) -> str:
    """`format_value` for a `decimals` already checked."""
    if decimals is None:
        return str(value)
    scale = 10 ** decimals
    q = (round_half_up(value, decimals) * scale).numerator
    if q % scale == 0:
        return str(q // scale)
    return f"{q // scale}.{q % scale:0{decimals}d}"


def round_half_up(value: Fraction, decimals: int) -> Fraction:
    """The exact rational a value displays as at k decimals."""
    scale = 10 ** decimals
    scaled = value * scale
    # half-up for the nonnegative values a design can hold
    q = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(q, scale)


_NO_ROWS = "design file has a header but no rows"
# the canonical sign cells; the reader decodes any other cell
_SIGN_CELLS = {"-1": -1, "0": 0, "1": 1}
# their texts by sign, for the writer
_SIGN_TEXTS = {sign: cell for cell, sign in _SIGN_CELLS.items()}
# pair labels use single digits
_MAX_COMPONENTS = 9
# far below the digits Python converts between int and str by default (4300)
_MAX_DECIMALS = 1000


def _columns(kind: Kind, m: int, with_signs: bool, with_amount: bool) -> list[str]:
    """The header of a design file: the one statement of its grammar."""
    symbol = "a" if kind is Kind.AMOUNT else "x"
    cols = [f"{symbol}{i}" for i in range(1, m + 1)]
    if with_signs:
        cols += [f"z{j}{k}" for j, k in _pwo_pairs(m)]
    if with_amount:
        cols.append("A")
    return cols


def _check_components(m: int) -> None:
    """MalformedHeader when the file format cannot hold m components."""
    if m > _MAX_COMPONENTS:
        raise MalformedHeader(f"the file format covers up to {_MAX_COMPONENTS} components")


def write_design(design: Design, decimals: int | None = None) -> str:
    """Serialize a design; deterministic column order, newline-terminated.

    `decimals`, when given, is an integer from 0 to 1000.  Each distinct
    point, sign tuple and amount of the design, and each distinct value
    object, is rendered once per call, a sign tuple by one table of sign
    texts, so a run costs a join; equal values held as one object or as
    many give the same text.  A design with no runs or over 9 components
    is refused (MalformedHeader), as the reader refuses its text, so is
    one whose sign tuples do not hold one sign per pair (InconsistentPwo),
    and a `design` that is not a Design raises InvalidParameter."""
    _require_design(design)
    if decimals is not None:
        decimals = _int_in_range("decimals", decimals, 0, _MAX_DECIMALS)
    _check_components(design.m)
    if not len(design):
        raise MalformedHeader(_NO_ROWS)
    with_signs, with_amount = design.is_expanded, design.has_amounts
    if with_signs:
        _check_sign_counts(design)
    # the design holds every value alive for the call
    value_text = _once_per_object(lambda value: _format_value(value, decimals))
    pieces = [_rendered(design, "point", lambda point: ",".join(map(value_text, point.values)))]
    if with_signs:
        pieces.append(_rendered(design, "pwo", _sign_text))
    if with_amount:
        pieces.append(_rendered(design, "amount", value_text))
    header = ",".join(_columns(design.kind, design.m, with_signs, with_amount))
    return "\n".join([header, *map(",".join, zip(*pieces))]) + "\n"


def _rendered(design: Design, field: str, render) -> list[str]:
    """One run field's text per run, `render` called once per distinct object."""
    distinct, slots = design._index[field]
    texts = [render(obj) for obj in distinct]
    return [texts[i] for i in slots]


def _sign_text(pwo: tuple[int, ...]) -> str:
    """A sign tuple's cells: each of -1, 0 and 1 by `_SIGN_TEXTS`, and a
    tuple holding any other int, which a design built in code may, by
    ``str``."""
    try:
        return ",".join(map(_SIGN_TEXTS.__getitem__, pwo))
    except KeyError:
        return ",".join(map(str, pwo))


# every header the format admits, keyed by its text: a one-component
# design has no sign columns, and an amount design always carries A
_HEADERS = {
    ",".join(_columns(kind, m, with_signs, with_amount)): (kind, m, with_signs, with_amount)
    for kind, m, with_signs, with_amount in product(Kind, range(1, _MAX_COMPONENTS + 1), (False, True), (False, True))
    if (m > 1 or not with_signs) and (with_amount or kind is Kind.PROPORTION)
}


def _parse_header(line: str) -> tuple[Kind, int, bool, bool]:
    """The (kind, m, with_signs, with_amount) whose `_columns` is the header."""
    shape = _HEADERS.get(",".join(t.strip() for t in line.split(",")))
    if shape is None:
        raise MalformedHeader(
            f"header {line.strip()!r} is not x1..xm or a1..am, then z12.. in pair "
            f"order for an expanded design, then A (always present for amounts)"
        )
    return shape


def read_design(text: str) -> Design:
    """Parse a design file and check its runs: the one reader of library
    and CLI.

    Rational files reproduce the written design exactly, and every design
    returned passes ``validate_design``, at the cost of the file's distinct
    texts (`_read_index`, ``oofa._check_index``).  The first faulty row in
    file order is named (``oofa._raise_first_fault``): its first fault
    keeps its class, is prefixed ``line N:`` with the row's physical line,
    and is InconsistentPwoRow for a sign-order fault.  On one row the
    checks run in the order width, component cells, sign cells, A cell,
    sign judgement, then ``oofa.validate_run``'s point, A, amount sum, sign
    count and order.  The design is valid at birth (``core.Design._of``).
    A `text` that is not a str raises InvalidParameter.
    """
    if not isinstance(text, str):
        raise InvalidParameter(f"design text must be a str, got {type(text).__name__}")
    lines = text.splitlines()
    rows = list(filter(str.strip, lines))
    if not rows:
        raise MalformedHeader("empty design file")
    kind, m, with_signs, with_amount = _parse_header(rows[0])
    del rows[0]
    if not rows:
        raise MalformedHeader(_NO_ROWS)
    shape = (kind, m, m * (m - 1) // 2 if with_signs else 0, with_amount)
    # one decoding of each distinct cell text per call, shared by the search
    signs = _Signs(_Values())
    try:
        index = _read_index(rows, shape, signs)
        _check_index(index)
    except OamixError:
        _raise_faulty_row(lines, rows, shape, signs)
        raise
    return Design._of(m, kind, index, True)


def _read_index(rows: list[str], shape: tuple, signs: _Signs) -> dict:
    """The design index of `rows`, the rows of a file of `shape` (kind, m,
    pairs, with_amount), read in bulk passes at the cost of the distinct
    texts; the passes raise the format faults of a row in the order width,
    component cells, sign cells, A cell, sign judgement.

    One ``rpartition`` per row splits off the A cell, leaving the row's
    head (the whole row when there is no A column).  Only the distinct
    heads and A texts are parsed: a head is split once, at its first m
    commas, into its point text and its sign text, so rows with the same
    point, sign or A text share one object, and the cells of the distinct
    sign texts are looked up together in `signs` and judged at once."""
    kind, m, pairs, with_amount = shape
    decode = signs.values.__getitem__
    width = m + pairs + with_amount
    heads, commas, a_cells = zip(*map(str.rpartition, rows, repeat(","))) if with_amount else (rows, (), ())
    # a row with no comma holds one value, and an A column makes two at least
    if "" in commas:
        raise RowLengthMismatch(f"expected {width} values, got 1")
    # each distinct head -> its point slot, and its sign text in the same order
    point_of_head = dict.fromkeys(heads)
    sign_texts: list[str] = []
    points: list[DesignPoint] = []
    point_slots: dict[str, int] = {}
    for head in point_of_head:
        got = head.count(",") + 1 + with_amount
        if got != width:
            raise RowLengthMismatch(f"expected {width} values, got {got}")
        # the m component cells, then the sign text
        cells = head.split(",", m)
        sign_text = cells.pop() if pairs else ""
        comp_text = head[: len(head) - len(sign_text) - 1] if pairs else head
        i = point_slots.get(comp_text)
        if i is None:
            points.append(DesignPoint._of(tuple(map(decode, map(str.strip, cells))), kind))
            i = point_slots[comp_text] = len(points) - 1
        point_of_head[head] = i
        sign_texts.append(sign_text)
    texts = dict.fromkeys(sign_texts)
    values = tuple(map(signs.__getitem__, ",".join(texts).split(","))) if pairs else ()
    a_texts = list(map(str.strip, a_cells))
    amount_of_text = dict.fromkeys(a_texts)
    amounts = tuple(map(decode, amount_of_text))
    # the signs are judged after the A cells are read, as on one row
    _as_signs(values)
    # each head's sign slot, and each A text's amount slot
    sign_of_text = dict(zip(texts, range(len(texts))))
    sign_of_head = dict(zip(point_of_head, map(sign_of_text.__getitem__, sign_texts)))
    amount_of_text = dict(zip(amount_of_text, range(len(amounts))))
    # the field of runs that carry no signs or no A
    absent = ((None,), (0,) * len(rows))
    return {
        "point": (tuple(points), tuple(map(point_of_head.__getitem__, heads))),
        "pwo": (tuple(zip(*[iter(values)] * pairs)), tuple(map(sign_of_head.__getitem__, heads))) if pairs else absent,
        "amount": (amounts, tuple(map(amount_of_text.__getitem__, a_texts))) if with_amount else absent,
    }


def _raise_faulty_row(lines: list[str], rows: list[str], shape: tuple, signs: _Signs) -> None:
    """Raise the first fault of the `rows` of the file `lines`, a file of
    `shape` whose rows fail the bulk check, prefixed ``line N:`` with its
    row's physical line number, by ``oofa._raise_first_fault``.  A row's
    keys are its head and its A cell (on an amount file, or one with no A
    column, its whole text), and rows are checked as a file of their
    own."""
    kind, _, _, with_amount = shape
    # the keys: a row's head and A cell, or its whole text
    keys = list(zip(*map(str.rpartition, rows, repeat(","))))[::2] if with_amount and kind is Kind.PROPORTION else [rows]

    def check(ats: list[int]) -> None:
        _check_index(_read_index([rows[at] for at in ats], shape, signs))

    # each row's line: the header is the first line that is not blank
    numbers = list(compress(count(1), map(str.strip, lines)))[1:]
    _raise_first_fault(keys, check, lambda at: f"line {numbers[at]}")


class _Values(dict):
    """Exact values by cell text, each decoded on its first lookup; a text
    that is no value raises MalformedHeader."""

    def __missing__(self, cell: str) -> Fraction:
        try:
            value = self[cell] = Fraction(cell)
        except (ValueError, ZeroDivisionError):
            raise MalformedHeader(f"unreadable value {cell!r}") from None
        return value


class _Signs(dict):
    """Signs by cell text: the canonical cells ``-1``, ``0`` and ``1`` are
    looked up, and any other cell (``+1``, ``1.0``, ``2/2``, ``1/2``, a cell
    with spaces) is decoded by `values` on its first lookup, to an int when
    it is an integer and otherwise to the Fraction ``core._as_signs``
    refuses."""

    def __init__(self, values: _Values):
        super().__init__(_SIGN_CELLS)
        self.values = values

    def __missing__(self, cell: str) -> int | Fraction:
        value = self.values[cell.strip()]
        sign = self[cell] = int(value) if value.denominator == 1 else value
        return sign


_TABLES = ("table1", "table2", "table3", "table5")


def reference_design(name: str) -> Design:
    """Load one of the packaged reference designs: table1, table2, table3,
    or table5 (rational fixtures regenerated by ``oamix demo``).  Any other
    name raises InvalidParameter."""
    if not (isinstance(name, str) and name in _TABLES):
        raise InvalidParameter(f"reference design must be one of {', '.join(_TABLES)}, got {_shown(name)}")
    path = resources.files("oamix").joinpath(f"data/{name}.csv")
    return read_design(path.read_text(encoding="utf-8"))
