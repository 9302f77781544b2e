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
are display artifacts.  `write_design` renders each distinct value
object of a design once per call and joins the pieces of each run.
`read_design`, the one reader the library and the CLI share, keys each
row by its point text and its sign text and parses each distinct text
once, as exact decimal fractions, into the design's index; it checks no
run itself, but runs the one check walk of ``validate_design`` over that
index, so a file is accepted only when every run passes
``oofa.validate_run``.  So it rejects a display file of thirds rounded
to 0.33 (proportions no longer summing to 1) and an amount row whose
rounded A differs from the sum of its rounded amounts.  The design
it returns records that walk, so ``validate_design`` of it costs nothing.

Pair labels use single digits, so the format covers up to 9 components.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import resources
from itertools import product

from .core import Design, DesignPoint, Kind, _as_signs, _require_design
from .errors import InvalidParameter, MalformedHeader, OamixError, RowLengthMismatch, _int_in_range, located
from .oofa import _check_index, _check_sign_counts, pwo_pairs

__all__ = ["write_design", "read_design", "format_value", "reference_design"]


def format_value(value: Fraction, decimals: int | None) -> str:
    """Render one exact value: rational text, or half-up rounded decimals.

    `decimals`, when given, is an integer from 0 to 1000."""
    if decimals is not None:
        decimals = _int_in_range("decimals", decimals, 0, _MAX_DECIMALS)
    return _format_value(value, decimals)


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
# pair labels use single digits
_MAX_COMPONENTS = 9
# far below the digits Python converts between int and str by default (4300)
_MAX_DECIMALS = 1000


def _columns(kind: Kind, m: int, with_signs: bool, with_amount: bool) -> list[str]:
    """The header of a design file: the one statement of its grammar."""
    symbol = "a" if kind is Kind.AMOUNT else "x"
    cols = [f"{symbol}{i}" for i in range(1, m + 1)]
    if with_signs:
        cols += [f"z{j}{k}" for j, k in pwo_pairs(m)]
    if with_amount:
        cols.append("A")
    return cols


def _check_components(m: int) -> None:
    """MalformedHeader when the file format cannot hold m components."""
    if m > _MAX_COMPONENTS:
        raise MalformedHeader(f"the file format covers up to {_MAX_COMPONENTS} components")


def write_design(design: Design, decimals: int | None = None) -> str:
    """Serialize a design; deterministic column order, newline-terminated.

    `decimals`, when given, is an integer from 0 to 1000, checked once per
    call.  Each distinct point, sign tuple and amount of the design is
    rendered once, so a run costs a join, not a formatting of every cell.
    A point is the join of its values' texts, and each distinct value
    object is formatted once per call, keyed by its id (the design holds
    every value alive while the call runs, so no id is reused).  Equal
    values held as one object or as many give the same text.  A design
    with no runs is refused, as the reader refuses its text, so is one
    whose sign tuples do not hold one sign per pair (InconsistentPwo), and
    a `design` that is not a Design raises InvalidParameter."""
    _require_design(design)
    if decimals is not None:
        decimals = _int_in_range("decimals", decimals, 0, _MAX_DECIMALS)
    _check_components(design.m)
    if not len(design):
        raise MalformedHeader(_NO_ROWS)
    with_signs, with_amount = design.is_expanded, design.has_amounts
    if with_signs:
        _check_sign_counts(design)
    # each distinct value object's text, by id: the design holds every
    # value alive for the call, so no id is reused while the dict lives
    texts: dict[int, str] = {}

    def value_text(value: Fraction) -> str:
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = _format_value(value, decimals)
        return text

    pieces = [_rendered(design, "point", lambda point: ",".join(map(value_text, point.values)))]
    if with_signs:
        pieces.append(_rendered(design, "pwo", lambda pwo: ",".join(map(str, pwo))))
    if with_amount:
        pieces.append(_rendered(design, "amount", value_text))
    header = ",".join(_columns(design.kind, design.m, with_signs, with_amount))
    return "\n".join([header, *map(",".join, zip(*pieces))]) + "\n"


def _rendered(design: Design, field: str, render) -> list[str]:
    """One run field's text per run, `render` called once per distinct object."""
    distinct, slots = design._index[field]
    texts = [render(obj) for obj in distinct]
    return [texts[i] for i in slots]


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
    """Parse a design file, then check its runs: the one reader of library
    and CLI.

    Rational files reproduce the written design exactly, and every design
    returned passes ``validate_design``.  The reader parses the format
    (the header, the width of each row, readable values, integer signs)
    into the design's index.  A row whose head (its text up to its last
    comma, or the whole row when there is no A column) repeats an earlier
    row's reuses that row's point and sign slots and costs one lookup of
    its A text.  A new head is split once, at its first m commas: its m
    component cells are the point text and the rest is the sign text, so
    rows with the same point text share one point, rows with the same sign
    text share one sign tuple, and rows whose A cells have the same text
    share one amount; each distinct value is decoded once per file.  The
    cells of a new sign text map to ints through the table of ``-1``,
    ``0`` and ``1``; any other cell (``+1``, ``1.0``, ``2/2``, ``1/2``,
    a cell with spaces) is decoded as a value, once per distinct cell text, and
    ``_as_signs`` judges each new sign vector.  Parsing stops at the first
    format fault.  One walk, that of ``validate_design``, then checks the
    rows before it, so each distinct point, (point, A) pair and (point,
    signs) pair is checked once, and the format fault is raised only when
    those rows pass.  An error names the physical line of the first faulty row as
    ``line N: ...`` and keeps its class (sign-order faults are
    InconsistentPwoRow).  The returned design is stored as its index and
    makes its runs only when they are asked for.  It is valid at birth and
    records it, so ``validate_design`` returns at once for it and the
    walk is not repeated.  A `text` that is not a str raises
    InvalidParameter.
    """
    if not isinstance(text, str):
        raise InvalidParameter(f"design text must be a str, got {type(text).__name__}")
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise MalformedHeader("empty design file")
    kind, m, with_signs, with_amount = _parse_header(lines[0][1])
    if len(lines) == 1:
        raise MalformedHeader(_NO_ROWS)
    n_pairs = len(pwo_pairs(m)) if with_signs else 0
    width = m + n_pairs + (1 if with_amount else 0)
    parsed: dict[str, Fraction] = {}
    sign_cells: dict[str, int | Fraction] = {}

    def decode(cell: str) -> Fraction:
        value = parsed.get(cell)
        if value is None:
            try:
                value = parsed[cell] = Fraction(cell)
            except (ValueError, ZeroDivisionError):
                raise MalformedHeader(f"unreadable value {cell!r}") from None
        return value

    def decode_sign(cell: str) -> int | Fraction:
        # an integer cell becomes an int, which `_as_signs` passes unconverted;
        # any other value stays a Fraction for `_as_signs` to refuse
        sign = sign_cells.get(cell)
        if sign is None:
            value = decode(cell.strip())
            sign = sign_cells[cell] = int(value) if value.denominator == 1 else value
        return sign

    def decode_signs(text: str) -> tuple:
        # canonical cells go through the table; any other cell is decoded
        cells = text.split(",")
        try:
            return tuple(map(_SIGN_CELLS.__getitem__, cells))
        except KeyError:
            return tuple(map(decode_sign, cells))

    # the distinct values by slot, and the texts that key each slot; a
    # file without sign or A columns has one slot of None for them
    points: list[DesignPoint] = []
    point_slots: dict[str, int] = {}
    signs: list[tuple[int, ...] | None] = [] if with_signs else [None]
    sign_slots: dict[str, int] = {}
    amounts: list[Fraction | None] = []
    amount_slots: dict[str, int] = {}
    # each parsed row's head -> its point and sign slots
    heads: dict[str, tuple[int, int]] = {}
    # each row's point, sign and amount slots
    point_of: list[int] = []
    sign_of: list[int] = []
    amount_of: list[int] = []
    fault = None
    for row_no, line in lines[1:]:
        head, _, a_cell = line.rpartition(",") if with_amount else (line, "", "")
        a_text = a_cell.strip()
        known = heads.get(head)
        sign_values = None
        try:
            if known is None:
                got = line.count(",") + 1
                if got != width:
                    raise RowLengthMismatch(f"expected {width} values, got {got}")
                # the m component cells, then the sign text
                cells = head.split(",", m)
                sign_text = cells.pop() if with_signs else ""
                comp_text = head[: len(head) - len(sign_text) - 1] if with_signs else head
                i = point_slots.get(comp_text)
                if i is None:
                    i = point_slots[comp_text] = len(points)
                    points.append(DesignPoint(tuple(decode(c.strip()) for c in cells), kind))
                j = 0
                if with_signs:
                    j = sign_slots.get(sign_text)
                    if j is None:
                        sign_values = decode_signs(sign_text)
            else:
                i, j = known
            k = amount_slots.get(a_text)
            if k is None:
                k = amount_slots[a_text] = len(amounts)
                amounts.append(decode(a_text) if with_amount else None)
            # every cell is read before the signs are judged
            if sign_values is not None:
                j = sign_slots[sign_text] = len(signs)
                signs.append(_as_signs(sign_values))
        except OamixError as exc:
            fault = row_no, exc
            break
        if known is None:
            heads[head] = (i, j)
        point_of.append(i)
        sign_of.append(j)
        amount_of.append(k)
    index = {
        "point": (tuple(points), tuple(point_of)),
        "pwo": (tuple(signs), tuple(sign_of)),
        "amount": (tuple(amounts), tuple(amount_of)),
    }
    # the rows before a format fault are checked first, so the first
    # faulty line is the one named; run n is on line lines[n + 1]
    _check_index(index, lambda n: f"line {lines[n + 1][0]}")
    if fault is not None:
        row_no, exc = fault
        raise located(f"line {row_no}", exc) from exc
    return Design._of(m, kind, index, True)


_TABLES = ("table1", "table2", "table3", "table5")


def reference_design(name: str) -> Design:
    """Load one of the packaged reference designs: table1, table2, table3,
    or table5 (rational fixtures regenerated by ``oamix demo``).  Any other
    name raises InvalidParameter."""
    if not (isinstance(name, str) and name in _TABLES):
        raise InvalidParameter(f"reference design must be one of {', '.join(_TABLES)}, got {name!r}")
    path = resources.files("oamix").joinpath(f"data/{name}.csv")
    return read_design(path.read_text(encoding="utf-8"))
