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
from .errors import InvalidParameter, MalformedHeader, OamixError, RowLengthMismatch, _int_in_range, _shown, located
from .oofa import _check_index, _check_sign_counts, _pwo_pairs

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
    into the design's index, at the cost of the file's distinct texts.
    The per-row work is bulk passes: one ``rpartition`` per row splits off
    the A cell, leaving the row's head (the whole row when there is no A
    column); ``dict.fromkeys`` takes the distinct heads and A cells in
    the order they first appear; and each row's slots are looked up from
    its head and its A cell.  Only the distinct texts are parsed one by
    one.  A head is split once, at its first m commas: its m component
    cells are the point text and the rest is the sign text, so rows with
    the same point text share one point, rows with the same sign text
    share one sign tuple, and rows whose A cells have the same text share
    one amount; each distinct value is decoded once per file.  The cells
    of the new sign texts are split and mapped to ints together, through
    the table of ``-1``, ``0`` and ``1``; any other cell (``+1``, ``1.0``,
    ``2/2``, ``1/2``, a cell with spaces) is decoded as a value, once per
    distinct cell text.  ``_as_signs`` judges all the new signs at once,
    and judges the vectors one by one only to name a faulty one.

    The first format fault is on the first row of the first faulty
    distinct head or A cell; on one row, a head's width and cells come
    first, then the A cell, then the judgement of the signs.  The one
    check walk of ``validate_design`` (``oofa._check_index``, one check
    per distinct key) then checks the rows before that fault, sliced from
    the slot lists, and the format fault is raised only when those rows
    pass.  An error names the physical line of the first faulty row as
    ``line N: ...``, found from the faulty key only when there is one,
    and keeps its class (sign-order faults are InconsistentPwoRow).  The
    returned design is stored as its index and makes its runs only when
    they are asked for.  It is valid at birth and records it, so
    ``validate_design`` returns at once for it and the walk is not
    repeated.  A `text` that is not a str raises InvalidParameter.
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
    n_pairs = m * (m - 1) // 2 if with_signs else 0
    width = m + n_pairs + (1 if with_amount else 0)
    decode = _Values().__getitem__
    sign_cells: dict[str, int | Fraction] = {}

    def decode_sign(cell: str) -> int | Fraction:
        # an integer cell becomes an int, which `_as_signs` passes unconverted;
        # any other value stays a Fraction for `_as_signs` to refuse
        sign = sign_cells.get(cell)
        if sign is None:
            value = decode(cell.strip())
            sign = sign_cells[cell] = int(value) if value.denominator == 1 else value
        return sign

    # each row's head, and its A cell when the file has an A column
    heads, _, a_cells = zip(*[row.rpartition(",") for row in rows]) if with_amount else (rows, None, None)
    # (row, place on its row, error) of the first fault of each pass: a
    # head's width and cells come first on a row, then its A cell, then
    # the judgement of its signs
    faults = []
    # each distinct head -> its point slot, and its sign text in the same order
    point_of_head = dict.fromkeys(heads)
    sign_texts: list[str] = []
    points: list[DesignPoint] = []
    point_slots: dict[str, int] = {}
    for head in point_of_head:
        try:
            # only the empty head can come from a row with no comma, so
            # its first row is counted
            got = head.count(",") + 1 + with_amount if head else rows[heads.index(head)].count(",") + 1
            if got != width:
                raise RowLengthMismatch(f"expected {width} values, got {got}")
            # the m component cells, then the sign text
            cells = head.split(",", m)
            sign_text = cells.pop() if with_signs else ""
            comp_text = head[: len(head) - len(sign_text) - 1] if with_signs else head
            i = point_slots.get(comp_text)
            if i is None:
                points.append(DesignPoint._of(tuple(map(decode, map(str.strip, cells))), kind))
                i = point_slots[comp_text] = len(points) - 1
        except OamixError as exc:
            faults.append((heads.index(head), 0, exc))
            break
        point_of_head[head] = i
        sign_texts.append(sign_text)
    # the sign texts of the heads read, decoded as one flat tuple of values
    if with_signs:
        texts = list(dict.fromkeys(sign_texts))
        cells = ",".join(texts).split(",") if texts else []
        # canonical cells go through the table; any other cell is decoded
        try:
            values = tuple(map(_SIGN_CELLS.__getitem__, cells))
        except KeyError:
            values = list(map(_SIGN_CELLS.get, cells))
            for at in [at for at, value in enumerate(values) if value is None]:
                try:
                    values[at] = decode_sign(cells[at])
                except OamixError as exc:
                    faults.append((_first_row(heads, point_of_head, sign_texts, texts[at // n_pairs]), 0, exc))
                    del texts[at // n_pairs :], values[at // n_pairs * n_pairs :]
                    break
            values = tuple(values)
        signs = list(zip(*[iter(values)] * n_pairs))
        # one judgement of every new sign; only a fault judges them one by one
        try:
            _as_signs(values)
        except OamixError:
            for at, vector in enumerate(signs):
                try:
                    _as_signs(vector)
                except OamixError as exc:
                    faults.append((_first_row(heads, point_of_head, sign_texts, texts[at]), 2, exc))
                    del texts[at:], signs[at:]
                    break
        sign_of_text = dict(zip(texts, range(len(texts))))
        sign_of_head = dict(zip(point_of_head, map(sign_of_text.get, sign_texts)))
    else:
        signs = [None]
    amounts: list[Fraction | None] = [] if with_amount else [None]
    if with_amount:
        amount_slots: dict[str, int] = {}
        # each distinct A cell -> its amount slot, keyed by its stripped text
        amount_of_cell = dict.fromkeys(a_cells)
        for cell in amount_of_cell:
            a_text = cell.strip()
            k = amount_slots.get(a_text)
            if k is None:
                try:
                    amounts.append(decode(a_text))
                except OamixError as exc:
                    faults.append((a_cells.index(cell), 1, exc))
                    break
                k = amount_slots[a_text] = len(amounts) - 1
            amount_of_cell[cell] = k
    # the first format fault, and the n rows before it
    n, _, fault = min(faults, key=lambda fault: fault[:2]) if faults else (len(rows), 0, None)
    heads = heads[:n]
    index = {
        "point": (tuple(points), tuple(map(point_of_head.__getitem__, heads))),
        "pwo": (tuple(signs), tuple(map(sign_of_head.__getitem__, heads)) if with_signs else (0,) * n),
        "amount": (tuple(amounts), tuple(map(amount_of_cell.__getitem__, a_cells[:n])) if with_amount else (0,) * n),
    }

    def where(run: int) -> str:
        # run n is on the (n + 2)th line that is not blank
        return f"line {_line_number(lines, run + 2)}"

    # the rows before a format fault are checked first, so the first
    # faulty line is the one named
    _check_index(index, where)
    if fault is not None:
        raise located(where(n), fault) from fault
    return Design._of(m, kind, index, True)


class _Values(dict):
    """Exact values by cell text, each decoded on its first lookup; a text
    that is no value raises MalformedHeader."""

    def __missing__(self, cell: str) -> Fraction:
        try:
            value = self[cell] = Fraction(cell)
        except (ValueError, ZeroDivisionError):
            raise MalformedHeader(f"unreadable value {cell!r}") from None
        return value


def _first_row(heads, point_of_head: dict, sign_texts: list[str], text: str) -> int:
    """The first row whose head has the sign text `text`; `sign_texts`
    holds the sign text of each head of `point_of_head` read, in order."""
    return heads.index(list(point_of_head)[sign_texts.index(text)])


def _line_number(lines: list[str], count: int) -> int:
    """The 1-based number of the `count`-th line of `lines` that is not blank."""
    for number, line in enumerate(lines, start=1):
        if line.strip():
            count -= 1
            if not count:
                return number
    raise AssertionError("fewer lines than counted")


_TABLES = ("table1", "table2", "table3", "table5")


def reference_design(name: str) -> Design:
    """Load one of the packaged reference designs: table1, table2, table3,
    or table5 (rational fixtures regenerated by ``oamix demo``).  Any other
    name raises InvalidParameter."""
    if not (isinstance(name, str) and name in _TABLES):
        raise InvalidParameter(f"reference design must be one of {', '.join(_TABLES)}, got {_shown(name)}")
    path = resources.files("oamix").joinpath(f"data/{name}.csv")
    return read_design(path.read_text(encoding="utf-8"))
