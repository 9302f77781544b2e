"""A fixed set of corrupted design files and the reader's answer to each.

`corruptions(text)` derives, from one valid design file, files with cells
replaced, removed, inserted and negated, with blank lines added, with a
row's head (its cells up to A) copied onto another row, and with one
format fault and one validity fault on different lines in both orders.
`outcome(text)` is the reader's answer to a file: the error class and its
full message, or ``ok`` with the sha256 of the design written back.

``reader_faults.json`` holds the outcome of every corruption of the four
files of `FILES`, recorded with the reader of commit 951bbf1; the tests in
test_io.py hold the reader to it.  To record it again, run from the root of
a checkout:

    PYTHONPATH=src python tests/reader_faults.py > tests/reader_faults.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from importlib import resources

from oamix import (
    OamixError,
    cross_amounts,
    oofa_expand,
    project_columns,
    read_design,
    scale_amounts,
    simplex_centroid,
    simplex_lattice,
    write_design,
)

FILES = ("m6_crossed", "m6_scaled", "table3", "table5")


def design_text(name: str) -> str:
    """The valid file `name` of `FILES`: the m = 6 crossed and scaled
    designs as written, or a packaged reference table."""
    if name == "m6_crossed":
        levels = (Fraction(1, 2), Fraction(5, 4), Fraction(2))
        return write_design(cross_amounts(oofa_expand(simplex_lattice(6, 4)), levels))
    if name == "m6_scaled":
        return write_design(scale_amounts(oofa_expand(project_columns(simplex_centroid(6), {6})), 500))
    return resources.files("oamix").joinpath(f"data/{name}.csv").read_text(encoding="utf-8")


def outcome(text: str) -> list[str]:
    """[error class, message] of `read_design`, or ["ok", digest]."""
    try:
        design = read_design(text)
    except OamixError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", hashlib.sha256(write_design(design).encode()).hexdigest()]


def corruptions(text: str):
    """(name, corrupted text) pairs of a valid file, in a fixed order."""
    lines = text.splitlines()
    header = lines[0].split(",")
    m = sum(1 for col in header if col[0] in "xa")
    signs = range(m, m + sum(1 for col in header if col[0] == "z"))
    has_a = header[-1] == "A"
    n = len(lines) - 1
    # rows by 0-based index into `lines`: the first, one at 40 %, one at
    # 75 % (a later amount level of a crossed file, whose head an earlier
    # row holds) and the last
    rows = {"first": 1, "mid": 1 + (2 * n) // 5, "late": 1 + (3 * n) // 4, "last": n}

    def edit(at: int, change) -> list[str]:
        out = list(lines)
        cells = out[at].split(",")
        change(cells)
        out[at] = ",".join(cells)
        return out

    def first(cells, want, within) -> int:
        return next((i for i in within if want(cells[i])), within[0])

    def joined(out: list[str]) -> str:
        return "\n".join(out) + "\n"

    for where, at in rows.items():
        cells = lines[at].split(",")
        comp = first(cells, lambda c: c != "0", range(m))

        def put(i, value):
            return lambda cs: cs.__setitem__(i, value)

        edits = {
            "replace_comp_unreadable": put(comp, "zero"),
            "replace_comp_value": put(comp, "1/7"),
            "negate_comp": put(comp, "-" + cells[comp]),
            "remove_first_cell": lambda cs: cs.pop(0),
            "insert_cell": lambda cs: cs.insert(1, "0"),
            "append_cell": lambda cs: cs.append("1"),
        }
        if signs:
            nonzero = first(cells, lambda c: c != "0", signs)
            zero = first(cells, lambda c: c == "0", signs)
            edits.update(
                {
                    "replace_sign_2": put(nonzero, "2"),
                    "replace_sign_half": put(nonzero, "1/2"),
                    "replace_sign_unreadable": put(nonzero, "one"),
                    "zero_active_sign": put(nonzero, "0"),
                    "set_masked_sign": put(zero, "1"),
                    "negate_sign": put(nonzero, str(-int(cells[nonzero]))),
                    "remove_last_sign": lambda cs: cs.pop(signs[-1]),
                }
            )
        if has_a:
            edits.update(
                {
                    "replace_a_unreadable": put(-1, "x"),
                    "replace_a_value": put(-1, "7/3"),
                    "negate_a": put(-1, "-" + cells[-1]),
                    "remove_a": lambda cs: cs.pop(),
                }
            )
        for what, change in edits.items():
            yield f"{what}@{where}", joined(edit(at, change))
            # blank lines before the row move it down the file
            yield f"{what}@{where}+blanks", joined(lines[:1] + ["", "  "] + lines[1:at] + [""] + edit(at, change)[at:])

    yield "blank_lines_only", joined(lines[:1] + [""] + lines[1:3] + ["", ""] + lines[3:] + [""])
    # a row's head (its cells up to A) copied onto another row, each way
    for src, dst in (("first", "late"), ("late", "first"), ("mid", "last"), ("last", "mid")):
        out = list(lines)
        a = lines[rows[dst]].rpartition(",")[2] if has_a else None
        head = lines[rows[src]].rpartition(",")[0] if has_a else lines[rows[src]]
        out[rows[dst]] = head + ("," + a if has_a else "")
        yield f"copy_head_{src}_to_{dst}", joined(out)
    # one format fault and one validity fault, on different lines, each
    # first in turn
    for early, late in (("first", "late"), ("mid", "last")):
        for fmt_first in (True, False):
            out = list(lines)
            fmt_at, bad_at = (rows[early], rows[late]) if fmt_first else (rows[late], rows[early])
            out[fmt_at] = out[fmt_at] + ",0"
            cells = out[bad_at].split(",")
            comp = first(cells, lambda c: c != "0", range(m))
            cells[comp] = "-" + cells[comp]
            out[bad_at] = ",".join(cells)
            order = "format_then_validity" if fmt_first else "validity_then_format"
            yield f"{order}_{early}_{late}", joined(out)


def record() -> dict[str, dict[str, list[str]]]:
    """The outcome of every corruption of every file of `FILES`."""
    return {name: {what: outcome(bad) for what, bad in corruptions(design_text(name))} for name in FILES}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
