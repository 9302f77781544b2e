"""Print the code lines of each module of src/oamix and their total.

A code line is a line that holds a token other than a comment or a
docstring; blank lines, comment lines and the lines of a docstring are
not counted.  A docstring is a string that is a statement by itself (a
module, class or function docstring, or any other bare string).  A token
that spans lines (a multi-line string in an expression) holds each of
them.  Run from the root of a checkout:

    python tools/code_lines.py
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "oamix"

# tokens that hold no code, besides NEWLINE, which ends a statement
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of Python source `text` that hold code."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type not in _LAYOUT]
    lines: set[int] = set()
    for at, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string alone on its logical line is a docstring
        alone = (at == 0 or tokens[at - 1].type == tokenize.NEWLINE) and tokens[at + 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and alone:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16}{count:>6}")
    print(f"{'total':<16}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
