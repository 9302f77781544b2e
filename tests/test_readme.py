"""The README's Python examples run, and state true values.

The Python blocks from the README's ``## Library`` section on are run in
order in one namespace, and each value a block states in a trailing
comment (``# 31 runs, 5 levels``) is checked against what the code gives,
at the digits the comment shows.  The shell blocks are run by CI.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# each comment that states a value, in README order, and the text the
# namespace of the run blocks gives for it
STATED = {
    "31 runs, 5 levels": lambda ns: f"{len(ns['design'])} runs, {len(ns['design'].amount_levels)} levels",
    "0.9596, 53.8": lambda ns: f"{ns['report'].max_pv:.4f}, {ns['report'].g_efficiency_pct:.1f}",
}


def _library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text[text.index("\n## Library\n") :], flags=re.M | re.S)


def test_the_library_examples_run_and_state_true_values(capsys):
    blocks = _library_blocks()
    assert blocks
    # a trailing comment after code on a line states a value
    stated = [m.group(1) for block in blocks for m in re.finditer(r"^[^#\n]*\S\s+#\s*(.+?)\s*$", block, flags=re.M)]
    assert stated == list(STATED)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    for comment, got in STATED.items():
        assert got(namespace) == comment
