"""tools/code_lines.py: the code lines of each src/oamix module."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 8 code lines: the import, the def, the two lines of the assigned string,
# the two lines of the return, the class and its attribute
SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""
    text = """a string
that spans lines"""
    return (x +
            1)


class C:
    "A class docstring."

    y = 2
'''


def test_a_file_of_known_content_has_its_code_lines_counted(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.code_lines(path.read_text(encoding="utf-8")) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    assert code_lines.code_lines('x = 1; "not a docstring"\n') == 1


def test_the_tool_prints_each_module_and_their_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True).stdout
    counts = dict(line.split() for line in out.splitlines())
    total = int(counts.pop("total"))
    modules = sorted(code_lines.SOURCE.glob("*.py"))
    assert list(counts) == [path.name for path in modules]
    assert [int(count) for count in counts.values()] == [code_lines.code_lines(path.read_text(encoding="utf-8")) for path in modules]
    assert total == sum(map(int, counts.values()))
