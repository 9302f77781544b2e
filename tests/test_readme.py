"""The README's Python examples run, and state true values.

The Python blocks from the README's ``## Library`` section on are run in
order in one namespace, and each value a block states in a trailing
comment (``# 31 runs, 5 levels``) is checked against what the code gives,
at the digits the comment shows.  The shell blocks are run by CI; here
each ``oamix`` command in them is parsed, and every flag the prose names
must be an option of some subcommand.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from oamix.cli import build_parser

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


def _sh_commands() -> list[str]:
    """Each `oamix` command of the README's sh blocks: continuation lines
    joined, comments dropped and pipelines split at ``|``."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            stages = (stage.strip() for stage in line.partition("#")[0].split("|"))
            commands += [stage for stage in stages if stage.split(" ")[0] == "oamix"]
    return commands


def _prose_flags() -> set[str]:
    """The ``--flag`` words in the README's backticked prose spans, outside
    its fenced blocks."""
    prose = re.sub(r"^```.*?^```$", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    return {flag for span in spans for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}


def _options() -> dict[str, set[str]]:
    """Each subcommand's option strings, the top-level options under ''."""
    parser = build_parser()
    (sub,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    options = {name: set(command._option_string_actions) for name, command in sub.choices.items()}
    return {"": set(parser._option_string_actions), **options}


def test_the_readme_commands_parse_and_name_existing_flags():
    parser = build_parser()
    options = _options()
    commands = _sh_commands()
    assert len(commands) >= 10
    for command in commands:
        argv = shlex.split(command)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README command {command!r} does not parse")
        # spelled out in full, not as an abbreviation argparse would take
        assert {arg.partition("=")[0] for arg in argv if arg.startswith("--")} <= options[argv[0]], command
    flags = _prose_flags()
    assert {"--input", "--format", "--coding", "--amounts", "--signs", "--alpha"} <= flags
    assert flags <= set().union(*options.values())
