"""Every documented command line parses.

README.md, DESIGN.md and the ``repro.cli`` docstring show commands a
reader will paste into a shell.  This module collects every line that
starts (after optional ``VAR=value`` environment assignments) with
``repro`` or ``python -m repro.cli`` (joining ``\\`` continuations)
and runs its arguments through the real parser, so a renamed flag or a
wrong positional fails here rather than in a reader's terminal.
"""

import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Flags that selected kernels and gain batches.  The code decides
#: those now, so no document may offer them.
REMOVED_FLAGS = ("--step-kernel", "--reach-kernel", "--gain-batch")

_ENV = r"(?:[A-Z_][A-Z0-9_]*=\S*\s+)*"
_PROGRAM = r"(?:repro|python -m repro\.cli)\s+"
_COMMAND = re.compile(rf"^{_ENV}{_PROGRAM}(.*)$")


def _documents() -> dict[str, str]:
    return {
        "README.md": (ROOT / "README.md").read_text(),
        "DESIGN.md": (ROOT / "DESIGN.md").read_text(),
        "repro.cli": repro.cli.__doc__,
    }


def _commands(text: str) -> list[str]:
    """The argument string of each command in ``text``, in order."""
    lines = text.splitlines()
    found = []
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        while line.endswith("\\") and index + 1 < len(lines):
            index += 1
            line = line[:-1] + " " + lines[index].strip()
        index += 1
        match = _COMMAND.match(line)
        if match:
            found.append(match.group(1))
    return found


def _documented() -> list:
    """One case per documented command, named by its document and its
    arguments (comments and spacing dropped; a repeat of the same
    command gets ``#2``, ``#3``...), so editing a document elsewhere
    renames no case."""
    params = []
    for name, text in _documents().items():
        seen: dict[str, int] = {}
        for args in _commands(text):
            command = " ".join(shlex.split(args, comments=True))
            seen[command] = seen.get(command, 0) + 1
            suffix = f" #{seen[command]}" if seen[command] > 1 else ""
            params.append(pytest.param(args, id=f"{name}: {command}{suffix}"))
    return params


DOCUMENTED = _documented()


@pytest.mark.parametrize("args", DOCUMENTED)
def test_documented_command_parses(args):
    argv = shlex.split(args, comments=True)
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"documented command does not parse: {args!r}")


def test_commands_are_found():
    """Guards the extraction itself: the README and the CLI docstring
    both show runnable commands."""
    sources = {param.id.split(":")[0] for param in DOCUMENTED}
    assert {"README.md", "repro.cli"} <= sources


def test_removed_flags_stay_out_of_the_docs():
    for name, text in _documents().items():
        for flag in REMOVED_FLAGS:
            assert flag not in text, f"{name} still documents {flag}"
