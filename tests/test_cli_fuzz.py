"""Any argument vector: ``cli.run`` exits 0 or 1, never with a traceback,
and an exit 1 comes with one ``error: `` line.

Argument vectors are drawn from the parser's own subcommands, positionals
and flags, so the test follows the parser as it grows.  Values come from
fixed classes: small, zero and negative integers, empty text, non-ASCII
and underscored digits, ranges and lists, and a few valid and broken
forest and trace texts; stdin holds one drawn text.  ``verify all`` is left
out, ``--kc`` is at most 3, and ``enumerate`` and ``verify recurrence``
take ``--budget 10000`` unless the draw gives one, so each run is cheap.
"""

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from forestcodec import cli

INTS = ("0", "-1", "-3", "1", "2", "3", "4", "5")
ODD = ("", "٣", "1_0", "+1", "x", "2..1", "2,3", ",", "1..3", "n=2..3")
TEXTS = (
    "5 1 0 1 1 3 3",
    "3 2 0 0 1",
    "3 1 0 3 2",
    "3 1 0 1 1\n0 1 2",
    "4 1 0 1 2 1\n0 1 3 2",
    "1(2,3(5,4))",
    "1(2(4),3)",
    "1(3);2",
    "1(*,2)",
    "1(2(",
    "plain 5 : 1 5 1",
    "plane 5 : 2 7 1",
    "plain 5 : 9 1 1",
    "colored 3 : 1 2",
    "plain ５ : 3 1 1",
)
# An int flag mostly takes an integer, so that most draws reach the command.
INT_VALUES = st.sampled_from(INTS * 4 + ODD)
SMALL_KC = st.sampled_from([v for v in INTS * 4 + ODD if not (v.isdigit() and int(v) > 3)])
TEXT_VALUES = st.sampled_from(TEXTS + ODD + INTS)


def _commands() -> dict:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


COMMANDS = _commands()


def _values(command: str, action: argparse.Action):
    if action.choices:
        return st.sampled_from(
            [c for c in action.choices if (command, c) != ("verify", "all")]
        )
    if action.dest == "formula":
        return st.sampled_from(sorted(cli._FORMULAS)) | TEXT_VALUES
    if action.dest == "kc":
        return SMALL_KC
    return INT_VALUES if action.type is int else TEXT_VALUES


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [
        a for a in COMMANDS[command]._actions if not isinstance(a, argparse._HelpAction)
    ]
    argv = [command]
    for action in actions:
        if not action.option_strings and (action.nargs != "?" or draw(st.booleans())):
            argv.append(draw(_values(command, action)))
    flags = [a for a in actions if a.option_strings]
    # A required flag is left out one time in four.
    drawn = {a for a in flags if a.required and draw(st.integers(0, 3))}
    drawn.update(draw(st.lists(st.sampled_from(flags), max_size=4)))
    for action in sorted(drawn, key=flags.index):
        argv.append(draw(st.sampled_from(action.option_strings)))
        if action.nargs != 0:
            argv.append(draw(_values(command, action)))
    if command in ("enumerate", "verify") and "--budget" not in argv:
        argv += ["--budget", "10000"]
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(argvs(), st.sampled_from(TEXTS + ("",)))
def test_run_exits_0_or_1_with_one_error_line(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    assert code in (0, 1), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        errors = [line for line in err.getvalue().splitlines() if "error: " in line]
        assert len(errors) == 1, (argv, err.getvalue())
