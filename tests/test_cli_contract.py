"""The CLI contract, over every subcommand and option of ``COMMANDS``.

Clean exits, as one property: every option gets a value drawn from: finite,
NaN or infinite, huge, negative, empty, ``p/q``, and, for a range, reversed
and malformed forms.  Each value is passed in the ``--option=value`` form,
so a negative one is read as a value.  A run either exits 0 and writes no
NaN or infinite cell, or exits 1 or 2 with one message line on stderr and
no traceback; a report that completes its scans exits 2 on failed checks
and prints its verdict on stdout instead.

Flag effect: a non-default value of any option changes the output bytes or
is rejected with exit 1.  The README's options table lists exactly the
options the parser accepts.
"""

import argparse
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplaq.cli_io import COMMANDS, KNOWN_SIGNALS, build_parser, main

#: Values no option accepts as finite and in range.
_BAD = st.sampled_from(["nan", "inf", "-inf", "1e300", "1e18", "-1.5", "", "1/3"])


def _scalar(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), _BAD)


def _range(lo, hi, width, steps):
    finite = st.tuples(st.floats(lo, hi), st.floats(*width), st.integers(*steps))
    return st.one_of(
        finite.map(lambda r: f"{r[0]!r}:{r[0] + r[1]!r}:{r[2]}"),
        finite.map(lambda r: f"{r[0] + r[1]!r}:{r[0]!r}:{r[2]}"),          # reversed
        st.sampled_from(["0:1", "0:1:2:3", "a:b:c", "0:1:x", "0:1:2.5", ":", "",  # malformed
                         "nan:1:3", "0:inf:3", "0:1e300:3", "0:1:100000000",
                         "-1:2:3", "1/3:2:3", "0:1/3:3"]))


_VALUES = {
    "--t-range": _range(0.0, 3.0, (0.5, 4.0), (2, 6)),
    "--j-range": _range(-2.0, 2.0, (0.1, 2.0), (2, 5)),
    "--d": _scalar(0.25, 4.0),
    "--geometry": st.sampled_from(["default", "swapped-control", "/no/such/geometry.txt", ""]),
    "--format": st.sampled_from(["csv", "json", "xml", ""]),
    "--j": _scalar(-3.0, 3.0),
    "--signals": st.one_of(
        st.lists(st.sampled_from(KNOWN_SIGNALS), max_size=3).map(",".join),
        st.sampled_from(["c12,gap", "XYZ", ","])),
    "--max-m": st.one_of(st.integers(-2, 12).map(str), _BAD),
    "--resolution": st.one_of(st.integers(-1, 130).map(str), _BAD),
    "--j-values": st.lists(_scalar(-3.0, 3.0), min_size=1, max_size=3).map(",".join),
    "--t-max": _scalar(0.0, 30.0),
}

#: Every option each subcommand accepts, besides --out and --config.
_OPTIONS = {name: (*command.shared, *command.own) for name, command in COMMANDS.items()}

#: A number the output spells as not finite: CSV's nan and inf, JSON's NaN and Infinity.
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option in _OPTIONS[command]:
        if draw(st.booleans()):
            argv.append(f"{option}={draw(_VALUES[option])}")
    return argv


@settings(max_examples=60, deadline=None)
@given(_argv())
def test_every_command_exits_cleanly_or_writes_finite_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main([*argv, "--out", str(out)])
        written = out.read_text() if out.exists() else ""
    stdout, stderr = stdout.getvalue(), stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in stderr
    if code == 0:
        assert stderr == ""
        assert stdout.startswith(f"wrote {out}") and stdout.count("\n") == 1
        assert not _NOT_FINITE.search(stdout) and not _NOT_FINITE.search(written)
        return
    assert code in (1, 2)
    if argv[0] == "report" and stdout.endswith("failed checks)\n"):
        # the scans ran: the verdict goes to stdout, the document holds it
        assert code == 2 and stderr == "" and stdout.count("\n") == 1
        return
    assert stderr.count("\n") == 1 and stderr.endswith("\n")
    assert stderr.startswith(("error: ", "numerical-health error: "))


#: A small run of each subcommand at which every one of its options matters.
_BASE = {
    "evolve": ("--t-range", "0:1:3"),
    "surface": ("--t-range", "0:1:2", "--j-range", "0:1:2", "--signals", "C12"),
    "table1": ("--max-m", "1"),
    "events": ("--t-range", "0:20:2", "--j-range", "0:2:2"),
    "forbidden": ("--j-values", "0.3"),
    "wstate": ("--t-range", "0:4:2", "--j-range", "0:2:2"),
    "report": ("--t-range", "0:3.14:5", "--j-range", "0:2:3"),
}

#: The changed value of each option; a range changes only its N.
_CHANGED = {
    "--t-range": {"evolve": "0:1:4", "surface": "0:1:3", "events": "0:20:3",
                  "wstate": "0:4:3", "report": "0:3.14:6"},
    "--j-range": {"surface": "0:1:3", "events": "0:2:3", "wstate": "0:2:3",
                  "report": "0:2:4"},
    "--d": "2", "--geometry": "swapped-control", "--format": "json", "--j": "0.7",
    "--signals": "C34", "--max-m": "2", "--resolution": "65", "--j-values": "0.5",
    "--t-max": "7",
}

_IGNORES_N = pytest.mark.xfail(
    strict=True, reason="events and wstate read only A:B of a range (ROADMAP item 4)")


def _flag_cases():
    for command, options in _OPTIONS.items():
        for option in options:
            ignored = command in ("events", "wstate") and option.endswith("-range")
            yield pytest.param(command, option, id=f"{command}{option}",
                               marks=[_IGNORES_N] if ignored else [])


def _output(argv, out):
    """The exit code and output bytes of one run; the same ``out`` path for
    both runs of a pair, since the report echoes it."""
    out.unlink(missing_ok=True)
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("command, option", _flag_cases())
def test_every_option_changes_the_output_or_is_rejected(command, option, tmp_path, capsys):
    value = _CHANGED[option]
    value = value[command] if isinstance(value, dict) else value
    base = [command, *_BASE[command]]
    changed = [*base, f"{option}={value}"]
    out = tmp_path / "out"
    base_code, base_bytes = _output(base, out)
    assert base_code in (0, 2) and base_bytes, capsys.readouterr().err
    code, changed_bytes = _output(changed, out)
    assert code == 1 or changed_bytes != base_bytes, changed


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_options() -> dict:
    """``command -> options`` from the README's "Command line" table."""
    section = _README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)`", section, re.MULTILINE)
    return {command: sorted(options.split()) for command, options in rows}


def test_readme_options_table_matches_the_parser():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    accepted = {name: sorted(option for action in parser._actions
                             for option in action.option_strings
                             if option not in ("-h", "--help", "--config", "--out"))
                for name, parser in commands.items()}
    assert _readme_options() == accepted
