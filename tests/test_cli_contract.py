"""The CLI contract as one property, over all seven subcommands.

Every option gets a value drawn from: finite, NaN or infinite, huge,
negative, empty, ``p/q``, and, for a range, reversed and malformed forms.
Each value is passed in the ``--option=value`` form, so a negative one is
read as a value.  A run either exits 0 and writes no NaN or infinite cell,
or exits 1 or 2 with one message line on stderr and no traceback; a
report that completes its scans exits 2 on failed checks and prints its
verdict on stdout instead.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from triplaq.cli_io import COMMAND_OPTIONS, KNOWN_SIGNALS, main

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

_OWN_OPTIONS = {"evolve": ("--j",), "surface": ("--signals",), "table1": ("--max-m",),
                "events": ("--resolution",), "forbidden": ("--j-values", "--t-max"),
                "wstate": (), "report": ()}

#: A number the output spells as not finite: CSV's nan and inf, JSON's NaN and Infinity.
_NOT_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OWN_OPTIONS)))
    argv = [command]
    for option in (*COMMAND_OPTIONS[command], *_OWN_OPTIONS[command]):
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
