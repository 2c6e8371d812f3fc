import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import triplaq
from triplaq import cli_io, dynamics, qst_analysis
from triplaq.cli_io import (
    MAX_GRID_POINTS,
    VERIFY_BLOCK,
    SweepConfig,
    build_parser,
    config_from_text,
    main,
    resolve_geometry,
    write_csv,
    write_json,
)
from triplaq.dynamics import (
    TIME_CHUNK,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
    phase_aligned_distance,
)
from triplaq.entanglement import (
    ALL_PAIRS,
    closed_form_c12,
    closed_form_c13,
    closed_form_c34,
    concurrence_gap,
    gap_from_state,
    pair_concurrences,
    state_concurrence,
)
from triplaq.errors import ConfigError
from triplaq.qst_analysis import (
    ForbiddenScanResult,
    SignalPeriod,
    WStateCandidate,
    is_lattice_transfer,
    verify_transfers,
    wstate_scan,
)
from triplaq.spin_core import (
    SINGLE_EXCITATION_INDICES,
    build_hamiltonian,
    build_hamiltonians,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
    norm_error,
    sector_leak,
    single_excitation_block,
    swapped_control_plaquette,
)

FOUR_PI = 4 * np.pi


class TestSweepConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert cfg.t_steps == 129 and cfg.j_steps == 65

    def test_single_step_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(t_steps=1)

    def test_replace_validates(self):
        # the CLI's overrides go through _replace, which must run __new__'s checks
        assert SweepConfig()._replace(t_steps=3).t_steps == 3
        with pytest.raises(ConfigError, match="at least 2"):
            SweepConfig()._replace(t_steps=1)

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(t_min=2.0, t_max=1.0)

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(fmt="xml")

    def test_round_trip_identical(self):
        text = ("t_min = 0.25\nt_max = 7.5\nt_steps = 33\nj_min = 0.1\n"
                "j_max = 1.9\nj_steps = 5\nd = 2.0\ngeometry = 'default'\n"
                "out = 'x.csv'\nfmt = \"json\"\n")
        assert config_from_text(text, "surface") == SweepConfig(
            t_min=0.25, t_max=7.5, t_steps=33, j_min=0.1, j_max=1.9, j_steps=5,
            d=2.0, geometry="default", out="x.csv", fmt="json")
        assert config_from_text("geometry = swapped-control\n", "report") == SweepConfig(
            geometry="swapped-control")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            config_from_text("t_min = 0.0\nbogus = 1\n", "surface")

    def test_comments_allowed(self):
        cfg = config_from_text("# comment\nt_steps = 65\n", "surface")
        assert cfg.t_steps == 65

    @pytest.mark.parametrize("field", ["t_min", "t_max", "j_min", "j_max", "d"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SweepConfig(**{field: value})


#: The options each subcommand reads besides --config and --out; every
#: other shared option is rejected.
READS = {
    "evolve": ("--t-range", "--d", "--geometry", "--format"),
    "surface": ("--t-range", "--j-range", "--d", "--geometry", "--format"),
    "table1": ("--format",),
    "events": ("--t-range", "--j-range", "--format"),
    "forbidden": ("--format",),
    "wstate": ("--t-range", "--j-range", "--format"),
    "report": ("--t-range", "--j-range", "--geometry"),
}
SHARED = ("--t-range", "--j-range", "--d", "--geometry", "--format")
#: Options no subcommand reads any more: the report's W-scan threshold is
#: a constant.
RETIRED = ("--threshold",)
NON_FINITE_FLAGS = [("--t-range", "0:inf:5"), ("--j-range", "0:inf:5"),
                    ("--t-range", "nan:1:5"), ("--d", "inf"), ("--j-range", "nan:1:5")]
UNREAD_VALUES = {"--t-range": "0:inf:5", "--j-range": "0:inf:5", "--d": "inf",
                 "--geometry": "/no/such/geometry.txt", "--threshold": "nan",
                 "--format": "json"}
UNREAD = [(command, option) for command, reads in READS.items()
          for option in SHARED + RETIRED if option not in reads]


@pytest.mark.parametrize("command, flags", [
    pytest.param(command, flags, id=f"flags{k}-{command}")
    for k, flags in enumerate(NON_FINITE_FLAGS)
    for command in ("evolve", "report", "surface", "wstate")
    if flags[0] in READS[command]])
def test_non_finite_input_is_exit_1(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    code = main([command, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "must be finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_unread_options_number_twenty_two():
    assert len(UNREAD) == 22


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{command}{option}") for command, option in UNREAD])
def test_unread_option_is_exit_1(tmp_path, capsys, command, option):
    out = tmp_path / "out"
    code = main([command, option, UNREAD_VALUES[option], "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and option in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", READS)
def test_read_options_parse(command):
    values = {**UNREAD_VALUES, "--t-range": "0:1:3", "--j-range": "0:1:3",
              "--d": "2", "--geometry": "default"}
    argv = [command, "--config", "c.cfg", "--out", "x"]
    for option in READS[command]:
        argv += [option, values[option]]
    assert build_parser().parse_args(argv).command == command


@pytest.mark.parametrize("command, text, key", [
    ("surface", "threshold = 0.5\n", "threshold"),
    ("report", "t_steps = 9\nd = 2.0\n", "d"),
    ("report", "fmt = json\n", "fmt"),
    ("table1", "j_max = 3.0\n", "j_max"),
    ("events", "geometry = swapped-control\n", "geometry"),
    ("wstate", "threshold = 0.5\n", "threshold"),
    ("report", "threshold = 0.5\n", "threshold"),
])
def test_unread_config_key_is_exit_1(tmp_path, capsys, command, text, key):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and repr(key) in err and command in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_read_config_keys_accepted(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("d = 2.0\ngeometry = default\nt_max = 1.0\nt_steps = 3\n"
                        "fmt = json\nout = unused.json\n")
    out = tmp_path / "traj.json"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["D"] == 2.0 and len(payload["rows"]) == 3


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--j", "nan"], "--j"),
    (["evolve", "--j", "inf"], "--j"),
    (["forbidden", "--j-values", "nan"], "--j-values"),
    (["forbidden", "--j-values", "1,abc"], "--j-values"),
    (["forbidden", "--t-max", "inf"], "--t-max"),
    (["forbidden", "--t-max", "nan"], "--t-max"),
    (["forbidden", "--t-max", "1"], "--t-max"),
    (["forbidden", "--j-values", ","], "--j-values"),
    (["events", "--resolution", "10"], "--resolution"),
    (["wstate", "--resolution", "0"], "--resolution"),
    (["forbidden", "--t-max", "1e300"], "--t-max"),
    (["events", "--t-range", "0:1e300:2"], "--t-range"),
    (["events", "--j-range", "0:1e300:2"], "--j-range"),
    (["wstate", "--j-range", "0:1e12:5"], "--j-range"),
    (["surface", "--t-range", "0:1:100000000"], "--t-range"),
    (["evolve", "--t-range", "0:1:100000000"], "--t-range"),
    # phases (|J| + D)*t beyond 2**20
    (["evolve", "--j", "1e200", "--t-range", "0:1:3"], "--j"),
    (["evolve", "--d", "1e200", "--t-range", "0:1:3"], "--d"),
    (["surface", "--geometry", "swapped-control", "--signals", "GAP",
      "--t-range", "0:1:2", "--j-range", "0:1e200:3"], "--j-range"),
    (["evolve", "--j", "1e15", "--t-range", "0:1:3"], "--j"),
    (["evolve", "--j", "1048575", "--t-range", "0:1.000001:3"], "--t-range"),
    (["surface", "--d", "4", "--t-range", "0:262144.1:2", "--j-range", "0:1:2"], "--d"),
    # phases that fit, but Hamiltonians that are not finite or whose
    # Frobenius norm overflows
    (["evolve", "--j", "1e200", "--t-range", "0:1e-300:3"], "--j"),
    (["evolve", "--d", "1e-320", "--t-range", "0:1:3"], "--d"),
    (["surface", "--geometry", "swapped-control", "--signals", "GAP",
      "--t-range", "0:1e-300:2", "--j-range", "0:1e200:3"], "--j-range"),
    # a negative time start
    (["evolve", "--t-range=-1:1:3"], "--t-range"),
    (["surface", "--t-range=-1:1:3"], "--t-range"),
    (["wstate", "--t-range=-1:1:3"], "--t-range"),
    (["report", "--t-range=-1:1:3"], "--t-range"),
    (["events", "--t-range=-1:1:3"], "--t-range"),
    # gap phases (|J| + 3)*t_max beyond 2**20: 1e308 overflows to NaN rows
    (["forbidden", "--j-values", "1e308"], "--j-values"),
    (["forbidden", "--j-values", "0.5,1e17"], "--j-values"),
    (["forbidden", "--j-values", "16687"], "--t-max"),
    (["table1", "--max-m", "100000000"], "--max-m"),
    # per coupling, t_max/pi + 2 phase offsets and two windows of |J|/2 + 4
    # lanes: one more coupling than fits
    (["forbidden", "--t-max", "2e5", "--j-values",
      ",".join(["1"] * int(MAX_GRID_POINTS // (2e5 / np.pi + 11) + 1))], "--j-values"),
])
def test_bad_command_flag_is_exit_1(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and flag in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_overflowing_hamiltonian_report_is_exit_1(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran before the Hamiltonians were checked")

    monkeypatch.setattr(cli_io, "oracle_equivalence_report", no_scan)
    geometry = tmp_path / "geom.txt"
    geometry.write_text("dm_z 1 2 1e200\nheisenberg_iso 1 3 1.0\n")
    out = tmp_path / "report.json"
    assert main(["report", "--geometry", str(geometry), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --geometry") and err.count("\n") == 1
    assert "--geometry" in json.loads(out.read_text())["error"]["message"]


#: Geometry files by name: every bond non-unit, one bond kind only, and a
#: single DM bond, whose Hamiltonians split into blocks finer than the
#: total S^z sectors.
GEOMETRY_FILES = {
    "non-unit": "dm_z 1 2 0.8\ndm_z 2 3 -1.3\ndm_z 3 4 1.1\ndm_z 4 1 0.6\n"
                "heisenberg_iso 1 3 0.7\nheisenberg_iso 2 4 1.9\n"
                "heisenberg_iso 1 2 0.35\n",
    "dm-only": "dm_z 1 2 1\ndm_z 2 3 1\ndm_z 3 4 1\ndm_z 4 1 1\ndm_z 1 3 0.5\n",
    "iso-only": "heisenberg_iso 1 2 1\nheisenberg_iso 2 3 1\nheisenberg_iso 3 4 1\n"
                "heisenberg_iso 4 1 1\nheisenberg_iso 2 4 0.5\n",
    "one-dm-bond": "dm_z 1 2 1\n",
}


def _geometry_arg(tmp_path, name) -> str:
    """The --geometry value for ``name``: a built-in name as it is, a name of
    GEOMETRY_FILES as the path of that file, written under tmp_path."""
    if name not in GEOMETRY_FILES:
        return name
    path = tmp_path / f"{name}.txt"
    path.write_text(GEOMETRY_FILES[name])
    return str(path)


#: The report's small grid for tests that watch how it computes.
SMALL_REPORT_GRID = ["--t-range", f"0:{FOUR_PI}:9", "--j-range", "0:2:5"]


class TestNoPerCouplingLoops:
    """The spectral route diagonalizes stacks of Hamiltonians, not one per J."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for module in (cli_io, dynamics):
            original = module.hermitian_eigendecompose

            def counted(H, original=original):
                calls.append(np.shape(H))
                return original(H)

            monkeypatch.setattr(module, "hermitian_eigendecompose", counted)
        return calls

    def test_surface_decomposes_one_block_stack(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        code = main(["surface", "--geometry", "swapped-control", "--signals", "GAP",
                     "--t-range", f"0:{FOUR_PI}:5", "--j-range", "0:2:401",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        # every J's 4x4 single-excitation block, in one call
        assert calls == [(401, 4, 4)]

    @pytest.mark.parametrize("geometry", ["default", "swapped-control"])
    def test_surface_calls_the_quartic_once_per_row_and_pair(self, tmp_path, monkeypatch,
                                                             geometry):
        calls = []

        def counted(psi, pair):
            calls.append((np.shape(psi), pair))
            return state_concurrence(psi, pair)

        monkeypatch.setattr(cli_io, "state_concurrence", counted)
        assert main(["surface", "--geometry", geometry, "--signals", "C12,C34,C13,C24,GAP",
                     "--t-range", "0:3:6", "--j-range", "0:2:7",
                     "--out", str(tmp_path / "s.csv")]) == 0
        # five Wootters columns, four pairs: the gap reuses C34 and C12
        assert sorted(calls) == sorted([((7, 16), pair) for pair in
                                        ((1, 2), (3, 4), (1, 3), (2, 4))] * 6)

    @pytest.mark.parametrize("geometry", ["default", "swapped-control", "non-unit"])
    def test_report_decomposes_one_stack(self, tmp_path, monkeypatch, geometry):
        calls = self._spy(monkeypatch)
        main(["report", "--geometry", _geometry_arg(tmp_path, geometry), *SMALL_REPORT_GRID,
              "--out", str(tmp_path / "r.json")])
        # the oracle's 8 Hamiltonians at --geometry and the control's 8
        # swapped ones; the conservation check reads the oracle's pass
        assert calls == [(16, 16, 16)]


class TestReportDecomposition:
    """The report's one stack holds two J stacks: the oracle's at --geometry
    and the swapped control's.  The solver sweeps the union of their blocks,
    yet gives each matrix exactly the rotations of its own stack."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.uint8)

    @pytest.mark.parametrize("geometry", ["default", "swapped-control", *GEOMETRY_FILES])
    def test_merged_decomposition_equals_three_calls(self, tmp_path, monkeypatch, geometry):
        seen = []

        def spy(H):
            seen.append((H, hermitian_eigendecompose(H)))
            return seen[-1][1]

        monkeypatch.setattr(cli_io, "hermitian_eigendecompose", spy)
        name = _geometry_arg(tmp_path, geometry)
        main(["report", "--geometry", name, *SMALL_REPORT_GRID,
              "--out", str(tmp_path / "r.json")])
        [(H, (E, V))] = seen
        oracle_j = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
        stacks = (build_hamiltonians(resolve_geometry(name, 0.0), oracle_j),
                  build_hamiltonians(swapped_control_plaquette(0.0), oracle_j))
        assert np.array_equal(H, np.concatenate(stacks))
        lo = 0
        for stack in stacks:
            e, v = hermitian_eigendecompose(stack)
            part = slice(lo, lo + len(stack))
            assert np.array_equal(self._bits(E[part]), self._bits(e))
            assert np.array_equal(self._bits(V[part]), self._bits(v))
            lo += len(stack)


class TestGeometryResolution:
    def test_builtin_names(self):
        assert resolve_geometry("default", 0.5) == default_plaquette(0.5)
        assert resolve_geometry("swapped-control", 0.5) == swapped_control_plaquette(0.5)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_geometry("/no/such/file.txt", 0.5)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "geom.txt"
        path.write_text("dm_z 1 2 1.0\ndm_z 2 3 1.0\ndm_z 3 4 1.0\ndm_z 4 1 1.0\n"
                        "heisenberg_iso 1 3 1.0\nheisenberg_iso 2 4 1.0\n")
        geom = resolve_geometry(str(path), 0.5)
        assert len(geom.bonds) == 6 and geom.J == 0.5

    def test_malformed_file_reports_line_through_cli(self, tmp_path, capsys):
        path = tmp_path / "geom.txt"
        path.write_text("dm_z 1 2 1.0\nbroken record here\n")
        code = main(["evolve", "--geometry", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


def _per_value_csv(header, rows) -> bytes:
    """The CSV bytes with every value formatted on its own."""
    lines = [",".join(header), *(
        ",".join(v if isinstance(v, str) else f"{float(v):.17g}" for v in row)
        for row in rows)]
    return ("\n".join(lines) + "\n").encode()


_NUMBERS = st.one_of(
    st.floats(),                                   # finite, +-inf and nan
    st.floats(allow_subnormal=True, max_value=1e-300, min_value=-1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"),
                     float("nan")]),
    st.floats().map(np.float64),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.booleans(),
)
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126))


@st.composite
def _tables(draw):
    text_columns = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    row = st.tuples(*(_TEXT if is_text else _NUMBERS for is_text in text_columns))
    rows = draw(st.lists(row.map(list), max_size=12))
    return [f"c{k}" for k in range(len(text_columns))], rows


class TestWriteCsv:
    @settings(max_examples=300, deadline=None)
    @given(_tables(), st.booleans())
    @example(table=(["t", "j"], []), as_generator=True)     # header only
    def test_matches_per_value_formatting(self, tmp_path_factory, table, as_generator):
        header, rows = table
        out = tmp_path_factory.getbasetemp() / "table.csv"
        write_csv(str(out), header, (row for row in rows) if as_generator else rows)
        assert out.read_bytes() == _per_value_csv(header, rows)

    def test_str_in_number_column_raises(self, tmp_path):
        out = tmp_path / "bad.csv"
        with pytest.raises(TypeError):
            write_csv(str(out), ["m", "t"], [["1", 0.5], ["2", "0.75"]])
        assert out.read_bytes() == b"m,t\n1,0.5\n"


def _rebuilt_json(payload) -> bytes:
    """The JSON bytes of a payload rebuilt as plain Python values first."""
    def plain(obj):
        if isinstance(obj, Fraction):
            return str(obj)
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return [plain(v) for v in obj]
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        return obj
    return (json.dumps(plain(payload), indent=2, sort_keys=True) + "\n").encode()


_JSON_SCALARS = st.one_of(
    _NUMBERS, _TEXT, st.none(),
    st.fractions(max_denominator=10 ** 6),
    st.floats(width=32).map(np.float32),
    st.integers(-2 ** 62, 2 ** 62).map(np.int64),
    st.booleans().map(np.bool_),
)
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.lists(st.floats(), max_size=6).map(np.array),
        st.lists(st.lists(st.integers(-99, 99), min_size=2, max_size=2),
                 max_size=3).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2)),
    ),
    max_leaves=20)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(payload=st.dictionaries(_TEXT, _JSON_PAYLOADS, max_size=5))
    def test_matches_rebuilt_payload(self, tmp_path_factory, payload):
        out = tmp_path_factory.getbasetemp() / "payload.json"
        write_json(str(out), payload)
        assert out.read_bytes() == _rebuilt_json(payload)

    def test_unknown_type_raises(self, tmp_path):
        with pytest.raises(TypeError, match="complex"):
            write_json(str(tmp_path / "bad.json"), {"z": 1j})

    @pytest.mark.parametrize("argv", [
        ["events"], ["table1"], ["forbidden"], ["wstate"],
        ["evolve", "--t-range", "0:3:65"], ["surface", "--t-range", "0:3:9"],
    ])
    def test_command_payloads_match_rebuilt(self, tmp_path, monkeypatch, argv):
        payloads = []
        monkeypatch.setattr(cli_io, "write_json",
                            lambda path, payload: (payloads.append(payload),
                                                   write_json(path, payload)))
        out = tmp_path / "out.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        (payload,) = payloads
        assert out.read_bytes() == _rebuilt_json(payload)


class TestEvolveCommand:
    @staticmethod
    def _list_rows(J, ts):
        """evolve's rows built as Python lists, one chunk of times at a time."""
        decomp = hermitian_eigendecompose(build_hamiltonian(default_plaquette(J)))
        rows = []
        for lo in range(0, ts.size, TIME_CHUNK):
            t = ts[lo:lo + TIME_CHUNK]
            psi_c = closed_form_state(t, J)
            psi_n = evolve_numeric(decomp, initial_bell_state(), t)
            amps = psi_c[:, SINGLE_EXCITATION_INDICES]
            re, im = amps.real, amps.imag
            rows += np.column_stack([t, np.stack([re, im], axis=-1).reshape(-1, 8),
                                     np.hypot(re, im), norm_error(psi_n),
                                     sector_leak(psi_n),
                                     phase_aligned_distance(psi_n, psi_c)]).tolist()
        return rows

    @pytest.mark.parametrize("steps", [TIME_CHUNK + 1, 1001])
    def test_outputs_match_list_reference(self, tmp_path, steps):
        t_max = 40 * np.pi
        rows = self._list_rows(0.5, np.linspace(0.0, t_max, steps))
        argv = ["evolve", "--j", "0.5", "--t-range", f"0:{t_max!r}:{steps}"]
        out_csv, out_json, ref_json = (tmp_path / name for name in ("e.csv", "e.json", "r.json"))
        assert main([*argv, "--out", str(out_csv)]) == 0
        assert out_csv.read_bytes() == _per_value_csv(cli_io._EVOLVE_HEADER, rows)
        assert main([*argv, "--format", "json", "--out", str(out_json)]) == 0
        write_json(str(ref_json), {"columns": cli_io._EVOLVE_HEADER, "rows": rows,
                                   "J": 0.5, "D": 1.0, "geometry": "default"})
        assert out_json.read_bytes() == ref_json.read_bytes()

    def test_table_memory_at_evolve_long_size(self, tmp_path):
        # 20 001 rows as Python lists peaked at 11.8 MB; the float table is
        # 2.6 MB and the CSV formats one block of it at a time (2.9 MB peak)
        cfg = SweepConfig(t_max=200 * np.pi, t_steps=20001, out=str(tmp_path / "e.csv"))
        tracemalloc.start()
        try:
            cli_io.cmd_evolve(cfg, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000

    def test_csv_schema_and_values(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--j", "0", "--t-range", f"0:{2 * np.pi}:129",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert len(rows[0]) == 16 and rows[0][0] == "t"
        assert len(rows) == 130
        r = rows[1 + 32]  # t = pi/2
        assert float(r[9]) == pytest.approx(0.7071067811865476, abs=1e-12)
        assert float(r[12]) == pytest.approx(0.7071067811865476, abs=1e-12)
        assert float(r[15]) < 1e-9  # numeric deviation
        assert all(float(row[13]) < 1e-10 for row in rows[1:])  # norm error
        assert all(float(row[14]) < 1e-12 for row in rows[1:])  # sector leak

    def test_abs_columns_match_python_abs(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["evolve", "--j", "0.5", "--t-range", f"0:{40 * np.pi}:1001",
              "--out", str(out)])
        rows = list(csv.reader(out.open()))
        for row in rows[1:]:
            amps = [complex(float(row[k]), float(row[k + 1])) for k in range(1, 9, 2)]
            assert row[9:13] == [f"{abs(a):.17g}" for a in amps]

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["evolve", "--j", "0.5", "--out", str(a)])
        main(["evolve", "--j", "0.5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "traj.csv"
        main(["evolve", "--t-range", "0:1:2", "--out", str(out)])
        assert b"\r" not in out.read_bytes()

    def test_invalid_steps_rejected(self, tmp_path):
        code = main(["evolve", "--t-range", "0:1:1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unwritable_path(self):
        assert main(["evolve", "--out", "/no/such/dir/x.csv"]) == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        main(["evolve", "--format", "json", "--t-range", "0:1:3",
              "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "t" and len(payload["rows"]) == 3

    def test_d_is_a_change_of_units(self, tmp_path):
        # H(J, D) = D H(J/D, 1), so psi(t; J, D) = psi(D t; J/D, 1): the
        # amplitude columns of --d 2 --j 1 over [0, T] are those of --j 0.5
        # over [0, 2T], and the rows carry the t given
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        T = 3 * np.pi
        assert main(["evolve", "--d", "2", "--j", "1", "--t-range", f"0:{T!r}:201",
                     "--out", str(a)]) == 0
        assert main(["evolve", "--j", "0.5", "--t-range", f"0:{2 * T!r}:201",
                     "--out", str(b)]) == 0
        rows_a = np.loadtxt(a, delimiter=",", skiprows=1)
        rows_b = np.loadtxt(b, delimiter=",", skiprows=1)
        assert np.array_equal(rows_a[:, 0], np.linspace(0.0, T, 201))
        assert np.abs(rows_a[:, 1:13] - rows_b[:, 1:13]).max() <= 1e-14
        assert rows_a[:, 15].max() < 1e-9   # numeric deviation

    def test_phase_limit_is_inclusive(self, tmp_path):
        out = tmp_path / "traj.csv"
        # (|J| + D) * t_max = 2**20 exactly
        assert main(["evolve", "--j", "1048575", "--t-range", "0:1:3",
                     "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",", skiprows=1)[:, 15].max() < 1e-9


def _block_route_states(geom, ts, js):
    """States over (t, J), shape (nt, nJ, 16), one J at a time: the 4x4
    single-excitation block of each J's Hamiltonian, diagonalized alone,
    propagates the Bell pair's four amplitudes."""
    psi0 = initial_bell_state()[list(SINGLE_EXCITATION_INDICES)]
    per_j = [evolve_numeric(hermitian_eigendecompose(single_excitation_block(
        build_hamiltonian(geom._replace(J=float(J))))), psi0, ts) for J in js]
    return embed_single_excitation(np.stack(per_j, axis=1))


def _full_route_states(geom, ts, js):
    """The same states from the 16x16 Hamiltonians, one stack over J."""
    decomp = hermitian_eigendecompose(build_hamiltonians(geom, js))
    return evolve_numeric(decomp, initial_bell_state(), ts).swapaxes(0, 1)


class TestSurfaceSectorRoute:
    """surface on a non-default geometry: the single-excitation block stack
    against the 16x16 route and the sector concurrence formula."""

    def _run(self, tmp_path, monkeypatch, name):
        """Run surface on geometry ``name`` (built in or one of
        GEOMETRY_FILES) and return (geometry, evaluated t, evaluated J,
        blocks, states)."""
        name = _geometry_arg(tmp_path, name)
        seen = {"blocks": [], "states": []}
        for fn, key in ((single_excitation_block, "blocks"),
                        (embed_single_excitation, "states")):
            def spy(x, fn=fn, key=key):
                seen[key].append(fn(x))
                return seen[key][-1]
            monkeypatch.setattr(cli_io, fn.__name__, spy)
        assert main(["surface", "--geometry", name, "--d", "0.8", "--signals", "C12,C13",
                     "--t-range", "0.1:11:9", "--j-range=-1.5:2.5:17",
                     "--out", str(tmp_path / "s.csv")]) == 0
        cfg = SweepConfig(t_min=0.1, t_max=11.0, t_steps=9, j_min=-1.5, j_max=2.5,
                          j_steps=17, d=0.8)
        (states,) = seen["states"]
        return (resolve_geometry(name, 0.0), cfg.d * cfg.t_grid(), cfg.j_grid() / cfg.d,
                seen["blocks"], states)

    @pytest.mark.parametrize("name", ["swapped-control", "non-unit", "dm-only", "iso-only"])
    def test_states_match_full_hamiltonian_route(self, tmp_path, monkeypatch, name):
        geom, ts, js, _, states = self._run(tmp_path, monkeypatch, name)
        assert states.shape == (ts.size, js.size, 16)
        assert np.abs(states - _full_route_states(geom, ts, js)).max() <= 1e-14

    @pytest.mark.parametrize("name", ["swapped-control", "non-unit"])
    def test_pair_concurrences_match_sector_formula(self, tmp_path, monkeypatch, name):
        _, _, _, _, states = self._run(tmp_path, monkeypatch, name)
        # sector slot k holds the excitation at site 4 - k
        amps = np.abs(states[..., list(SINGLE_EXCITATION_INDICES)])
        got = pair_concurrences(states, ALL_PAIRS)
        want = np.stack([2 * amps[..., 4 - m] * amps[..., 4 - n] for m, n in ALL_PAIRS], -1)
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("name, zero", [("dm-only", 1), ("iso-only", 0)])
    def test_one_bond_kind_leaves_one_block_zero(self, tmp_path, monkeypatch, name, zero):
        # the blocks of H(0) = H_DM and of H(1) = H_DM + H_iso
        _, _, _, blocks, _ = self._run(tmp_path, monkeypatch, name)
        h_dm, h_one = blocks
        assert not np.any((h_dm, h_one - h_dm)[zero])
        assert np.any((h_dm, h_one - h_dm)[1 - zero])


class TestSurfaceCommand:
    def test_header_and_first_row(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["surface", "--signals", "C12,GAP",
                     "--t-range", "0:6.2832:9", "--j-range", "0:2:5",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["t", "j", "c12_wootters", "c12_closed_form",
                           "gap_closed_form", "gap_from_states"]
        assert len(rows) == 1 + 9 * 5  # t-major grid
        first = rows[1]
        assert float(first[2]) == pytest.approx(1.0, abs=1e-10)
        assert float(first[4]) == pytest.approx(-1.0, abs=1e-12)

    def test_c13_columns_disagree(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["surface", "--signals", "C13", "--t-range", "0:3:4",
              "--j-range", "0:2:3", "--out", str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[0][2:] == ["c13_wootters", "c13_closed_form"]
        # documented discrepancy: the closed form is 0.125 at t=0, truth is 0
        assert float(rows[1][2]) == pytest.approx(0.0, abs=1e-10)
        assert float(rows[1][3]) == pytest.approx(0.125, abs=1e-12)

    def test_d_keeps_closed_forms_on_squared_wootters(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["surface", "--d", "2", "--signals", "C12,C34",
                     "--t-range", "0:6.2832:17", "--j-range", "0:2:9",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.abs(rows[:, 2] ** 2 - rows[:, 3]).max() <= 1e-8
        assert np.abs(rows[:, 4] ** 2 - rows[:, 5]).max() <= 1e-8
        # the rows carry the grid given, not the one evaluated
        assert rows[-1, :2].tolist() == [6.2832, 2.0]

    def test_d_agrees_between_routes(self, tmp_path):
        # the default bond pattern read from a file takes the spectral route
        geometry = tmp_path / "geom.txt"
        geometry.write_text("dm_z 1 2 1\ndm_z 2 3 1\ndm_z 3 4 1\ndm_z 4 1 1\n"
                            "heisenberg_iso 1 3 1\nheisenberg_iso 2 4 1\n")
        argv = ["surface", "--d", "0.7", "--signals", "C12,C34,C24",
                "--t-range", "0:9:13", "--j-range=-1:2:7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--geometry", str(geometry), "--out", str(b)]) == 0
        rows_a = np.loadtxt(a, delimiter=",", skiprows=1)
        rows_b = np.loadtxt(b, delimiter=",", skiprows=1)
        assert np.array_equal(rows_a[:, :2], rows_b[:, :2])
        assert np.abs(rows_a - rows_b).max() <= 1e-12

    @staticmethod
    def _per_point_surface(path, geometry, d, fmt):
        """The surface written point by point: one quartic call per point
        and pair, one scalar closed form per point and signal."""
        cfg = SweepConfig(t_min=0.05, t_max=3.5, t_steps=6, j_min=-0.4, j_max=1.9,
                          j_steps=5, d=d)
        ts, js = cfg.t_grid(), cfg.j_grid()
        ts_d, js_d = d * ts, js / d
        if geometry == "default":
            states = closed_form_state(ts_d[:, None], js_d)
        else:
            states = _block_route_states(resolve_geometry(geometry, 0.0), ts_d, js_d)
        rows = []
        for t, t_d, row_states in zip(ts, ts_d, states):
            for J, j_d, psi in zip(js, js_d, row_states):
                t_f, j_f = float(t_d), float(j_d)
                rows.append([float(t), float(J),
                             state_concurrence(psi, (1, 2)), closed_form_c12(t_f, j_f),
                             state_concurrence(psi, (3, 4)), closed_form_c34(t_f, j_f),
                             state_concurrence(psi, (1, 3)), closed_form_c13(t_f, j_f),
                             state_concurrence(psi, (2, 4)),
                             concurrence_gap(t_f, j_f), gap_from_state(psi)])
        header = ["t", "j", "c12_wootters", "c12_closed_form", "c34_wootters",
                  "c34_closed_form", "c13_wootters", "c13_closed_form", "c24_wootters",
                  "gap_closed_form", "gap_from_states"]
        if fmt == "csv":
            write_csv(path, header, rows)
        else:
            write_json(path, {"columns": header, "rows": rows,
                              "signals": ["C12", "C34", "C13", "C24", "GAP"], "D": d,
                              "geometry": geometry})

    @pytest.mark.parametrize("geometry", ["default", "swapped-control"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d", [1.0, 0.7])
    def test_matches_per_point_route(self, tmp_path, geometry, fmt, d):
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        assert main(["surface", "--geometry", geometry, "--format", fmt, "--d", str(d),
                     "--signals", "GAP,C24,C13,C34,C12",
                     "--t-range", "0.05:3.5:6", "--j-range=-0.4:1.9:5",
                     "--out", str(got)]) == 0
        self._per_point_surface(want, geometry, d, fmt)
        assert got.read_bytes() == want.read_bytes()

    def test_no_signals_rejected(self, tmp_path):
        assert main(["surface", "--signals", "",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_unknown_signal_rejected(self, tmp_path):
        assert main(["surface", "--signals", "C99",
                     "--out", str(tmp_path / "s.csv")]) == 1


class TestTable1Command:
    def test_full_table(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["table1", "--max-m", "7", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["populated_cells"] == 22
        assert payload["all_verified"] is True
        row7 = payload["rows"][6]
        got = {f["label"]: f["j_values"] for f in row7["families"]}
        assert got == {"J*": ["6/7", "8/7"], "J**": ["4/7", "10/7"],
                       "J***": ["2/7", "12/7"]}

    def test_single_row(self, tmp_path):
        out = tmp_path / "t.json"
        main(["table1", "--max-m", "1", "--format", "json", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["populated_cells"] == 2
        assert payload["rows"][0]["families"][0]["j_values"] == ["0", "2"]

    def test_zero_rejected(self, tmp_path):
        assert main(["table1", "--max-m", "0",
                     "--out", str(tmp_path / "t.json")]) == 1

    @pytest.mark.parametrize("fmt, limit", [("csv", MAX_GRID_POINTS),
                                            ("json", MAX_GRID_POINTS // 8)],
                             ids=["csv", "json"])
    def test_oversized_table_rejected_before_it_is_built(self, tmp_path, capsys,
                                                         monkeypatch, fmt, limit):
        def no_table(max_m):
            raise AssertionError("the table was built before its size was checked")

        monkeypatch.setattr(cli_io, "sequence_table", no_table)
        out = tmp_path / f"t.{fmt}"
        assert main(["table1", "--max-m", str(limit // 3 + 1), "--format", fmt,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --max-m")
        assert not out.exists()

    def test_verifies_in_blocks(self, tmp_path, monkeypatch):
        sizes = []

        def counted(t, J):
            sizes.append(np.size(J))
            return verify_transfers(t, J)

        monkeypatch.setattr(cli_io, "verify_transfers", counted)
        assert main(["table1", "--max-m", "2000", "--out", str(tmp_path / "t.csv")]) == 0
        states = 2 * (2000 + 1998 + 1996)       # two couplings per cell, k = 1, 3, 5
        assert sum(sizes) == states and max(sizes) <= VERIFY_BLOCK
        assert len(sizes) <= math.ceil(states / VERIFY_BLOCK) == 3

    def test_csv_streams_block_by_block(self, tmp_path):
        # holding the whole table before writing peaked at 20.6 MB here (82.5 MB
        # at --max-m 20000); one block of VERIFY_BLOCK states peaks at about 8 MB
        tracemalloc.start()
        try:
            assert main(["table1", "--max-m", "5000", "--out", str(tmp_path / "t.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_matches_per_cell_verification(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["table1", "--max-m", "40", "--out", str(out)])
        rows = list(csv.reader(out.open()))[1:]
        assert len(rows) == 40 + 38 + 36
        for m, _, _, lower, upper, _, gap_ok, wootters_ok in rows:
            m, values = int(m), (Fraction(lower), Fraction(upper))
            js = np.array([float(j) for j in values])
            expected_gap = (all(is_lattice_transfer(m, j) for j in values)
                            and np.all(np.abs(concurrence_gap(m * np.pi, js) - 1.0) <= 1e-12))
            assert gap_ok == str(bool(expected_gap))
            assert wootters_ok == str(bool(verify_transfers(m * np.pi, js)[2].all()))

    def test_csv_format(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["table1", "--max-m", "3", "--out", str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["m", "k", "label", "j_lower", "j_upper",
                           "t_over_pi", "gap_exact_ok", "wootters_ok"]
        assert [r[:5] for r in rows[1:]] == [
            ["1", "1", "J*", "0", "2"],
            ["2", "1", "J*", "1/2", "3/2"],
            ["3", "1", "J*", "2/3", "4/3"],
            ["3", "3", "J**", "0", "2"],
        ]


class TestScanCommands:
    def test_events_json(self, tmp_path):
        out = tmp_path / "ev.json"
        code = main(["events", "--t-range", f"0:{FOUR_PI}:256",
                     "--j-range", "0:2:65", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 8
        assert {e["j"] for e in payload["events"] if e["m"] == 3} == \
            {"0", "2/3", "4/3", "2"}

    def test_forbidden_json(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main(["forbidden", "--j-values", "1,3,0.5", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out} couplings=3 forbidden=2\n"
        payload = json.loads(out.read_text())
        margins = {r["J"]: r["margin"] for r in payload["results"]}
        assert margins[1.0] == pytest.approx(1.0, abs=1e-8)
        assert margins[3.0] == pytest.approx(0.75, abs=1e-8)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.json"
    code = main(["report", "--t-range", f"0:{FOUR_PI}:33",
                 "--j-range", "0:2:17", "--out", str(out)])
    return code, json.loads(out.read_text()), out


def test_json_records_are_objects_keyed_by_their_fields(tmp_path, report):
    # json writes a named tuple as an array, so a record written without
    # _asdict() would change the document silently
    def written(command, key):
        out = tmp_path / f"{command}.json"
        assert main([command, "--format", "json", "--out", str(out)]) == 0
        return json.loads(out.read_text())[key]

    documents = [(written("forbidden", "results"), ForbiddenScanResult),
                 (written("wstate", "candidates"), WStateCandidate),
                 *((p, SignalPeriod) for p in report[1]["results"]["periodicity"].values())]
    assert len(documents) == 2 + len(cli_io._PERIODICITY_J)
    for records, record_type in documents:
        assert records
        for record in records:
            assert isinstance(record, dict)
            assert sorted(record) == sorted(record_type._fields)


class TestReportCommand:
    def test_schema(self, report):
        _, payload, _ = report
        assert set(payload) == {"schema_version", "config_echo", "results",
                                "checks"}
        assert payload["schema_version"] == 3
        assert payload["config_echo"]["t_steps"] == 33
        # only the fields a report config file may set
        assert set(payload["config_echo"]) == {"out", "t_min", "t_max", "t_steps", "j_min",
                                               "j_max", "j_steps", "geometry"}
        assert payload["results"]["wstate"]["threshold"] == 1e-3

    def test_exit_code_reflects_failed_checks(self, report):
        code, payload, _ = report
        checks = payload["checks"]
        # two checks fail by design: the closed forms track the squared
        # concurrence, and genuine W points exist on the grid
        assert checks["closed_form_c12_c34_match_wootters"] is False
        assert checks["wstate_scan_empty"] is False
        assert checks["closed_forms_track_squared_wootters"] is True
        assert checks["closed_form_c13_discrepancy_detected"] is True
        failing = {k for k, v in checks.items() if not v}
        assert failing == {"closed_form_c12_c34_match_wootters",
                           "wstate_scan_empty"}
        assert code == 2

    def test_result_margins(self, report):
        _, payload, _ = report
        results = payload["results"]
        assert results["oracle"]["max_deviation"] < 1e-9
        assert results["oracle"]["control_max_deviation"] > 1e-2
        assert results["forbidden"]["1.0"]["margin"] > 0
        assert results["forbidden"]["3.0"]["margin"] > 0
        assert results["conservation"]["max_norm_error"] < 1e-10

    def test_periodicity_block(self, report):
        _, payload, _ = report
        periods = payload["results"]["periodicity"]
        assert set(periods) == {"0", "1", "1/2", "2/3", "7/64", "1/31", "1/101", "1/511"}
        for entries in periods.values():
            assert [e["signal"] for e in entries] == ["C12", "C34", "C13", "GAP"]
            assert all(e["verified"] for e in entries)
        assert payload["checks"]["periodicity_consistent"] is True

    def test_missing_geometry_yields_error_document(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["report", "--geometry", "/missing/geom.txt",
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert "error" in payload and "geom.txt" in payload["error"]["message"]

    @pytest.mark.parametrize("name, corrupt, failing", [
        # without its sin(2t) term, C13's table claims half the period
        # where the gcd of its other frequencies is twice as large, and the
        # signal does not repeat after it
        ("C13", lambda terms: terms[:2] + terms[3:],
         {(J, "C13") for J in ("1", "1/31", "1/101", "1/511")}),
        # sin(2t) read as sin(t): wherever the t term sets the gcd, the
        # claimed period is twice the signal's, which repeats after half of it
        ("C13", lambda terms: terms[:2] + (("sin", 0, 1, terms[2][3]),) + terms[3:],
         {(J, "C13") for J in ("0", "1", "2/3", "1/31", "1/101", "1/511")}),
        # cos(t)cos(Jt) expanded to cos(Jt) instead of cos((J + 1)t): GAP
        # inherits the wrong frequency, and both claim twice the period
        # wherever J sets the gcd
        ("C12", lambda terms: terms[:2] + (("cos", 1, 0, 6),) + terms[3:],
         {(J, s) for J in ("1", "1/31", "1/101", "1/511") for s in ("C12", "GAP")}),
    ], ids=["dropped-term", "halved-frequency", "c12-into-gap"])
    def test_corrupted_table_fails_periodicity(self, tmp_path, monkeypatch,
                                               name, corrupt, failing):
        signals = qst_analysis._SIGNALS
        closed_form, terms = signals[name]
        monkeypatch.setitem(signals, name, (closed_form, corrupt(terms)))
        # GAP's terms are made from C34's and C12's once, at import
        monkeypatch.setitem(signals, "GAP", (signals["GAP"][0], signals["C34"][1] + tuple(
            (kind, a, b, -c) for kind, a, b, c in signals["C12"][1])))
        out = tmp_path / "report.json"
        assert main(["report", "--t-range", "0:3:5", "--j-range", "0:2:3",
                     "--out", str(out)]) == 2
        payload = json.loads(out.read_text())
        assert payload["checks"]["periodicity_consistent"] is False
        assert {(J, entry["signal"])
                for J, entries in payload["results"]["periodicity"].items()
                for entry in entries if not entry["verified"]} == failing

    @pytest.mark.parametrize("argv, message", [
        (["--geometry", "/missing/geom.txt"], "geom.txt"),
        (["--t-range", "0:1e300:5"], "--t-range"),
    ])
    def test_config_errors_precede_every_scan(self, tmp_path, monkeypatch,
                                              argv, message):
        def no_scan(*args, **kwargs):
            raise AssertionError("a scan ran before the configuration was checked")

        monkeypatch.setattr(cli_io, "oracle_equivalence_report", no_scan)
        out = tmp_path / "report.json"
        assert main(["report", *argv, "--out", str(out)]) == 1
        assert message in json.loads(out.read_text())["error"]["message"]


@pytest.mark.parametrize("geometry, failing", [
    ("default", {"closed_form_c12_c34_match_wootters", "wstate_scan_empty"}),
    ("swapped-control", {"closed_form_c12_c34_match_wootters", "oracle_equivalence",
                         "wstate_scan_empty"}),
])
def test_report_oracle_and_conservation_run_at_the_geometry(tmp_path, geometry, failing):
    """--geometry reaches the route-equivalence oracle, and the conservation
    check reads the oracle's own numeric trajectories: 8 J x 1025 t."""
    out = tmp_path / "report.json"
    assert main(["report", "--geometry", geometry, *SMALL_REPORT_GRID,
                 "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert {k for k, ok in payload["checks"].items() if not ok} == failing
    js = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
    ts = np.arange(0.0, 8.0 * np.pi + 1e-12, np.pi / 128.0)
    assert payload["results"]["oracle"]["points"] == len(js) * ts.size == 8 * 1025
    psi = evolve_numeric(hermitian_eigendecompose(
        build_hamiltonians(resolve_geometry(geometry, 0.0), js)), initial_bell_state(), ts)
    assert payload["results"]["conservation"] == {
        "max_norm_error": float(norm_error(psi).max()),
        "max_sector_leak": float(sector_leak(psi).max())}


def test_report_config_echo_replays(tmp_path):
    """The report echoes only the fields its config file may set, so its
    echo written as ``key = value`` lines reproduces the document."""
    first, second, config = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "report.cfg"
    assert main(["report", "--geometry", "swapped-control", *SMALL_REPORT_GRID,
                 "--out", str(first)]) == 2
    payload = json.loads(first.read_text())
    config.write_text("".join(f"{key} = {value}\n" for key, value in
                              payload["config_echo"].items() if key != "out"))
    assert main(["report", "--config", str(config), "--out", str(second)]) == 2
    assert json.loads(second.read_text()) == {
        **payload, "config_echo": {**payload["config_echo"], "out": str(second)}}


def test_report_exact_candidates_lie_on_the_w_lattice(tmp_path):
    """Every candidate of the report's default grid check that is a W state
    to 1e-12 is a point that wstate lists."""
    out = tmp_path / "report.json"
    assert main(["report", "--out", str(out)]) == 2
    results = json.loads(out.read_text())["results"]
    lattice = np.array([(c.t, c.J) for c in wstate_scan((0.0, FOUR_PI), (0.0, 2.0))])
    exact = np.array([(c["t"], c["j"]) for c in results["wstate"]["candidates"]
                      if c["max_deviation_from_half"] < 1e-12])
    assert len(exact) == 20
    assert (np.abs(exact[:, None] - lattice[None]).max(axis=-1).min(axis=1) <= 1e-12).all()
    assert results["monogamy_max_excess"] == 0.0


@pytest.mark.parametrize("argv, count", [
    ([], 8),
    (["--t-range", "0:37.69911184307752:129"], 72),            # [0, 12*pi)
    (["--t-range", "3:20:33", "--j-range=0.25:1.5:9"], 14),    # n/m = 1/4 and 3/2 on the edges
    ([f"--t-range={np.pi!r}:{6 * np.pi!r}:9", "--j-range=0.25:1.5:9"], 10),
], ids=["default", "12pi", "narrow", "pi-edges"])
def test_report_events_are_the_window_transfer_lattice(tmp_path, monkeypatch, argv, count):
    """The report's events are the transfer lattice {(m*pi, n/m) : n of the
    parity of m + 1} of its window, half-open in t, every one confirmed,
    and no event search runs."""
    def no_search(*args, **kwargs):
        raise AssertionError("the report searched for events")

    monkeypatch.setattr(cli_io, "locate_events_2d", no_search)
    out = tmp_path / "report.json"
    assert main(["report", *argv, "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    cfg = payload["config_echo"]
    lattice = [(m, m * np.pi, str(Fraction(n, m)))
               for m in range(1, math.ceil(cfg["t_max"] / np.pi) + 1)
               for n in range(math.floor(cfg["j_min"] * m) - 1, math.ceil(cfg["j_max"] * m) + 2)
               if (n - m - 1) % 2 == 0 and cfg["t_min"] <= m * np.pi < cfg["t_max"]
               and cfg["j_min"] <= n / m <= cfg["j_max"]]
    events = payload["results"]["events"]
    assert len(events) == count
    assert [(e["m"], e["t"], e["j"]) for e in events] == lattice
    assert all(e["confirmed"] and e["snapped"] for e in events)
    assert payload["checks"]["all_events_confirmed"] is True


@pytest.mark.parametrize("command, argv, unbuilt", [
    # 1.8e10 W points (4.6e9 transfers), beyond the listing limit
    ("wstate", ["--t-range", "0:600000:2", "--j-range", "0:0.5:2"], ("_lattice",)),
    ("wstate", ["--t-range", "0:2000000:2"], ("_lattice", "_lattice_rows")),
    ("report", ["--t-range", "0:600000:2", "--j-range", "0:0.5:2"], ("_lattice",)),
    ("report", ["--t-range", "0:2000000:2"], ("_lattice", "_lattice_rows")),
], ids=["count", "phase", "report-count", "report-phase"])
def test_wstate_window_is_bounded_before_any_point(tmp_path, capsys, monkeypatch,
                                                    command, argv, unbuilt):
    """The phase bound comes before the point count, and the count before
    any point, for wstate's W points and the report's transfers."""
    def no_points(*args, **kwargs):
        raise AssertionError("lattice points were enumerated before the window was bounded")

    for name in unbuilt:
        monkeypatch.setattr(qst_analysis, name, no_points)
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --t-range, --j-range: ") and err.count("\n") == 1
    # only the report writes a document, its error document
    assert out.exists() == (command == "report")


def _recorded_pair_concurrences(monkeypatch, module):
    """Patch ``module``'s pair_concurrences to record each result."""
    results = []
    def spy(psi, pairs):
        results.append(pair_concurrences(psi, pairs))
        return results[-1]
    monkeypatch.setattr(module, "pair_concurrences", spy)
    return results


def test_grid_sweep_scores_blocks_of_rows(monkeypatch):
    """The default 129 x 65 grid is scored in blocks of 7 t-rows, one
    pair_concurrences call each, bit for bit the per-row calls."""
    cfg = SweepConfig()
    blocked = _recorded_pair_concurrences(monkeypatch, cli_io)
    results, checks = {}, {}
    cli_io._grid_sweep(cfg, results, checks)
    assert [len(c) for c in blocked] == [7] * 18 + [3]
    js = cfg.j_grid()
    per_row = np.stack([pair_concurrences(closed_form_state(t, js), ALL_PAIRS)
                        for t in cfg.t_grid()])
    assert np.array_equal(np.concatenate(blocked), per_row)
    # one row per block writes the same grid, so every reduction agrees
    monkeypatch.setattr(cli_io, "AMPLITUDE_BLOCK", 1)
    one_row = _recorded_pair_concurrences(monkeypatch, cli_io)
    row_results, row_checks = {}, {}
    cli_io._grid_sweep(cfg, row_results, row_checks)
    assert len(one_row) == 129
    assert (row_results, row_checks) == (results, checks)


def _run_python(*argv):
    """A fresh interpreter that imports this checkout's triplaq."""
    src = os.path.dirname(os.path.dirname(triplaq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = _run_python("-m", "triplaq", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: triplaq")
    assert "report" in done.stdout


def test_import_loads_neither_dataclasses_nor_json():
    # start-up is paid on every command: records are named tuples, and json
    # is imported by write_json, so importing the CLI loads neither module
    done = _run_python("-c", "import sys, triplaq.cli_io; "
                             "print(sorted({'dataclasses', 'json'} & set(sys.modules)))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_usage_error_is_exit_1(tmp_path):
    assert main(["evolve", "--t-range", "nonsense",
                 "--out", str(tmp_path / "x.csv")]) == 1


def test_config_file_with_cli_override(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("t_min = 0.0\nt_max = 1.0\nt_steps = 3\n")
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--config", str(cfg_path), "--j", "0",
                 "--t-range", "0:2:5", "--out", str(out)])
    assert code == 0
    assert len(list(csv.reader(out.open()))) == 6  # override wins
