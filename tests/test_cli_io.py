import csv
import json

import numpy as np
import pytest

from triplaq import cli_io, dynamics
from triplaq.cli_io import (
    SweepConfig,
    config_from_text,
    config_to_text,
    main,
    resolve_geometry,
)
from triplaq.dynamics import TIME_CHUNK
from triplaq.errors import ConfigError

FOUR_PI = 4 * np.pi


class TestSweepConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert cfg.t_steps == 129 and cfg.j_steps == 65

    def test_single_step_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(t_steps=1)

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(t_min=2.0, t_max=1.0)

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(fmt="xml")

    def test_round_trip_identical(self):
        cfg = SweepConfig(t_min=0.25, t_max=7.5, t_steps=33, j_min=0.1,
                          j_max=1.9, j_steps=5, d=2.0, geometry="default",
                          out="x.csv", fmt="json", threshold=0.5)
        assert config_from_text(config_to_text(cfg)) == cfg

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            config_from_text("t_min = 0.0\nbogus = 1\n")

    def test_comments_allowed(self):
        cfg = config_from_text("# comment\nt_steps = 65\n")
        assert cfg.t_steps == 65

    @pytest.mark.parametrize("field", ["t_min", "t_max", "j_min", "j_max", "d",
                                       "threshold"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            SweepConfig(**{field: value})


@pytest.mark.parametrize("command", ["report", "surface", "evolve", "wstate"])
@pytest.mark.parametrize("flags", [("--t-range", "0:inf:5"), ("--j-range", "0:inf:5"),
                                   ("--t-range", "nan:1:5"), ("--d", "inf"),
                                   ("--threshold", "nan")])
def test_non_finite_input_is_exit_1(tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    code = main([command, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "must be finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


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
    # finite Hamiltonians whose Frobenius norm overflows
    (["evolve", "--j", "1e200", "--t-range", "0:1:3"], "--j"),
    (["evolve", "--d", "1e200", "--t-range", "0:1:3"], "--d"),
    (["surface", "--geometry", "swapped-control", "--signals", "GAP",
      "--t-range", "0:1:2", "--j-range", "0:1e200:3"], "--j-range"),
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
    out = tmp_path / "report.json"
    assert main(["report", "--d", "1e200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --d") and err.count("\n") == 1
    assert "--d" in json.loads(out.read_text())["error"]["message"]


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

    def test_surface_decomposes_j_in_chunks(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        code = main(["surface", "--geometry", "swapped-control", "--signals", "GAP",
                     "--t-range", f"0:{FOUR_PI}:5", "--j-range", "0:2:401",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert len(calls) == -(-401 // TIME_CHUNK)
        assert sum(shape[0] for shape in calls) == 401

    def test_report_makes_three_stacked_calls(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        main(["report", "--t-range", f"0:{FOUR_PI}:9", "--j-range", "0:2:5",
              "--out", str(tmp_path / "r.json")])
        assert len(calls) <= 3
        assert all(len(shape) == 3 for shape in calls)


class TestGeometryResolution:
    def test_builtin_names(self):
        assert resolve_geometry("default", 0.5, 1.0).name == "default"
        assert resolve_geometry("swapped-control", 0.5, 1.0).name == "swapped-control"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_geometry("/no/such/file.txt", 0.5, 1.0)

    def test_custom_file(self, tmp_path):
        path = tmp_path / "geom.txt"
        path.write_text("dm_z 1 2 1.0\ndm_z 2 3 1.0\ndm_z 3 4 1.0\ndm_z 4 1 1.0\n"
                        "heisenberg_iso 1 3 1.0\nheisenberg_iso 2 4 1.0\n")
        geom = resolve_geometry(str(path), 0.5, 1.0)
        assert len(geom.bonds) == 6 and geom.J == 0.5

    def test_malformed_file_reports_line_through_cli(self, tmp_path, capsys):
        path = tmp_path / "geom.txt"
        path.write_text("dm_z 1 2 1.0\nbroken record here\n")
        code = main(["evolve", "--geometry", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err


class TestEvolveCommand:
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

    def test_forbidden_json(self, tmp_path):
        out = tmp_path / "f.json"
        code = main(["forbidden", "--j-values", "1,3", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        margins = {r["J"]: r["margin"] for r in payload["results"]}
        assert margins[1.0] == pytest.approx(1.0, abs=1e-8)
        assert margins[3.0] == pytest.approx(0.75, abs=1e-8)

    def test_wstate_loose_threshold(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(["wstate", "--threshold", "0.5", "--t-range", "0:6.2832:17",
                     "--j-range", "0:2:9", "--format", "json", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["count"] > 0


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.json"
    code = main(["report", "--t-range", f"0:{FOUR_PI}:33",
                 "--j-range", "0:2:17", "--out", str(out)])
    return code, json.loads(out.read_text()), out


class TestReportCommand:
    def test_schema(self, report):
        _, payload, _ = report
        assert set(payload) == {"schema_version", "config_echo", "results",
                                "checks"}
        assert payload["schema_version"] == 1
        assert payload["config_echo"]["t_steps"] == 33
        assert payload["config_echo"]["threshold"] == 1e-3
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

    def test_missing_geometry_yields_error_document(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["report", "--geometry", "/missing/geom.txt",
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert "error" in payload and "geom.txt" in payload["error"]["message"]

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
