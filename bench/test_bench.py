"""Tests of the benchmark harness itself, on the smoke grids.

    python3 -m pytest bench/test_bench.py -q

Every workload runs end to end through ``run.py`` with tracing off and on,
and must print every metric ``BENCHMARK.json`` names, with its unit.  The
checks are also shown to catch a changed output and a lost event.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace, group):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if group == "end_to_end":
        assert all(result["metrics"][m]["value"] > 0 for m in expected)


def test_manifest_names_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in MANIFEST["end_to_end"]] == [m[0] for m in run.END_TO_END]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "events-wide", "--smoke", "--seconds", "0.1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def cli_io():
    return run.import_program()


# A changed closed-form value breaks the digest, so every row fails; a
# changed Wootters value fails its own row.
@pytest.mark.parametrize("column,delta,failed", [(2, 1e-15, 10), (3, -1e-13, 1)])
def test_table_check_catches_a_changed_value(cli_io, tmp_path, column, delta, failed):
    work = workloads.build("spectral-jsweep", smoke=True)
    out = tmp_path / "out.csv"
    assert cli_io.main(work.command(out)) == 0
    reference = checks.load_reference()
    assert checks.check(work, 0, out, reference).errors == []
    lines = out.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[2] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    outcome = checks.check(work, 0, out, reference)
    assert outcome.failed == failed and outcome.ops == work.rows and outcome.errors


def test_reference_keeps_every_wootters_value():
    reference = checks.load_reference()
    for k in range(workloads.OFFSETS):
        work = workloads.build("spectral-jsweep", k)
        kept = reference[work.ref_key]["samples"]["gap_from_states"]
        assert len(kept) == reference[work.ref_key]["rows"] == work.rows


def test_events_check_catches_a_lost_confirmed_event(cli_io, tmp_path):
    work = workloads.build("events-wide", smoke=True)
    out = tmp_path / "out.csv"
    assert cli_io.main(work.command(out)) == 0
    reference = checks.load_reference()
    assert checks.check(work, 0, out, reference).errors == []
    header, first, *rest = out.read_text().splitlines()
    assert first.endswith(",True,True")
    out.write_text("\n".join([header, *rest]) + "\n")
    outcome = checks.check(work, 0, out, reference)
    assert outcome.failed >= 1 and len(outcome.errors) == 2


@pytest.mark.parametrize("unconfirmed_at_seed,failed", [(1, 0), (0, 1)])
def test_only_new_unconfirmed_events_fail(tmp_path, unconfirmed_at_seed, failed):
    work = workloads.build("events-wide", smoke=True)
    reference = {work.ref_key: {"events": 2, "unconfirmed": unconfirmed_at_seed,
                                "confirmed_snapped": [[1, "2"]]}}
    out = tmp_path / "out.csv"
    out.write_text(
        "m,t,j,gap_value,c12,c34,confirmed,snapped\n"
        f"1,{math.pi!r},2,1,0,0.99999999999999978,True,True\n"
        "None,3.1495853646032037,1.994924597138259,0.99990417842687396,"
        "1.5970262182270219e-05,0.99995208819319048,False,False\n")
    outcome = checks.check(work, 0, out, reference)
    assert (outcome.ops, outcome.failed, outcome.errors) == (2, failed, [])
    out.write_text(out.read_text().replace("1,3.14159", "1,3.15159"))
    assert checks.check(work, 0, out, reference).errors


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    samples = [float(i) for i in range(31)]
    assert run.tail(samples) == (20.0, 100.0 * 20 / 30)


def test_times_are_given_at_the_reference_speed():
    work = workloads.build("evolve-long", smoke=True)
    loop = {"wall_cal": [2.0, 4.0, 3.0], "setup_cal": [10.0]}
    metrics = run.end_to_end(work, loop)
    assert metrics["wall_s"] == 3.0 * run.CAL_REF_S
    assert metrics["setup_s"] == 10.0 * run.CAL_REF_S
    assert metrics["points_per_s"] == work.points / (3.0 * run.CAL_REF_S)
