"""Every benchmark workload's command line must parse, and its smoke run and
its full-size run at every grid offset must pass the benchmark's own output
checks: an option the CLI stops reading, or an output the benchmark would
refuse as incorrect (a Jacobi change that moves a numeric column past the
reference tolerance, say), then fails here, not only in a benchmark run.  ``bench/workloads.py`` and ``bench/checks.py`` are
loaded by path and never changed."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from triplaq.cli_io import _config_from_args, build_parser, main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_module = _load("workloads")
_checks = _load("checks")


@pytest.mark.parametrize("smoke", [False, True], ids=["seed0", "smoke"])
@pytest.mark.parametrize("name", _module.NAMES)
def test_workload_argv_parses(name, smoke):
    workload = _module.build(name, seed=0, smoke=smoke)
    args = build_parser().parse_args(workload.command("out.bench"))
    cfg = _config_from_args(args)
    assert args.command == workload.argv[0]
    assert cfg.out == "out.bench"


@pytest.mark.parametrize("name", _module.NAMES)
def test_smoke_output_passes_the_benchmark_checks(tmp_path, name):
    workload = _module.build(name, smoke=True)
    out = tmp_path / f"out.{workload.out_ext}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(workload.command(out))
    outcome = _checks.check(workload, code, out, _checks.load_reference())
    assert outcome.errors == []
    assert outcome.failed == 0


#: Each full-size workload at every grid offset; report ignores the offset.
FULL_RUNS = [("report", 0)] + [(name, seed) for name in _module.NAMES if name != "report"
                               for seed in range(_module.OFFSETS)]


@pytest.mark.parametrize("name, seed", FULL_RUNS, ids=[f"{n}-{k}" for n, k in FULL_RUNS])
def test_full_output_passes_the_benchmark_checks(tmp_path, name, seed):
    workload = _module.build(name, seed=seed)
    out = tmp_path / f"out.{workload.out_ext}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(workload.command(out))
    outcome = _checks.check(workload, code, out, _checks.load_reference())
    assert outcome.errors == []
    assert outcome.failed == 0
