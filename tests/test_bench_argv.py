"""Every benchmark workload's command line must parse: an option the CLI
stops reading then fails here, not only in a benchmark run.  The workload
file ``bench/workloads.py`` is loaded by path and never changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

from triplaq.cli_io import _config_from_args, build_parser

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_module = _workloads()


@pytest.mark.parametrize("smoke", [False, True], ids=["seed0", "smoke"])
@pytest.mark.parametrize("name", _module.NAMES)
def test_workload_argv_parses(name, smoke):
    workload = _module.build(name, seed=0, smoke=smoke)
    args = build_parser().parse_args(workload.command("out.bench"))
    cfg = _config_from_args(args)
    assert args.command == workload.argv[0]
    assert cfg.out == "out.bench"
