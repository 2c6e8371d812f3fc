"""Benchmark of the triplaq command-line program.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

One client drives ``triplaq.cli_io.main(argv)`` in a closed loop inside
this process: the next command starts only after the previous one has
finished and its output has been checked; no other thread or process
works meanwhile.  A warm-up command on the smoke grid runs first, untimed.
The loop starts another command only while it is expected to end within
``--seconds``, so a run takes about that long plus set-up.

With ``--trace 0`` the run reports the end-to-end metrics.  ``setup_s`` is
measured in separate fresh interpreters (``setup_probe.py``) started
between the commands.  With ``--trace 1`` the loop alternates untraced and
traced commands and reports the per-layer metrics of ``tracer.py``.

The end-to-end times are given at a fixed reference host speed.  On a
shared host the speed of one core swings by up to 1.8x for tens of seconds
at a time as other tenants come and go, far more than any bound a
regression check could use.  So a fixed calibration kernel, which does not
touch triplaq, runs between every two commands, around every set-up probe
and, from a timer signal, once a second during each untraced command.
Each timing, less the kernel's own time, is divided by the mean kernel
time around and during it and multiplied by ``CAL_REF_S``: a command that
takes 200 times as long as the kernel reads ``200 * CAL_REF_S`` seconds,
whatever the host's speed.  A slower or faster program moves that ratio;
the host's load mostly does not.  The process and the probes it starts are
pinned to one core, so every timing is calibrated on the core it ran on.
The raw wall-clock medians and the host speed are printed before the
result line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
sample counts, the error rate and the host.  Outputs, spans and a result
file go to ``.bench_out/`` at the root of the checkout.  ``--smoke``
shrinks every grid so the harness's own tests run in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the closed loop uses no thread besides its own.  Set
# before numpy is first imported; an explicit setting is kept and recorded.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
NPROC = len(os.sched_getaffinity(0))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("wall_s_hi", "s", "lower"),
    ("points_per_s", "points/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
SETUP_PROBES = 11
# Time one calibration pass takes at the reference host speed.  On the
# 2-vCPU host the benchmark was written on, a pass took 0.009-0.016 s.
CAL_REF_S = 0.010
CAL_PASSES = 3
SAMPLE_EVERY_S = 1.0

_CAL_M = np.exp(1j * np.arange(256.0).reshape(16, 16) / 7.0)
_CAL_S = np.arange(16.0).reshape(4, 4) / 16.0


def _calibration_pass() -> float:
    """A fixed mix like triplaq's own work: small complex matrix products,
    small Hermitian eigenvalue problems, scalar math and float formatting."""
    acc, m = 0.0, _CAL_M
    for i in range(400):
        m = (m @ _CAL_M) / 16.0
        acc += float(np.linalg.eigvalsh(_CAL_S + _CAL_S.T + i)[0])
        acc += float(np.abs(m[:, i % 16]).sum())
        for k in range(16):
            acc += math.cos(i * k) * math.sqrt(k + 1.0)
        acc += len("%.17g,%.17g" % (acc, i * 0.1))
    return acc


def calibrate() -> float:
    """The host's current slowness: the median time of a few calibration
    passes, in seconds."""
    times = []
    for _ in range(CAL_PASSES):
        t0 = time.perf_counter()
        _calibration_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(fn):
    """Run ``fn()`` while a timer signal runs one calibration pass every
    ``SAMPLE_EVERY_S`` seconds, so that a long command is calibrated on the
    host's speed during it, not only at its ends.  Returns the result, the
    seconds ``fn`` took without the passes, and the passes' times."""
    passes = []

    def sample(signum, frame):
        t = time.perf_counter()
        _calibration_pass()
        passes.append((t, time.perf_counter()))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    inside = [b - a for a, b in passes if b <= t1]
    return result, t1 - t0 - sum(inside), inside


def import_program():
    """Import triplaq from this checkout's sources, never from elsewhere."""
    if not (SRC / "triplaq" / "cli_io.py").is_file():
        raise SystemExit(f"error: no triplaq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import triplaq.cli_io as cli_io
    if Path(cli_io.__file__).resolve().parent != (SRC / "triplaq").resolve():
        raise SystemExit(f"error: triplaq was imported from {cli_io.__file__}")
    return cli_io


def setup_probe(work, out_path: Path) -> float:
    """One fresh-interpreter set-up time: import triplaq, parse and validate."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *work.command(out_path)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_command(cli_io, argv) -> tuple[int | None, str]:
    """One CLI call, its console output captured; a crash is an outcome."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_io.main(argv)
    except Exception as exc:  # noqa: BLE001 - a crashing command is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    return code, sink.getvalue()


def closed_loop(cli_io, work, out_path: Path, seconds: float, reference: dict,
                trace: tracer.Tracer | None, probes: int) -> dict:
    """Run commands until ``seconds`` would be exceeded.  The ``probes``
    set-up probes are spread over the same time, between commands, so they
    meet the same machine load as the commands do.  Every untraced command
    and every probe is also kept as a multiple of the mean calibration time
    around and during it (``wall_cal``, ``setup_cal``)."""
    warm = workloads.build(work.name, smoke=True)
    run_command(cli_io, warm.command(OUT / work.name / f"warmup.{warm.out_ext}"))
    wall, traced_wall, traces, setup = [], [], [], []
    wall_cal, setup_cal, cal = [], [], [calibrate()]
    attempted = failed = 0
    errors, info = [], {}

    def probe():
        t = setup_probe(work, out_path)
        cal.append(calibrate())
        setup.append(t)
        setup_cal.append(t / statistics.mean(cal[-2:]))

    start = time.perf_counter()
    while True:
        traced = trace is not None and len(wall) > len(traced_wall)
        gc.collect()
        t0 = time.perf_counter()
        if traced:
            trace.begin()
            code, console = run_command(cli_io, work.command(out_path))
            traced_wall.append(time.perf_counter() - t0)
            traces.append(trace.end(keep_spans=not traces))
            cal.append(calibrate())
        else:
            (code, console), took, during = timed(
                lambda: run_command(cli_io, work.command(out_path)))
            cal.append(calibrate())
            wall.append(took)
            wall_cal.append(took / statistics.mean([cal[-2], *during, cal[-1]]))
        outcome = checks.check(work, code, out_path, reference)
        attempted += outcome.ops
        failed += outcome.failed
        errors += [f"command {len(wall) + len(traced_wall)}: {e}" for e in outcome.errors]
        if code is None:
            errors.append(f"command crashed: {console}")
        info = outcome.info or info
        last = time.perf_counter() - t0
        while len(setup) < min(probes, probes * (time.perf_counter() - start) / seconds):
            probe()
        done = trace is None or traced_wall
        if done and time.perf_counter() - start + last > seconds:
            break
    while len(setup) < probes:
        probe()
    return {"wall": wall, "traced_wall": traced_wall, "traces": traces, "setup": setup,
            "wall_cal": wall_cal, "setup_cal": setup_cal, "cal": cal,
            "attempted": attempted, "failed": failed, "errors": errors,
            "info": info}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile.  Below 21 samples it would fall under the median, and the
    median is reported instead."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if 2 * k < len(ordered) - 1:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * k / (len(ordered) - 1)


def end_to_end(work, loop: dict) -> dict:
    """The end-to-end metrics, times at the reference host speed."""
    wall_s = CAL_REF_S * statistics.median(loop["wall_cal"])
    hi, _ = tail(loop["wall_cal"])
    return {"wall_s": wall_s,
            "wall_s_hi": CAL_REF_S * hi,
            "points_per_s": work.points / wall_s,
            "setup_s": CAL_REF_S * statistics.median(loop["setup_cal"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def git_state() -> tuple[str, bool | None]:
    """The commit of this checkout and whether its tree differs from it;
    ("unknown", None) outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha.stdout.strip(), bool(status.stdout.strip())


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha, dirty = git_state()
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "nproc": NPROC, "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def write_spans(path: Path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("function,start_s,end_s,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and one set-up probe, for the harness tests")
    args = parser.parse_args(argv)
    # One core for the loop, the calibrations and the set-up probes it
    # starts, so that each timing is calibrated on the core it ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cli_io = import_program()
    work = workloads.build(args.workload, args.seed, smoke=args.smoke)
    (OUT / work.name).mkdir(parents=True, exist_ok=True)
    out_path = OUT / work.name / f"out.{work.out_ext}"
    reference = checks.load_reference()
    trace = tracer.Tracer() if args.trace else None
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    loop = closed_loop(cli_io, work, out_path, args.seconds, reference, trace, probes)

    errors = list(loop["errors"])
    if args.trace:
        drift = tracer.call_drift(loop["traces"])
        if drift:
            errors.append(f"nondeterminism: call counts drifted for {drift}")
        values = tracer.layer_metrics(loop["traces"], loop["traced_wall"], loop["wall"])
        units = {name: unit for name, unit, _ in tracer.METRICS}
        spans_path = OUT / work.name / f"spans-seed{args.seed}.csv"
        write_spans(spans_path, loop["traces"][0].spans)
    else:
        values = end_to_end(work, loop)
        units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": not errors, "attempted": loop["attempted"],
              "failed": loop["failed"], "metrics": metrics}

    host = provenance()
    _, pct = tail(loop["wall"])
    detail = {"workload": work.name, "seed": args.seed, "offset": work.offset,
              "smoke": args.smoke, "trace": args.trace,
              "commands": len(loop["wall"]), "traced_commands": len(loop["traced_wall"]),
              "wall_s_samples": loop["wall"], "wall_s_hi_percentile": pct,
              "setup_s_samples": loop["setup"], "traced_wall_s_samples": loop["traced_wall"],
              "wall_per_calibration_samples": loop["wall_cal"],
              "setup_per_calibration_samples": loop["setup_cal"],
              "calibration_s_samples": loop["cal"],
              "host_speed": CAL_REF_S / statistics.median(loop["cal"]),
              "error_rate": loop["failed"] / loop["attempted"],
              "errors": errors, "checks": loop["info"], "host": host}
    (OUT / work.name / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": result}, indent=2) + "\n")

    print(f"workload {work.name} seed {args.seed} (offset {work.offset}): "
          f"{detail['commands']} untraced and {detail['traced_commands']} traced "
          f"commands; wall_s_hi is p{pct:.0f} of {detail['commands']} samples; "
          f"setup_s is the median of {len(loop['setup'])} fresh interpreters")
    raw = {k: statistics.median(loop[k]) for k in ("wall", "setup") if loop[k]}
    print(f"host speed {detail['host_speed']:.3f} of the reference "
          f"(median of {len(loop['cal'])} calibrations); raw wall-clock medians: "
          + ", ".join(f"{k}_s {v!r}" for k, v in raw.items()))
    print(f"error_rate = {detail['error_rate']!r} ratio "
          f"({loop['failed']} of {loop['attempted']} operations failed); "
          f"checks {loop['info']}")
    for e in errors[:10]:
        print(f"error: {e}")
    print(f"host {json.dumps(host, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
