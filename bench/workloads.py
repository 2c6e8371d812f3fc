"""The four benchmark workloads: which CLI command each runs, on which grid.

A seed selects one of ``OFFSETS`` grid offsets.  Seed 0 (offset 0) gives
exactly the documented inputs; other offsets shift where the t and J grids
start, never their sizes, so a claim can be rechecked on inputs it was not
tuned on.  ``report`` ignores the seed: it always runs the default
configuration, because its check verdicts are the correctness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

NAMES = ("report", "spectral-jsweep", "events-wide", "evolve-long")
OFFSETS = 8
T_SHIFT = 0.01     # t-grid start moves by this much per offset
J_SHIFT = 0.001    # J-grid start moves by this much per offset


@dataclass(frozen=True)
class Workload:
    name: str
    offset: int
    smoke: bool
    argv: tuple[str, ...]        # CLI arguments, without --out
    out_ext: str
    points: int                  # grid points one command evaluates
    rows: int = 0                # CSV rows one command writes (tables)
    window: tuple = ()           # (t_lo, t_hi, J_lo, J_hi) for events-wide
    wstate_count: int = 0        # W candidates the report finds (report)

    @property
    def ref_key(self) -> str:
        return f"{self.name}/{'smoke' if self.smoke else self.offset}"

    def command(self, out_path) -> list[str]:
        return [*self.argv, "--out", str(out_path)]


def _range(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def build(name: str, seed: int = 0, smoke: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``smoke`` shrinks every grid and
    ignores the seed."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    k = 0 if name == "report" or smoke else seed % OFFSETS
    t0, j0 = k * T_SHIFT, k * J_SHIFT
    if name == "report":
        # Default configuration: 129 x 65 (t, J) cells.  The smoke grid keeps
        # every scan but shrinks the Wootters sweep to 5 x 3 cells.
        if smoke:
            argv = ("report", "--t-range", _range(0.0, math.pi, 5),
                    "--j-range", _range(0.0, 2.0, 3))
            return Workload(name, k, smoke, argv, "json", 5 * 3, wstate_count=1)
        return Workload(name, k, smoke, ("report",), "json", 129 * 65,
                        wstate_count=28)
    if name == "spectral-jsweep":
        nt, nj, span = (2, 5, 1.0) if smoke else (5, 401, 4.0 * math.pi)
        argv = ("surface", "--geometry", "swapped-control", "--signals", "GAP",
                "--t-range", _range(t0, t0 + span, nt),
                "--j-range", _range(j0, j0 + 2.0, nj))
        return Workload(name, k, smoke, argv, "csv", nt * nj, rows=nt * nj)
    if name == "events-wide":
        periods, resolution = (2, 64) if smoke else (40, 128)
        t_hi = t0 + periods * math.pi
        argv = ("events", "--t-range", _range(t0, t_hi, 2),
                "--j-range", _range(j0, j0 + 2.0, 2),
                "--resolution", str(resolution))
        cells = periods * resolution * (2 * resolution + 1)
        return Workload(name, k, smoke, argv, "csv", cells,
                        window=(t0, t_hi, j0, j0 + 2.0))
    samples, periods = (21, 2) if smoke else (20001, 200)
    argv = ("evolve", "--j", "0.5",
            "--t-range", _range(t0, t0 + periods * math.pi, samples))
    return Workload(name, k, smoke, argv, "csv", samples, rows=samples)
