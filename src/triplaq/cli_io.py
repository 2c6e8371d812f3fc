"""Command-line front end: sweeps, reports, and file output.

Subcommands: evolve, surface, table1, events, forbidden, wstate, report.
Every result is in units of the ring coupling D; ``evolve`` and ``surface``
take ``--d`` and evaluate at (D*t, J/D), writing the t and J they were given.
CSV output is comma-separated with a header row, LF line endings and
17-significant-digit floats, so downstream equality checks are exact;
repeated runs with the same configuration are byte-identical.

Exit codes: 0 all checks pass, 1 usage or configuration error,
2 numerical-health or certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dynamics import (
    TIME_CHUNK,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
    oracle_equivalence_report,
    phase_aligned_distance,
)
from .entanglement import (
    ALL_PAIRS,
    SCAN_PAIRS,
    closed_form_c12,
    closed_form_c13,
    closed_form_c34,
    concurrence_gap,
    gap_from_state,
    pair_concurrences,
    state_concurrence,
)
from .errors import ConfigError, ContractViolationError, NumericalHealthError, TriplaqError
from .qst_analysis import (
    find_qst_J,
    forbidden_J_scan,
    gap_at_transfer_times,
    is_lattice_transfer,
    locate_events_2d,
    periodicity_report,
    sequence_table,
    verify_transfers,
    wstate_candidate_from_state,
    wstate_scan,
)
from .spin_core import (
    SINGLE_EXCITATION_INDICES,
    build_hamiltonian,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
    norm_error,
    parse_geometry_text,
    sector_leak,
    swapped_control_plaquette,
)

SCHEMA_VERSION = 1
KNOWN_SIGNALS = ("C12", "C34", "C13", "C24", "GAP")
#: Largest grid a command may evaluate, checked before anything is allocated.
MAX_GRID_POINTS = 2 ** 24
#: Largest phase (|J| + D)*|t| that evolve and surface evaluate.  Over
#: J in {0, +-0.5, +-2, 3, +-1e3, L - 1} at 4001 samples the numeric route
#: misses the closed form by at most 3.3e-10 at L = 2**20, 8.0e-10 at 2**21
#: and 1.3e-9 at 2**22, beyond the report's 1e-9 oracle bound.
MAX_PHASE = 2.0 ** 20


@dataclass(frozen=True)
class SweepConfig:
    t_min: float = 0.0
    t_max: float = 4.0 * np.pi
    t_steps: int = 129
    j_min: float = 0.0
    j_max: float = 2.0
    j_steps: int = 65
    d: float = 1.0
    geometry: str = "default"
    out: str = ""
    fmt: str = "csv"
    threshold: float = 1e-3

    def __post_init__(self):
        for name in ("t_min", "t_max", "j_min", "j_max", "d", "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_steps < 2 or self.j_steps < 2:
            raise ConfigError("t_steps and j_steps must both be at least 2")
        if not self.t_min < self.t_max:
            raise ConfigError(f"need t_min < t_max, got {self.t_min} >= {self.t_max}")
        if not self.j_min < self.j_max:
            raise ConfigError(f"need j_min < j_max, got {self.j_min} >= {self.j_max}")
        if not self.d > 0:
            raise ConfigError(f"d must be positive, got {self.d}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        if not self.threshold > 0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    def j_grid(self) -> np.ndarray:
        return np.linspace(self.j_min, self.j_max, self.j_steps)


_CONFIG_TYPES = {f.name: f.type for f in fields(SweepConfig)}

#: The options that set SweepConfig fields: the fields each one sets, and its
#: parser arguments.  ``--out`` sets ``out``, which every subcommand reads.
_SHARED_OPTIONS = {
    "--t-range": (("t_min", "t_max", "t_steps"),
                  {"metavar": "A:B:N", "help": "time grid, in units of 1/D"}),
    "--j-range": (("j_min", "j_max", "j_steps"),
                  {"metavar": "A:B:N", "help": "coupling grid, in units of D"}),
    "--d": (("d",), {"type": float, "help": "ring coupling D, the unit (default 1)"}),
    "--geometry": (("geometry",), {"help": "default, swapped-control or a file path"}),
    "--threshold": (("threshold",), {"type": float, "help": "W-scan threshold"}),
    "--format": (("fmt",), {"dest": "fmt", "choices": ("csv", "json")}),
}

#: The shared options, and so the SweepConfig fields, each subcommand reads.
#: It builds each subcommand's parser, and a config file may set only the
#: fields its subcommand reads.
COMMAND_OPTIONS = {
    "evolve": ("--t-range", "--d", "--geometry", "--format"),
    "surface": ("--t-range", "--j-range", "--d", "--geometry", "--format"),
    "table1": ("--format",),
    "events": ("--t-range", "--j-range", "--format"),
    "forbidden": ("--format",),
    "wstate": ("--t-range", "--j-range", "--threshold", "--format"),
    "report": ("--t-range", "--j-range", "--geometry", "--threshold"),
}


def config_from_text(text: str, command: str | None = None) -> SweepConfig:
    """Parse flat ``key = value`` lines; given ``command``, a key for a field
    that command does not read is an error."""
    reads = None if command is None else {"out", *(
        name for option in COMMAND_OPTIONS[command] for name in _SHARED_OPTIONS[option][0])}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if reads is not None and key not in reads:
            raise ConfigError(f"config line {lineno}: {command} does not read {key!r}")
        try:
            if key in ("t_steps", "j_steps"):
                values[key] = int(value)
            elif key in ("geometry", "out", "fmt"):
                values[key] = value.strip("'\"")
            else:
                values[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from None
    return SweepConfig(**values)


def load_config(path: str, command: str) -> SweepConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return config_from_text(p.read_text(), command)


def _check_grid(points: float, *flags: str) -> None:
    if not points <= MAX_GRID_POINTS:
        raise ConfigError(f"{', '.join(flags)}: a grid of {points:.3g} points "
                          f"exceeds the limit of {MAX_GRID_POINTS}")


def _scan_points(cfg: SweepConfig, resolution: int) -> float:
    """Points of an events or wstate grid, ``resolution`` per pi and per unit J."""
    return ((cfg.t_max - cfg.t_min) / np.pi * resolution
            * ((cfg.j_max - cfg.j_min) * resolution + 1))


def _check_phases(cfg: SweepConfig, j_abs: float, j_flag: str) -> None:
    phase = (j_abs + cfg.d) * max(abs(cfg.t_min), abs(cfg.t_max))
    if not phase <= MAX_PHASE:
        raise ConfigError(f"{j_flag}, --d, --t-range: phases (|J| + D)*t up to "
                          f"{phase:.3g} exceed the limit of {MAX_PHASE:.0f}")


def resolve_geometry(name_or_path: str, J: float):
    """Builtin name ('default', 'swapped-control') or a bond-record file."""
    if name_or_path == "default":
        return default_plaquette(J)
    if name_or_path == "swapped-control":
        return swapped_control_plaquette(J)
    p = Path(name_or_path)
    if not p.is_file():
        raise ConfigError(f"geometry file not found: {name_or_path}")
    return parse_geometry_text(p.read_text(), J=J, name=p.name)


@contextmanager
def _hamiltonian_flags(flags: str):
    """Turn a Hamiltonian the eigensolver rejects (a non-finite entry or an
    overflowing norm) into a configuration error naming the flags that set it;
    the arithmetic that makes one raises no numpy warning on the way."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ContractViolationError as exc:
        raise ConfigError(f"{flags}: Hamiltonian cannot be diagonalized: {exc}") from None


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt_float(x) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: list[str], rows) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(
                    v if isinstance(v, str) else _fmt_float(v) for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: str, payload) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _write_table(path: str, fmt: str, header: list[str], rows,
                 json_payload) -> None:
    if fmt == "csv":
        write_csv(path, header, rows)
    else:
        write_json(path, json_payload)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_EVOLVE_HEADER = [
    "t",
    "re_a0001", "im_a0001", "re_a0010", "im_a0010",
    "re_a0100", "im_a0100", "re_a1000", "im_a1000",
    "abs_a0001", "abs_a0010", "abs_a0100", "abs_a1000",
    "norm_error", "sector_leak", "numeric_deviation",
]


def cmd_evolve(cfg: SweepConfig, J: float) -> dict:
    """Closed-form trajectory at fixed J with the numeric-route deviation,
    evaluated at (D*t, J/D); the rows carry the t given."""
    _check_grid(cfg.t_steps, "--t-range")
    _check_phases(cfg, abs(J), "--j")
    geom = resolve_geometry(cfg.geometry, J / cfg.d)
    with _hamiltonian_flags("--j, --d"):
        decomp = hermitian_eigendecompose(build_hamiltonian(geom))
    psi0 = initial_bell_state()
    ts = cfg.t_grid()
    rows = []
    worst_dev = worst_norm = worst_leak = 0.0
    for lo in range(0, ts.size, TIME_CHUNK):
        t = ts[lo:lo + TIME_CHUNK]
        t_d = cfg.d * t
        psi_c = closed_form_state(t_d, J / cfg.d)
        psi_n = evolve_numeric(decomp, psi0, t_d)
        dev = phase_aligned_distance(psi_n, psi_c)
        nerr, leak = norm_error(psi_n), sector_leak(psi_n)
        worst_dev = max(worst_dev, float(dev.max()))
        worst_norm = max(worst_norm, float(nerr.max()))
        worst_leak = max(worst_leak, float(leak.max()))
        amps = psi_c[:, SINGLE_EXCITATION_INDICES]
        re, im = amps.real, amps.imag
        # np.hypot rounds like Python's abs() of a complex; np.abs can be 1 ulp off
        rows += np.column_stack([t, np.stack([re, im], axis=-1).reshape(-1, 8),
                                 np.hypot(re, im), nerr, leak, dev]).tolist()
    payload = {"columns": _EVOLVE_HEADER, "rows": rows, "J": J, "D": cfg.d,
               "geometry": cfg.geometry}
    _write_table(cfg.out, cfg.fmt, _EVOLVE_HEADER, rows, payload)
    return {"rows": len(rows), "max_numeric_deviation": worst_dev,
            "max_norm_error": worst_norm, "max_sector_leak": worst_leak}


_SIGNAL_COLUMNS = {
    "C12": ("c12_wootters", "c12_closed_form"),
    "C34": ("c34_wootters", "c34_closed_form"),
    "C13": ("c13_wootters", "c13_closed_form"),
    "C24": ("c24_wootters",),
    "GAP": ("gap_closed_form", "gap_from_states"),
}


def cmd_surface(cfg: SweepConfig, signals) -> dict:
    """Signal surfaces on the (t, J) grid, rows ordered t-major.

    For each requested signal both the Wootters column and the closed-form
    column are emitted when both exist, so the discrepancy between them can
    be plotted externally.  Every point is evaluated at (D*t, J/D); the rows
    carry the t and J given.
    """
    signals = list(signals)
    if not signals:
        raise ConfigError("at least one signal is required")
    unknown = [s for s in signals if s not in KNOWN_SIGNALS]
    if unknown:
        raise ConfigError(f"unknown signals {unknown}; choose from {KNOWN_SIGNALS}")
    _check_grid(cfg.t_steps * cfg.j_steps, "--t-range", "--j-range")
    ordered = [s for s in KNOWN_SIGNALS if s in signals]
    header = ["t", "j"]
    for s in ordered:
        header.extend(_SIGNAL_COLUMNS[s])
    _check_phases(cfg, max(abs(cfg.j_min), abs(cfg.j_max)), "--j-range")
    ts, js = cfg.t_grid(), cfg.j_grid()
    ts_d, js_d = cfg.d * ts, js / cfg.d
    if cfg.geometry == "default":
        states = closed_form_state(ts_d[:, None], js_d)
    else:
        # one stacked decomposition per chunk of at most TIME_CHUNK
        # couplings, chunks of equal size, bounds the memory of each stack
        geom = resolve_geometry(cfg.geometry, 0.0)
        psi0 = initial_bell_state()
        per_j = []
        for chunk in np.array_split(js_d, -(-js_d.size // TIME_CHUNK)):
            with _hamiltonian_flags("--j-range, --d"):
                decomp = hermitian_eigendecompose(np.stack(
                    [build_hamiltonian(geom.with_couplings(J=float(J))) for J in chunk]))
            per_j.append(evolve_numeric(decomp, psi0, ts_d))
            del decomp      # free it before the next stack is built
        states = np.concatenate(per_j).swapaxes(0, 1)
    rows = []
    for t, t_d, row_states in zip(ts, ts_d, states):
        for J, j_d, psi in zip(js, js_d, row_states):
            t_f, j_f = float(t_d), float(j_d)
            row = [float(t), float(J)]
            for s in ordered:
                if s == "C12":
                    row += [state_concurrence(psi, (1, 2)), closed_form_c12(t_f, j_f)]
                elif s == "C34":
                    row += [state_concurrence(psi, (3, 4)), closed_form_c34(t_f, j_f)]
                elif s == "C13":
                    row += [state_concurrence(psi, (1, 3)), closed_form_c13(t_f, j_f)]
                elif s == "C24":
                    row += [state_concurrence(psi, (2, 4))]
                else:
                    row += [concurrence_gap(t_f, j_f), gap_from_state(psi)]
            rows.append(row)
    payload = {"columns": header, "rows": rows, "signals": ordered, "D": cfg.d,
               "geometry": cfg.geometry}
    _write_table(cfg.out, cfg.fmt, header, rows, payload)
    return {"rows": len(rows), "columns": header}


def _verify_cell(m: int, j_values) -> tuple[bool, bool]:
    js = np.array([float(j) for j in j_values])
    gap_ok = (all(is_lattice_transfer(m, j) for j in j_values)
              and bool(np.all(np.abs(concurrence_gap(m * np.pi, js) - 1.0) <= 1e-12)))
    return gap_ok, bool(verify_transfers(m * np.pi, js)[2].all())


def cmd_table1(cfg: SweepConfig, max_m: int) -> dict:
    """The fractional-coupling table with per-cell verification status."""
    if max_m < 1:
        raise ConfigError(f"max_m must be at least 1, got {max_m}")
    entries = sequence_table(max_m)
    rows_by_m: dict[int, list] = {m: [] for m in range(1, max_m + 1)}
    for e in entries:
        rows_by_m[e.m].append(e)
    json_rows, csv_rows, populated = [], [], 0
    all_ok = True
    for m in range(1, max_m + 1):
        fams = []
        populated += 1  # the shared transfer-time cell of the row
        for e in rows_by_m[m]:
            gap_ok, wootters_ok = _verify_cell(m, e.values)
            all_ok &= gap_ok and wootters_ok
            fams.append({"label": e.label, "k": e.family,
                         "j_values": [str(e.lower), str(e.upper)],
                         "gap_exact_ok": gap_ok, "wootters_ok": wootters_ok})
            csv_rows.append([str(m), str(e.family), e.label, str(e.lower),
                             str(e.upper), str(m), str(gap_ok), str(wootters_ok)])
            populated += 1
        json_rows.append({"m": m, "transfer_time_over_pi": m, "families": fams})
    payload = {"max_m": max_m, "rows": json_rows, "populated_cells": populated,
               "all_verified": all_ok}
    header = ["m", "k", "label", "j_lower", "j_upper", "t_over_pi",
              "gap_exact_ok", "wootters_ok"]
    _write_table(cfg.out, cfg.fmt, header, csv_rows, payload)
    return {"populated_cells": populated, "all_verified": all_ok}


def _event_dict(e) -> dict:
    return {"m": e.m, "t": e.t, "j": str(e.J) if isinstance(e.J, Fraction) else e.J,
            "gap_value": e.gap_value, "c12": e.c12, "c34": e.c34,
            "confirmed": e.confirmed, "snapped": e.snapped}


def cmd_events(cfg: SweepConfig, resolution: int) -> dict:
    if resolution < 64:
        raise ConfigError(f"--resolution must be at least 64 points per pi, got {resolution}")
    _check_grid(_scan_points(cfg, resolution), "--t-range", "--j-range", "--resolution")
    events = locate_events_2d((cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max),
                              resolution)
    payload = {"events": [_event_dict(e) for e in events], "count": len(events)}
    header = ["m", "t", "j", "gap_value", "c12", "c34", "confirmed", "snapped"]
    rows = [[str(e.m), e.t, str(e.J), e.gap_value, e.c12, e.c34,
             str(e.confirmed), str(e.snapped)] for e in events]
    _write_table(cfg.out, cfg.fmt, header, rows, payload)
    return {"count": len(events),
            "unconfirmed": sum(1 for e in events if not e.confirmed)}


def cmd_forbidden(cfg: SweepConfig, j_values, t_max_scan: float) -> dict:
    if t_max_scan < 2.0 * np.pi:
        raise ConfigError(f"--t-max must cover at least 2*pi, got {t_max_scan}")
    _check_grid(t_max_scan / np.pi * 256, "--t-max")
    results = forbidden_J_scan(j_values, t_max_scan)
    payload = {"t_max": t_max_scan,
               "results": [asdict(r) for r in results]}
    header = ["j", "sup_gap", "t_at_sup", "margin", "forbidden"]
    rows = [[r.J, r.sup_gap, r.t_at_sup, r.margin, str(r.forbidden)]
            for r in results]
    _write_table(cfg.out, cfg.fmt, header, rows, payload)
    return {"results": {str(r.J): r.margin for r in results}}


def cmd_wstate(cfg: SweepConfig, resolution: int) -> dict:
    if resolution < 1:
        raise ConfigError(f"--resolution must be at least 1, got {resolution}")
    _check_grid(_scan_points(cfg, resolution), "--t-range", "--j-range", "--resolution")
    cands = wstate_scan((cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max),
                        resolution, cfg.threshold)
    payload = {"threshold": cfg.threshold,
               "candidates": [asdict(c) for c in cands], "count": len(cands)}
    header = ["t", "j", "c12", "c34", "c13", "c24", "max_deviation_from_half"]
    rows = [[c.t, c.J, *c.concurrences, c.max_deviation_from_half] for c in cands]
    _write_table(cfg.out, cfg.fmt, header, rows, payload)
    return {"count": len(cands)}


# ---------------------------------------------------------------------------
# Consolidated certification report
# ---------------------------------------------------------------------------

_ORACLE_J = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)


def _report_results(cfg: SweepConfig) -> tuple[dict, dict]:
    results: dict = {}
    checks: dict = {}
    _check_grid(max(cfg.t_steps * cfg.j_steps, _scan_points(cfg, 64)),
                "--t-range", "--j-range")
    # the conservation check's Hamiltonians, diagonalized first so that a
    # bad --geometry fails before any scan runs
    geom = resolve_geometry(cfg.geometry, 0.0)
    with _hamiltonian_flags("--geometry"):
        conservation = hermitian_eigendecompose(np.stack(
            [build_hamiltonian(geom.with_couplings(J=J)) for J in (0.0, 0.5, 1.0, 2.0)]))

    # Route equivalence, committed geometry vs swapped negative control.
    t_fine = np.arange(0.0, 8.0 * np.pi + 1e-12, np.pi / 128.0)
    t_coarse = np.arange(0.0, 2.0 * np.pi + 1e-12, np.pi / 16.0)
    oracle = oracle_equivalence_report(_ORACLE_J, t_fine)
    control = oracle_equivalence_report(_ORACLE_J, t_coarse,
                                        geometry_factory=swapped_control_plaquette)
    results["oracle"] = {
        "max_deviation": oracle.max_deviation, "worst_t": oracle.worst_t,
        "worst_j": oracle.worst_J, "points": oracle.points,
        "control_max_deviation": control.max_deviation}
    checks["oracle_equivalence"] = oracle.max_deviation < 1e-9
    checks["negative_control_detects_swap"] = control.max_deviation > 1e-2

    # Closed-form comparison, monogamy and W-scan share one grid sweep, run
    # one t-row at a time so the batches stay small.
    d12 = d34 = d13 = 0.0
    d12_sq = d34_sq = 0.0
    d13_vs_24 = gap_identity = monogamy_excess = 0.0
    wstate_candidates = []
    js = cfg.j_grid()
    col = {pair: k for k, pair in enumerate(ALL_PAIRS)}
    scan_cols = [col[pair] for pair in SCAN_PAIRS]
    i12, i34, i13, i24 = scan_cols
    site_cols = [[col[pair] for pair in ALL_PAIRS if site in pair]
                 for site in range(1, 5)]
    for t in cfg.t_grid():
        t_f = float(t)
        c = pair_concurrences(closed_form_state(t_f, js), ALL_PAIRS)
        p12, p34 = closed_form_c12(t_f, js), closed_form_c34(t_f, js)
        p13 = closed_form_c13(t_f, js)
        d12 = max(d12, float(np.abs(c[:, i12] - p12).max()))
        d34 = max(d34, float(np.abs(c[:, i34] - p34).max()))
        d13 = max(d13, float(np.abs(c[:, i13] - p13).max()))
        d12_sq = max(d12_sq, float(np.abs(c[:, i12] ** 2 - p12).max()))
        d34_sq = max(d34_sq, float(np.abs(c[:, i34] ** 2 - p34).max()))
        d13_vs_24 = max(d13_vs_24, float(np.abs(c[:, i13] - c[:, i24]).max()))
        gap_identity = max(gap_identity, float(
            np.abs(concurrence_gap(t_f, js) - (p34 - p12)).max()))
        for cols in site_cols:
            monogamy_excess = max(monogamy_excess,
                                  float((c[:, cols] ** 2).sum(axis=1).max()) - 1.0)
        dev = np.abs(c[:, scan_cols] - 0.5).max(axis=1)
        for j in np.flatnonzero(dev < cfg.threshold):
            wstate_candidates.append({"t": t_f, "j": float(js[j]),
                                      "max_deviation_from_half": float(dev[j])})
    results["closed_form_comparison"] = {
        "max_abs_diff_c12": d12, "max_abs_diff_c34": d34, "max_abs_diff_c13": d13,
        "max_abs_diff_c12_vs_square": d12_sq, "max_abs_diff_c34_vs_square": d34_sq,
        "max_abs_diff_c13_vs_c24": d13_vs_24,
        "max_gap_identity_defect": gap_identity}
    checks["closed_form_c12_c34_match_wootters"] = d12 < 1e-8 and d34 < 1e-8
    checks["closed_form_c13_discrepancy_detected"] = d13 > 1e-3
    checks["closed_forms_track_squared_wootters"] = d12_sq < 1e-8 and d34_sq < 1e-8
    checks["gap_identity_pointwise"] = gap_identity < 1e-12
    checks["monogamy_bound"] = monogamy_excess <= 1e-9
    results["monogamy_max_excess"] = monogamy_excess

    results["wstate"] = {"threshold": cfg.threshold,
                         "candidates": wstate_candidates,
                         "count": len(wstate_candidates)}
    checks["wstate_scan_empty"] = len(wstate_candidates) == 0
    injected = wstate_candidate_from_state(
        embed_single_excitation((0.5, 0.5, 0.5, 0.5)))
    results["wstate_selftest_deviation"] = injected.max_deviation_from_half
    checks["wstate_selftest"] = injected.max_deviation_from_half < 1e-12

    # Exact gap reduction at transfer times.
    j_dense = np.linspace(cfg.j_min, cfg.j_max, 1001)
    reduction_defect = 0.0
    for m in range(1, 11):
        lhs = concurrence_gap(m * np.pi, j_dense)
        rhs = gap_at_transfer_times(m, j_dense)
        reduction_defect = max(reduction_defect, float(np.abs(lhs - rhs).max()))
    results["gap_reduction_max_defect"] = reduction_defect
    checks["gap_reduction_exact"] = reduction_defect <= 1e-12

    # Fractional table and per-event transfer verification, m <= 7.
    solutions = {m: find_qst_J(m) for m in range(1, 8)}
    c12, c34, ok = verify_transfers(
        np.array([m * np.pi for m, sol in solutions.items() for _ in sol]),
        np.array([float(j) for sol in solutions.values() for j in sol]))
    results["transfer_verification"] = {"max_c12": float(c12.max()),
                                        "min_c34": float(c34.min())}
    checks["table1_families_in_solution_sets"] = all(
        v in solutions[e.m] for e in sequence_table(7) for v in e.values)
    checks["transfers_verified"] = bool(ok.all())

    # Forbidden couplings and the event finder at a pinned forbidden J.
    forb = forbidden_J_scan((1.0, 3.0), 20.0 * np.pi)
    results["forbidden"] = {str(r.J): {"sup_gap": r.sup_gap, "margin": r.margin,
                                       "t_at_sup": r.t_at_sup} for r in forb}
    pinned = locate_events_2d((cfg.t_min, cfg.t_max), (1.0, 1.0), 64)
    results["events_at_pinned_j1"] = len(pinned)
    checks["forbidden_couplings_certified"] = (
        all(r.forbidden for r in forb) and not pinned)

    # Event scan over the configured window.
    events = locate_events_2d((cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max), 64)
    results["events"] = [_event_dict(e) for e in events]
    checks["all_events_confirmed"] = all(e.confirmed for e in events)

    # Conservation along numeric trajectories: 128 times, so one
    # propagation batch of TIME_CHUNK for the whole stack of couplings
    psi = evolve_numeric(conservation, initial_bell_state(),
                         np.arange(0.0, 4.0 * np.pi, np.pi / 32.0))
    worst_norm = float(norm_error(psi).max())
    worst_leak = float(sector_leak(psi).max())
    results["conservation"] = {"max_norm_error": worst_norm,
                               "max_sector_leak": worst_leak}
    checks["norm_sector_conservation"] = worst_norm < 1e-10 and worst_leak < 1e-12

    # Oscillation periods at two representative couplings.
    period_ok = True
    periods = {}
    for J in (0.0, 1.0):
        rows = []
        for est in periodicity_report(J):
            rows.append({"signal": est.signal, "estimated": est.estimated,
                         "exact": est.exact, "degenerate": est.degenerate})
            if est.exact and est.estimated:
                period_ok &= abs(est.estimated - est.exact) < 0.05 * est.exact
        periods[str(J)] = rows
    results["periodicity"] = periods
    checks["periodicity_consistent"] = period_ok

    return results, checks


def cmd_report(cfg: SweepConfig) -> tuple[dict, int]:
    """Single JSON document bundling every certification scan.

    Configuration problems produce a structured error document and exit
    code 1; any failed check yields exit code 2.
    """
    try:
        results, checks = _report_results(cfg)
    except (ConfigError, TriplaqError) as exc:
        payload = {"schema_version": SCHEMA_VERSION,
                   "config_echo": asdict(cfg),
                   "error": {"type": type(exc).__name__, "message": str(exc)}}
        write_json(cfg.out, payload)
        return payload, 1 if isinstance(exc, ConfigError) else 2
    payload = {"schema_version": SCHEMA_VERSION,
               "config_echo": asdict(cfg),
               "results": results,
               "checks": checks}
    write_json(cfg.out, payload)
    return payload, 0 if all(checks.values()) else 2


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must map to exit code 1
        raise ConfigError(message)


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be A:B:N, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from None


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_floats(text: str) -> list[float]:
    values = [_finite_float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="triplaq",
                     description="Four-site plaquette dynamics and "
                                 "entanglement-transfer analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="output file path")
        for option in COMMAND_OPTIONS[name]:
            p.add_argument(option, **_SHARED_OPTIONS[option][1])
        return p

    command("evolve", "trajectory at fixed J").add_argument(
        "--j", type=_finite_float, default=0.5, help="coupling (default 0.5)")
    command("surface", "signal surfaces over (t, J)").add_argument(
        "--signals", default="C12,C34,C13,C24,GAP",
        help="comma list from C12,C34,C13,C24,GAP")
    command("table1", "fractional coupling table").add_argument(
        "--max-m", type=int, default=7)
    command("events", "locate complete-transfer events").add_argument(
        "--resolution", type=int, default=64, help="grid points per pi (>= 64)")
    p = command("forbidden", "certify forbidden couplings")
    p.add_argument("--j-values", type=_finite_floats, default="1,3",
                   help="comma list of couplings")
    p.add_argument("--t-max", dest="t_max_scan", type=_finite_float,
                   default=20.0 * np.pi, help="scan horizon")
    command("wstate", "W-state witness scan").add_argument(
        "--resolution", type=int, default=32, help="grid points per pi / per unit J")
    command("report", "consolidated certification report")
    return parser


def _config_from_args(args) -> SweepConfig:
    cfg = load_config(args.config, args.command) if args.config else SweepConfig()
    overrides = {}
    for dest, value in vars(args).items():
        if value is None:
            continue
        if dest in ("t_range", "j_range"):
            overrides.update(zip(_SHARED_OPTIONS[f"--{dest[0]}-range"][0], _parse_range(value)))
        elif dest in _CONFIG_TYPES:
            overrides[dest] = value
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if not cfg.out:
            ext = "json" if (cfg.fmt == "json" or args.command == "report") else "csv"
            cfg = replace(cfg, out=f"{args.command}.{ext}")
        if args.command == "evolve":
            summary = cmd_evolve(cfg, args.j)
        elif args.command == "surface":
            signals = [s.strip().upper() for s in args.signals.split(",") if s.strip()]
            summary = cmd_surface(cfg, signals)
        elif args.command == "table1":
            summary = cmd_table1(cfg, args.max_m)
        elif args.command == "events":
            summary = cmd_events(cfg, args.resolution)
        elif args.command == "forbidden":
            summary = cmd_forbidden(cfg, args.j_values, args.t_max_scan)
        elif args.command == "wstate":
            summary = cmd_wstate(cfg, args.resolution)
        else:
            payload, code = cmd_report(cfg)
            if "checks" in payload:
                n_fail = sum(1 for ok in payload["checks"].values() if not ok)
                verdict = "all checks pass" if code == 0 else f"{n_fail} failed checks"
            else:
                verdict = "error"
                print(f"error: {payload['error']['message']}", file=sys.stderr)
            print(f"wrote {cfg.out} ({verdict})")
            return code
        print(f"wrote {cfg.out} " + " ".join(f"{k}={v}" for k, v in summary.items()))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalHealthError as exc:
        print(f"numerical-health error: {exc}", file=sys.stderr)
        return 2
    except TriplaqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
