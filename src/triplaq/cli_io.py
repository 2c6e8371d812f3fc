"""Command-line front end: sweeps, reports, and file output.

The subcommands are declared once, in :data:`COMMANDS`.  Every result is in
units of the ring coupling D; ``evolve`` and ``surface`` take ``--d`` and
evaluate at (D*t, J/D), writing the t and J they were given.
CSV output is comma-separated with a header row, LF line endings and
17-significant-digit floats, so downstream equality checks are exact;
repeated runs with the same configuration are byte-identical.

Exit codes: 0 all checks pass, 1 usage or configuration error,
2 numerical-health or certification failure.
"""

import argparse
import itertools
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import (
    AMPLITUDE_BLOCK,
    TIME_CHUNK,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
    oracle_equivalence_report,
    route_chunks,
)
from .entanglement import (
    ALL_PAIRS,
    SCAN_PAIRS,
    closed_form_c12,
    closed_form_c13,
    closed_form_c34,
    concurrence_gap,
    pair_concurrences,
    state_concurrence,
)
from .errors import ConfigError, ContractViolationError, NumericalHealthError, TriplaqError
from .qst_analysis import (
    MAX_PHASE,
    TABLE_FAMILIES,
    TRANSFER_LATTICE,
    W_LATTICE,
    find_qst_J,
    forbidden_J_scan,
    gap_at_transfer_times,
    is_lattice_transfer,
    lattice_count,
    locate_events_2d,
    periodicity_report,
    sequence_table,
    transfer_events,
    verify_transfers,
    w_deviation,
    wstate_candidate_from_state,
    wstate_scan,
)
from .spin_core import (
    SINGLE_EXCITATION_INDICES,
    _validated_replace,
    build_hamiltonian,
    build_hamiltonians,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
    parse_geometry_text,
    single_excitation_block,
    swapped_control_plaquette,
)

SCHEMA_VERSION = 3
#: Largest grid a command may evaluate, checked before anything is allocated.
MAX_GRID_POINTS = 2 ** 24


class _Sweep(NamedTuple):
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


class SweepConfig(_Sweep):
    __slots__ = ()
    _replace = _validated_replace

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("t_min", "t_max", "j_min", "j_max", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_steps < 2 or self.j_steps < 2:
            raise ConfigError("t_steps and j_steps must both be at least 2")
        if self.t_min < 0:
            raise ConfigError(f"--t-range: times must be nonnegative, got t_min = {self.t_min}")
        if not self.t_min < self.t_max:
            raise ConfigError(f"need t_min < t_max, got {self.t_min} >= {self.t_max}")
        if not self.j_min < self.j_max:
            raise ConfigError(f"need j_min < j_max, got {self.j_min} >= {self.j_max}")
        if not self.d > 0:
            raise ConfigError(f"d must be positive, got {self.d}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        return self

    def t_grid(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    def j_grid(self) -> np.ndarray:
        return np.linspace(self.j_min, self.j_max, self.j_steps)


#: The options that set SweepConfig fields: the fields each one sets, and its
#: parser arguments.  ``--out`` sets ``out``, which every subcommand reads.
_SHARED_OPTIONS = {
    "--t-range": (("t_min", "t_max", "t_steps"),
                  {"metavar": "A:B:N", "help": "time grid, in units of 1/D"}),
    "--j-range": (("j_min", "j_max", "j_steps"),
                  {"metavar": "A:B:N", "help": "coupling grid, in units of D"}),
    "--d": (("d",), {"type": float, "help": "ring coupling D, the unit (default 1)"}),
    "--geometry": (("geometry",), {"help": "default, swapped-control or a file path"}),
    "--format": (("fmt",), {"dest": "fmt", "choices": ("csv", "json")}),
}


def config_from_text(text: str, command: str) -> SweepConfig:
    """Parse flat ``key = value`` lines; a key for a field that ``command``
    does not read is an error."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS_READ[command]:
            raise ConfigError(f"config line {lineno}: {command} does not read {key!r}")
        kind = type(_Sweep._field_defaults[key])
        try:
            values[key] = value.strip("'\"") if kind is str else kind(value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: {exc}") from None
    return SweepConfig(**values)


def _check_grid(points: float, *flags: str, limit: int = MAX_GRID_POINTS) -> None:
    if not points <= limit:
        raise ConfigError(f"{', '.join(flags)}: a grid of {points:.3g} points "
                          f"exceeds the limit of {limit}")


def _scan_points(cfg: SweepConfig, resolution: int) -> float:
    """Points of an events grid, ``resolution`` per pi and per unit J."""
    return ((cfg.t_max - cfg.t_min) / np.pi * resolution
            * ((cfg.j_max - cfg.j_min) * resolution + 1))


def _check_phase(phase: float, flags: str, form: str) -> None:
    if not phase <= MAX_PHASE:
        raise ConfigError(f"{flags}: phases {form} up to {phase:.3g} "
                          f"exceed the limit of {MAX_PHASE:.0f}")


def _check_phases(cfg: SweepConfig, j_abs: float, j_flag: str) -> None:
    _check_phase((j_abs + cfg.d) * max(abs(cfg.t_min), abs(cfg.t_max)),
                 f"{j_flag}, --d, --t-range", "(|J| + D)*t")


def _check_lattice(cfg: SweepConfig, lattice) -> None:
    """Bound a listing of ``lattice`` in the window in phase (D is 1: wstate
    and report take no --d), then in number, before any point is built: a
    listed point costs about 1 KB of Python objects, so at most 2**21 (2 GB)."""
    _check_phase((max(abs(cfg.j_min), abs(cfg.j_max)) + 1.0) * cfg.t_max,
                 "--t-range, --j-range", "(|J| + 1)*t")
    _check_grid(lattice_count(lattice, (cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max)),
                "--t-range", "--j-range", limit=MAX_GRID_POINTS // 8)


def resolve_geometry(name_or_path: str, J: float):
    """Builtin name ('default', 'swapped-control') or a bond-record file."""
    if name_or_path == "default":
        return default_plaquette(J)
    if name_or_path == "swapped-control":
        return swapped_control_plaquette(J)
    p = Path(name_or_path)
    if not p.is_file():
        raise ConfigError(f"geometry file not found: {name_or_path}")
    return parse_geometry_text(p.read_text(), J=J)


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

def write_csv(path: str, header: list[str], rows) -> None:
    """Stream ``rows`` (any iterable of sequences) under ``header``.

    Every row is formatted by one ``%`` template built from the first row:
    ``%s`` where it holds a str, ``%.17g`` elsewhere.  A str in a number
    column, or a row of another length, raises TypeError.
    """
    rows = iter(rows)
    first = next(rows, None)
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            if first is None:
                return
            template = ",".join("%s" if isinstance(v, str) else "%.17g"
                                for v in first) + "\n"
            fh.write(template % tuple(first))
            fh.writelines(template % tuple(row) for row in rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _json_default(obj):
    """Encode what ``json`` does not: Fractions as strings, numpy scalars
    and arrays as Python numbers and lists.  (``np.float64`` is a float and
    never reaches here.)"""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str, payload) -> None:
    import json  # here, not at module level: no CSV command needs it

    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


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
        decomp = hermitian_eigendecompose(build_hamiltonian(geom)[None])
    ts = cfg.t_grid()
    table = np.empty((ts.size, len(_EVOLVE_HEADER)))
    table[:, 0] = ts
    chunks = route_chunks(decomp, (J / cfg.d,), cfg.d * ts)
    for lo, (_, _, amps, dev, nerr, leak) in zip(range(0, ts.size, TIME_CHUNK), chunks):
        re, im = amps.real, amps.imag
        # np.hypot rounds like Python's abs() of a complex; np.abs can be 1 ulp off
        table[lo:lo + dev.size, 1:] = np.column_stack(
            [np.stack([re, im], axis=-1).reshape(-1, 8), np.hypot(re, im), nerr, leak, dev])
    nerr, leak, dev = table[:, 13:].max(axis=0).tolist()
    summary = {"rows": ts.size, "max_numeric_deviation": dev, "max_norm_error": nerr,
               "max_sector_leak": leak}
    if cfg.fmt == "csv":
        # one block of Python floats at a time, never the whole table as lists
        write_csv(cfg.out, _EVOLVE_HEADER,
                  (row for lo in range(0, ts.size, TIME_CHUNK)
                   for row in table[lo:lo + TIME_CHUNK].tolist()))
    else:
        payload = {"columns": _EVOLVE_HEADER, "rows": table.tolist(), "J": J,
                   "D": cfg.d, "geometry": cfg.geometry}
        del table       # the lists hold every value; free the array first
        write_json(cfg.out, payload)
    return summary


#: Columns of each signal: a pair names its Wootters concurrence, two pairs
#: the first minus the second, a function a closed form of (t, J).
_SIGNAL_COLUMNS = {
    "C12": (("c12_wootters", ((1, 2),)), ("c12_closed_form", closed_form_c12)),
    "C34": (("c34_wootters", ((3, 4),)), ("c34_closed_form", closed_form_c34)),
    "C13": (("c13_wootters", ((1, 3),)), ("c13_closed_form", closed_form_c13)),
    "C24": (("c24_wootters", ((2, 4),)),),
    "GAP": (("gap_closed_form", concurrence_gap), ("gap_from_states", ((3, 4), (1, 2)))),
}
KNOWN_SIGNALS = tuple(_SIGNAL_COLUMNS)


def cmd_surface(cfg: SweepConfig, signals: str) -> dict:
    """Signal surfaces on the (t, J) grid, rows ordered t-major.

    For each signal of the comma list ``signals``, in any case, both the
    Wootters column and the closed-form column are emitted when both exist,
    so the discrepancy between them can be plotted externally.  Every point
    is evaluated at (D*t, J/D); the rows carry the t and J given.  Each
    closed form is one array over the grid; each pair's Wootters
    concurrence is one quartic-route call per t-row.
    Any other geometry evolves the Bell pair in its 4x4 single-excitation
    blocks H_DM + J*H_iso: one stack over J, one decomposition.
    """
    signals = [s.strip().upper() for s in signals.split(",") if s.strip()]
    if not signals:
        raise ConfigError("at least one signal is required")
    unknown = [s for s in signals if s not in KNOWN_SIGNALS]
    if unknown:
        raise ConfigError(f"unknown signals {unknown}; choose from {KNOWN_SIGNALS}")
    _check_grid(cfg.t_steps * cfg.j_steps, "--t-range", "--j-range")
    ordered = [s for s in KNOWN_SIGNALS if s in signals]
    columns = [col for s in ordered for col in _SIGNAL_COLUMNS[s]]
    header = ["t", "j"] + [name for name, _ in columns]
    _check_phases(cfg, max(abs(cfg.j_min), abs(cfg.j_max)), "--j-range")
    ts, js = cfg.t_grid(), cfg.j_grid()
    ts_d, js_d = cfg.d * ts, js / cfg.d
    if cfg.geometry == "default":
        states = closed_form_state(ts_d[:, None], js_d)
    else:
        geom = resolve_geometry(cfg.geometry, 0.0)
        with _hamiltonian_flags("--j-range, --d"):
            h_dm, h_one = map(single_excitation_block, build_hamiltonians(geom, (0.0, 1.0)))
            decomp = hermitian_eigendecompose(h_dm + js_d[:, None, None] * (h_one - h_dm))
        psi0 = initial_bell_state()[list(SINGLE_EXCITATION_INDICES)]
        states = embed_single_excitation(evolve_numeric(decomp, psi0, ts_d).swapaxes(0, 1))
    table = np.empty((ts.size, js.size, len(header)))
    table[..., 0], table[..., 1] = ts[:, None], js
    wootters = []
    for k, (_, source) in enumerate(columns, 2):
        if callable(source):
            table[..., k] = source(ts_d[:, None], js_d)
        else:
            wootters.append((k, source))
    pairs = {pair for _, source in wootters for pair in source}
    # one call per t-row and pair: a whole-grid call would hold the reduced
    # matrices and quartic intermediates of every point at once
    for row, row_states in zip(table, states):
        conc = {pair: state_concurrence(row_states, pair) for pair in pairs}
        for k, source in wootters:
            row[:, k] = (conc[source[0]] - conc[source[1]] if len(source) == 2
                         else conc[source[0]])
    table = table.reshape(-1, len(header))
    if cfg.fmt == "csv":
        write_csv(cfg.out, header, (row for lo in range(0, len(table), TIME_CHUNK)
                                    for row in table[lo:lo + TIME_CHUNK].tolist()))
    else:
        write_json(cfg.out, {"columns": header, "rows": table.tolist(), "signals": ordered,
                             "D": cfg.d, "geometry": cfg.geometry})
    return {"rows": len(table), "columns": header}


#: Most states one table1 verification call evaluates, so that memory stays
#: bounded at any --max-m the grid limit admits.
VERIFY_BLOCK = 4096


def _verify_cells(entries) -> tuple[list[bool], list[bool]]:
    """(gap_ok, wootters_ok) of each entry of one block, by one gap call and
    one verify_transfers call.  gap_ok: both couplings pass the exact
    lattice rule and |gap(m*pi, J) - 1| <= 1e-12; wootters_ok: both are
    complete transfers."""
    t = np.array([e.m * np.pi for e in entries for _ in e.values])
    js = np.array([float(j) for e in entries for j in e.values])
    gap_hit = (np.abs(concurrence_gap(t, js) - 1.0) <= 1e-12).reshape(-1, 2).all(axis=1)
    gap_ok = [all(is_lattice_transfer(e.m, j) for j in e.values) and bool(hit)
              for e, hit in zip(entries, gap_hit)]
    return gap_ok, verify_transfers(t, js)[2].reshape(-1, 2).all(axis=1).tolist()


def _table1_cells(max_m: int):
    """(entry, gap_ok, wootters_ok) of every table entry in table order,
    made and verified in blocks of at most VERIFY_BLOCK states (every entry
    holds two couplings), so that only one block is held at a time."""
    entries = sequence_table(max_m)
    while block := list(itertools.islice(entries, VERIFY_BLOCK // 2)):
        yield from zip(block, *_verify_cells(block))


def cmd_table1(cfg: SweepConfig, max_m: int) -> dict:
    """The fractional-coupling table with per-cell verification status.
    CSV rows are written as their blocks are verified; the JSON payload
    holds the whole table, about 600 B a cell, so it takes the listing cap
    of :func:`_check_lattice`."""
    if max_m < 1:
        raise ConfigError(f"max_m must be at least 1, got {max_m}")
    _check_grid(len(TABLE_FAMILIES) * max_m, "--max-m",
                limit=MAX_GRID_POINTS if cfg.fmt == "csv" else MAX_GRID_POINTS // 8)
    # every row m has a shared transfer-time cell, and each entry one more
    summary = {"populated_cells": max_m, "all_verified": True}

    def tallied():
        for e, gap_ok, wootters_ok in _table1_cells(max_m):
            summary["populated_cells"] += 1
            summary["all_verified"] &= gap_ok and wootters_ok
            yield e, gap_ok, wootters_ok

    if cfg.fmt == "csv":
        header = ["m", "k", "label", "j_lower", "j_upper", "t_over_pi",
                  "gap_exact_ok", "wootters_ok"]
        write_csv(cfg.out, header, ([str(e.m), str(e.family), e.label, str(e.lower),
                                     str(e.upper), str(e.m), str(gap_ok), str(wootters_ok)]
                                    for e, gap_ok, wootters_ok in tallied()))
    else:
        families: dict[int, list] = {m: [] for m in range(1, max_m + 1)}
        for e, gap_ok, wootters_ok in tallied():
            families[e.m].append({"label": e.label, "k": e.family,
                                  "j_values": [str(e.lower), str(e.upper)],
                                  "gap_exact_ok": gap_ok, "wootters_ok": wootters_ok})
        write_json(cfg.out, {"max_m": max_m, **summary,
                             "rows": [{"m": m, "transfer_time_over_pi": m, "families": fams}
                                      for m, fams in families.items()]})
    return summary


def _event_dict(e) -> dict:
    return {"m": e.m, "t": e.t, "j": str(e.J) if isinstance(e.J, Fraction) else e.J,
            "gap_value": e.gap_value, "c12": e.c12, "c34": e.c34,
            "confirmed": e.confirmed, "snapped": e.snapped}


def cmd_events(cfg: SweepConfig, resolution: int) -> dict:
    if resolution < 64:
        raise ConfigError(f"--resolution must be at least 64 points per pi, got {resolution}")
    _check_grid(_scan_points(cfg, resolution), "--t-range", "--j-range", "--resolution")
    events = locate_events_2d((cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max), resolution)
    if cfg.fmt == "csv":
        write_csv(cfg.out, ["m", "t", "j", "gap_value", "c12", "c34", "confirmed", "snapped"],
                  ([str(e.m), e.t, str(e.J), e.gap_value, e.c12, e.c34,
                    str(e.confirmed), str(e.snapped)] for e in events))
    else:
        write_json(cfg.out, {"events": [_event_dict(e) for e in events], "count": len(events)})
    return {"count": len(events), "unconfirmed": sum(not e.confirmed for e in events)}


def cmd_forbidden(cfg: SweepConfig, j_values, t_max_scan: float) -> dict:
    if t_max_scan < 2.0 * np.pi:
        raise ConfigError(f"--t-max must cover at least 2*pi, got {t_max_scan}")
    j_abs = max(abs(J) for J in j_values)
    # per coupling, t_max/pi + 2 phase offsets and two windows of |J|/2 + 4 lanes
    _check_grid(len(j_values) * (t_max_scan / np.pi + j_abs + 10.0), "--j-values", "--t-max")
    # the gap's fastest term is cos((|J| + 3)*t)
    _check_phase((j_abs + 3.0) * t_max_scan, "--j-values, --t-max", "(|J| + 3)*t")
    results = forbidden_J_scan(j_values, t_max_scan)
    if cfg.fmt == "csv":
        write_csv(cfg.out, ["j", "sup_gap", "t_at_sup", "margin", "forbidden"],
                  ([r.J, r.sup_gap, r.t_at_sup, r.margin, str(r.forbidden)] for r in results))
    else:
        write_json(cfg.out, {"t_max": t_max_scan, "results": [r._asdict() for r in results]})
    return {"couplings": len(results), "forbidden": sum(r.forbidden for r in results)}


def cmd_wstate(cfg: SweepConfig) -> dict:
    _check_lattice(cfg, W_LATTICE)
    cands = wstate_scan((cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max))
    if cfg.fmt == "csv":
        write_csv(cfg.out, ["t", "j", "c12", "c34", "c13", "c24", "max_deviation_from_half"],
                  ([c.t, c.J, *c.concurrences, c.max_deviation_from_half] for c in cands))
    else:
        write_json(cfg.out, {"candidates": [c._asdict() for c in cands], "count": len(cands)})
    return {"count": len(cands)}


# ---------------------------------------------------------------------------
# Consolidated certification report
# ---------------------------------------------------------------------------

_ORACLE_J = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
_PERIODICITY_J = tuple(map(Fraction, ("0", "1", "1/2", "2/3", "7/64", "1/31", "1/101", "1/511")))
#: The report's W scan lists the grid points whose max |C - 1/2| is below this.
_WSTATE_THRESHOLD = 1e-3


def _grid_sweep(cfg: SweepConfig, results: dict, checks: dict) -> None:
    """The report's closed-form comparison, monogamy check and W scan over
    the configured (t, J) grid.

    They reduce one pair-major grid of pair concurrences, filled in blocks
    of max(1, AMPLITUDE_BLOCK // js.size) t-rows (7 t-rows, 455 states, on
    the default grid), each one :func:`closed_form_state` call and one
    :func:`pair_concurrences` call; each reduction holds at most a few (t, J)
    temporaries besides it, and the grid is freed on return, before the
    report's other scans run.
    """
    ts, js = cfg.t_grid(), cfg.j_grid()
    c = np.empty((len(ALL_PAIRS), ts.size, js.size))
    rows = max(1, AMPLITUDE_BLOCK // js.size)
    for lo in range(0, ts.size, rows):
        psi = closed_form_state(ts[lo:lo + rows, None], js)
        c[:, lo:lo + rows] = np.moveaxis(pair_concurrences(psi, ALL_PAIRS), -1, 0)
    conc = dict(zip(ALL_PAIRS, c))
    w12, w34, w13, w24 = w_scan = [conc[pair] for pair in SCAN_PAIRS]
    tt = ts[:, None]
    p12, p34 = closed_form_c12(tt, js), closed_form_c34(tt, js)
    d12 = float(np.abs(w12 - p12).max())
    d34 = float(np.abs(w34 - p34).max())
    d12_sq = float(np.abs(w12 ** 2 - p12).max())
    d34_sq = float(np.abs(w34 ** 2 - p34).max())
    gap_identity = float(np.abs(concurrence_gap(tt, js) - (p34 - p12)).max())
    del p12, p34
    d13 = float(np.abs(w13 - closed_form_c13(tt, js)).max())
    d13_vs_24 = float(np.abs(w13 - w24).max())
    monogamy_excess = max(0.0, *(
        float(sum(conc[pair] ** 2 for pair in ALL_PAIRS if site in pair).max()) - 1.0
        for site in range(1, 5)))
    dev = w_deviation(w_scan)
    wstate_candidates = [{"t": float(ts[i]), "j": float(js[j]),
                          "max_deviation_from_half": float(dev[i, j])}
                         for i, j in zip(*np.nonzero(dev < _WSTATE_THRESHOLD))]
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

    results["wstate"] = {"threshold": _WSTATE_THRESHOLD, "candidates": wstate_candidates,
                         "count": len(wstate_candidates)}
    checks["wstate_scan_empty"] = len(wstate_candidates) == 0


def _report_results(cfg: SweepConfig) -> tuple[dict, dict]:
    results: dict = {}
    checks: dict = {}
    _check_grid(cfg.t_steps * cfg.j_steps, "--t-range", "--j-range")
    _check_lattice(cfg, TRANSFER_LATTICE)
    # the oracle's Hamiltonians at --geometry and the swapped control's, in
    # one stack: each gets exactly the rotations it gets alone, and a bad
    # --geometry fails here, before any scan runs
    geom = resolve_geometry(cfg.geometry, 0.0)
    with _hamiltonian_flags("--geometry"):
        E, V = hermitian_eigendecompose(np.concatenate(
            [build_hamiltonians(g, _ORACLE_J) for g in (geom, swapped_control_plaquette(0.0))]))
    n = len(_ORACLE_J)

    # Route equivalence at --geometry vs the swapped negative control, and
    # conservation along the oracle's numeric trajectories.
    t_fine = np.arange(0.0, 8.0 * np.pi + 1e-12, np.pi / 128.0)
    t_coarse = np.arange(0.0, 2.0 * np.pi + 1e-12, np.pi / 16.0)
    oracle = oracle_equivalence_report((E[:n], V[:n]), _ORACLE_J, t_fine)
    control = oracle_equivalence_report((E[n:], V[n:]), _ORACLE_J, t_coarse)
    results["oracle"] = {
        "max_deviation": oracle.max_deviation, "worst_t": oracle.worst_t,
        "worst_j": oracle.worst_J, "points": oracle.points,
        "control_max_deviation": control.max_deviation}
    checks["oracle_equivalence"] = oracle.max_deviation < 1e-9
    checks["negative_control_detects_swap"] = control.max_deviation > 1e-2
    results["conservation"] = {"max_norm_error": oracle.max_norm_error,
                               "max_sector_leak": oracle.max_sector_leak}
    checks["norm_sector_conservation"] = (oracle.max_norm_error < 1e-10
                                          and oracle.max_sector_leak < 1e-12)

    _grid_sweep(cfg, results, checks)
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

    # Forbidden couplings, and the transfer lattice of the window at the
    # pinned forbidden J = 1: empty, since n = m never has the parity of m + 1.
    forb = forbidden_J_scan((1.0, 3.0), 20.0 * np.pi)
    results["forbidden"] = {str(r.J): {"sup_gap": r.sup_gap, "margin": r.margin,
                                       "t_at_sup": r.t_at_sup} for r in forb}
    results["events_at_pinned_j1"] = pinned = lattice_count(
        TRANSFER_LATTICE, (cfg.t_min, cfg.t_max), (1.0, 1.0))
    checks["forbidden_couplings_certified"] = (
        all(r.forbidden for r in forb) and pinned == 0)

    # The transfer lattice of the configured window, half-open in t.
    events = transfer_events((cfg.t_min, cfg.t_max), (cfg.j_min, cfg.j_max))
    results["events"] = [_event_dict(e) for e in events]
    checks["all_events_confirmed"] = all(e.confirmed for e in events)

    # Exact revival and signal periods, each checked by repetition
    periods = {str(J): periodicity_report(J) for J in _PERIODICITY_J}
    results["periodicity"] = {J: [s._asdict() for s in p] for J, p in periods.items()}
    checks["periodicity_consistent"] = all(s.verified for p in periods.values() for s in p)

    return results, checks


def cmd_report(cfg: SweepConfig) -> tuple[dict, int]:
    """Single JSON document bundling every certification scan.

    Configuration problems produce a structured error document and exit
    code 1; any failed check yields exit code 2.
    """
    payload = {"schema_version": SCHEMA_VERSION,
               "config_echo": {name: getattr(cfg, name) for name in _FIELDS_READ["report"]}}
    try:
        payload["results"], payload["checks"] = _report_results(cfg)
    except TriplaqError as exc:
        payload["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 1 if isinstance(exc, ConfigError) else 2
    else:
        code = 0 if all(payload["checks"].values()) else 2
    write_json(cfg.out, payload)
    return payload, code


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


class _Command(NamedTuple):
    help: str
    shared: tuple       # the _SHARED_OPTIONS it reads, in --help order
    own: dict           # its own options: flag -> add_argument keywords
    run: Callable       # (cfg, args) -> what its cmd_* function returns


#: Every subcommand: its help line, the shared options it reads, its own
#: options and the call it makes.  Each call looks its cmd_* function up
#: when it runs, so a wrapper bound to that name is the one called.
COMMANDS = {
    "evolve": _Command("trajectory at fixed J", ("--t-range", "--d", "--geometry", "--format"),
                       {"--j": {"type": _finite_float, "default": 0.5,
                                "help": "coupling (default 0.5)"}},
                       lambda cfg, args: cmd_evolve(cfg, args.j)),
    "surface": _Command("signal surfaces over (t, J)",
                        ("--t-range", "--j-range", "--d", "--geometry", "--format"),
                        {"--signals": {"default": ",".join(KNOWN_SIGNALS),
                                       "help": f"comma list from {','.join(KNOWN_SIGNALS)}"}},
                        lambda cfg, args: cmd_surface(cfg, args.signals)),
    "table1": _Command("fractional coupling table", ("--format",),
                       {"--max-m": {"type": int, "default": 7}},
                       lambda cfg, args: cmd_table1(cfg, args.max_m)),
    "events": _Command("locate complete-transfer events", ("--t-range", "--j-range", "--format"),
                       {"--resolution": {"type": int, "default": 64,
                                         "help": "grid points per pi (>= 64)"}},
                       lambda cfg, args: cmd_events(cfg, args.resolution)),
    "forbidden": _Command("certify forbidden couplings", ("--format",),
                          {"--j-values": {"type": _finite_floats, "default": "1,3",
                                          "help": "comma list of couplings"},
                           "--t-max": {"dest": "t_max_scan", "type": _finite_float,
                                       "default": 20.0 * np.pi, "help": "scan horizon"}},
                          lambda cfg, args: cmd_forbidden(cfg, args.j_values, args.t_max_scan)),
    "wstate": _Command("list the exact W points", ("--t-range", "--j-range", "--format"), {},
                       lambda cfg, args: cmd_wstate(cfg)),
    "report": _Command("consolidated certification report",
                       ("--t-range", "--j-range", "--geometry"), {},
                       lambda cfg, args: cmd_report(cfg)),
}

#: The shared options each subcommand reads.
COMMAND_OPTIONS = {name: command.shared for name, command in COMMANDS.items()}

#: The SweepConfig fields each subcommand reads: ``out`` and those its shared
#: options set.  A config file may set only these; the report echoes them.
_FIELDS_READ = {name: ("out", *(field for option in options
                                for field in _SHARED_OPTIONS[option][0]))
                for name, options in COMMAND_OPTIONS.items()}


def build_parser() -> _Parser:
    parser = _Parser(prog="triplaq",
                     description="Four-site plaquette dynamics and "
                                 "entanglement-transfer analysis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="output file path")
        for option in command.shared:
            p.add_argument(option, **_SHARED_OPTIONS[option][1])
        for option, kwargs in command.own.items():
            p.add_argument(option, **kwargs)
    return parser


def _config_from_args(args) -> SweepConfig:
    cfg = SweepConfig()
    if args.config:
        if not Path(args.config).is_file():
            raise ConfigError(f"config file not found: {args.config}")
        cfg = config_from_text(Path(args.config).read_text(), args.command)
    overrides = {}
    for dest, value in vars(args).items():
        if value is None:
            continue
        if dest in ("t_range", "j_range"):
            overrides.update(zip(_SHARED_OPTIONS[f"--{dest[0]}-range"][0], _parse_range(value)))
        elif dest in _FIELDS_READ[args.command]:
            overrides[dest] = value
    return cfg._replace(**overrides)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        if not cfg.out:
            ext = "json" if (cfg.fmt == "json" or args.command == "report") else "csv"
            cfg = cfg._replace(out=f"{args.command}.{ext}")
        result = COMMANDS[args.command].run(cfg, args)
        if args.command == "report":
            payload, code = result
            if "checks" in payload:
                n_fail = sum(1 for ok in payload["checks"].values() if not ok)
                verdict = "all checks pass" if code == 0 else f"{n_fail} failed checks"
            else:
                verdict = "error"
                print(f"error: {payload['error']['message']}", file=sys.stderr)
            print(f"wrote {cfg.out} ({verdict})")
            return code
        print(f"wrote {cfg.out} " + " ".join(f"{k}={v}" for k, v in result.items()))
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
