"""Output checks: decide, per command, how many operations failed.

An operation is one report verdict set (``report``), one reported event
(``events-wide``) or one CSV row (``spectral-jsweep``, ``evolve-long``).

Two kinds of failure are kept apart.  ``failed`` counts every operation
whose outcome departs from the seed's: a wrong verdict set, row or event,
and every event the program itself leaves unconfirmed beyond the number
it left unconfirmed at the seed.  The seed's own unconfirmed events (one
spurious near-duplicate of the (pi, J = 2) transfer at grid offset 0) are
reported, not failed, so the seed code fails no operation.  ``errors``
lists only what makes the output wrong: a changed report verdict set, an
event flagged confirmed that is not a transfer, a lost event, a row that
breaks an invariant or departs from the seed reference.  A run is correct
when no command produced an error.

Outputs are compared with a compact reference (``reference.json``, written
by ``make_reference.py``).  Tables follow the "same behaviour" tolerances:
closed-form columns byte-identical, Wootters and numeric columns within
1e-14 on every row (``spectral-jsweep``) or on a fixed sample of rows and
the column maximum (``evolve-long``, whose per-row bounds cover the rest).
Events must keep the reference's event count and every confirmed snapped
(m, J) transfer it found; the reference also keeps how many events the
seed left unconfirmed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TOLERANCE = 1e-14
SAMPLES = 32   # reference rows kept per tolerance column, unless every_row

# The two documented discrepancies (acceptance criteria 2 and 7).
REPORT_FAILED_CHECKS = ("closed_form_c12_c34_match_wootters", "wstate_scan_empty")
REPORT_EXIT = 2


@dataclass
class Outcome:
    ops: int
    failed: int
    errors: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TableSpec:
    exact: tuple[str, ...]               # closed-form columns: byte-identical
    tol: tuple[str, ...]                 # Wootters / numeric columns
    bounds: dict                         # column -> (lo, hi), inclusive
    every_row: bool = False              # keep every tol value, not SAMPLES


_AMPS = ("a0001", "a0010", "a0100", "a1000")
TABLES = {
    "spectral-jsweep": TableSpec(
        exact=("t", "j", "gap_closed_form"),
        tol=("gap_from_states",),
        bounds={"gap_closed_form": (-1.0 - 1e-12, 1.0 + 1e-12),
                "gap_from_states": (-1.0 - 1e-12, 1.0 + 1e-12)},
        every_row=True),
    "evolve-long": TableSpec(
        exact=("t", *(f"{p}_{a}" for a in _AMPS for p in ("re", "im")),
               *(f"abs_{a}" for a in _AMPS)),
        tol=("norm_error", "sector_leak", "numeric_deviation"),
        bounds={**{f"abs_{a}": (0.0, 1.0 + 1e-12) for a in _AMPS},
                "norm_error": (0.0, 1e-10), "sector_leak": (0.0, 1e-12),
                "numeric_deviation": (0.0, 1e-9)}),
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check(work, exit_code, out_path: Path, reference: dict) -> Outcome:
    """Check one command's exit code and output file."""
    ops = work.rows or 1
    expected_exit = REPORT_EXIT if work.name == "report" else 0
    if exit_code != expected_exit:
        return Outcome(ops, ops, [f"exit code {exit_code}, expected {expected_exit}"])
    ref = None if work.name == "report" else reference[work.ref_key]
    try:
        if work.name == "report":
            return _check_report(work, out_path)
        if work.name == "events-wide":
            return _check_events(work, out_path, ref)
        return _check_table(work, out_path, ref)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(ops, ops, [f"unreadable output: {exc!r}"])


def _check_report(work, out_path: Path) -> Outcome:
    payload = json.loads(out_path.read_text())
    errors = []
    failed_checks = tuple(sorted(k for k, ok in payload["checks"].items() if not ok))
    if failed_checks != REPORT_FAILED_CHECKS:
        errors.append(f"failed checks {failed_checks}, expected {REPORT_FAILED_CHECKS}")
    count = payload["results"]["wstate"]["count"]
    if count != work.wstate_count:
        errors.append(f"{count} W candidates, expected {work.wstate_count}")
    deviation = payload["results"]["oracle"]["max_deviation"]
    if not deviation < 1e-9:
        errors.append(f"oracle deviation {deviation!r} is not below 1e-9")
    return Outcome(1, int(bool(errors)), errors)


# ---------------------------------------------------------------------------
# events-wide: every confirmed event must be a lattice transfer
# ---------------------------------------------------------------------------

def _is_lattice_transfer(m: int, J: Fraction) -> bool:
    """gap(m*pi, J) = (-1)**(m+1) cos(m*pi*J) equals 1 exactly."""
    mJ = m * J
    return mJ.denominator == 1 and (mJ.numerator - (m + 1)) % 2 == 0


def _event_problem(row: dict, window) -> str | None:
    t_lo, t_hi, j_lo, j_hi = window
    t, gap = float(row["t"]), float(row["gap_value"])
    c12, c34 = float(row["c12"]), float(row["c34"])
    if not (gap >= 1.0 - 1e-10 and c12 <= 1e-8 and c34 >= 1.0 - 1e-8):
        return f"confirmed event at t={row['t']} J={row['j']} misses the transfer tolerances"
    if row["snapped"] == "True":
        m, J = int(row["m"]), Fraction(row["j"])
        if not (m >= 1 and t == m * math.pi and _is_lattice_transfer(m, J)
                and t_lo <= t < t_hi and j_lo <= J <= j_hi):
            return f"snapped event (m={m}, J={J}) is not a lattice transfer in the window"
        return None
    J = float(row["j"])
    exact_gap = -math.cos(J * t) * math.cos(t) ** 3
    if not abs(exact_gap - 1.0) <= 1e-9:
        return f"confirmed event at t={t!r} J={J!r} has exact gap {exact_gap!r}"
    return None


def _read_events(out_path: Path) -> list[dict]:
    with open(out_path, newline="") as fh:
        return list(csv.DictReader(fh))


def _confirmed_snapped(rows) -> list[list]:
    """Sorted [m, J] of the confirmed events snapped onto the lattice."""
    keys = {(int(r["m"]), Fraction(r["j"])) for r in rows
            if r["confirmed"] == "True" and r["snapped"] == "True"}
    return [[m, str(J)] for m, J in sorted(keys)]


def events_fingerprint(out_path: Path) -> dict:
    """Event count, unconfirmed count and confirmed snapped transfers, as
    kept in the reference."""
    rows = _read_events(out_path)
    return {"events": len(rows),
            "unconfirmed": sum(1 for r in rows if r["confirmed"] != "True"),
            "confirmed_snapped": _confirmed_snapped(rows)}


def _check_events(work, out_path: Path, ref: dict) -> Outcome:
    rows = _read_events(out_path)
    errors, unconfirmed, seen = [], 0, set()
    for row in rows:
        key = (row["m"], row["t"], row["j"])
        if key in seen:
            errors.append(f"duplicate event {key}")
        seen.add(key)
        if row["confirmed"] != "True":
            unconfirmed += 1      # the program's own verdict
            continue
        problem = _event_problem(row, work.window)
        if problem:
            errors.append(problem)
    if len(rows) != ref["events"]:
        errors.append(f"{len(rows)} events reported, the reference has {ref['events']}")
    found = {tuple(k) for k in _confirmed_snapped(rows)}
    lost = [k for k in ref["confirmed_snapped"] if tuple(k) not in found]
    if lost:
        errors.append(f"{len(lost)} confirmed transfers of the reference are lost, "
                      f"first (m, J) = {tuple(lost[0])}")
    info = {"events": len(rows), "unconfirmed": unconfirmed,
            "unconfirmed_at_seed": ref["unconfirmed"]}
    # only unconfirmed events beyond the seed's count are failed operations
    extra = max(0, unconfirmed - ref["unconfirmed"])
    ops = max(1, len(rows), ref["events"])
    return Outcome(ops, min(ops, extra + len(errors) + len(lost)), errors, info)


# ---------------------------------------------------------------------------
# Tables: invariants plus the seed reference
# ---------------------------------------------------------------------------

def table_fingerprint(work, out_path: Path) -> dict:
    """Header, row count, digest of the closed-form columns, sampled (or
    all) and maximal values of the tolerance columns, and rows breaking an
    invariant."""
    spec = TABLES[work.name]
    stride = 1 if spec.every_row else max(1, work.rows // SAMPLES)
    digest = hashlib.sha256()
    samples = {c: [] for c in spec.tol}
    maxima = {c: -math.inf for c in spec.tol}
    bad_rows, rows = 0, 0
    with open(out_path, newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        exact = [header.index(c) for c in spec.exact]
        tol = [(c, header.index(c)) for c in spec.tol]
        bounds = [(header.index(c), lo, hi) for c, (lo, hi) in spec.bounds.items()]
        for rows, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            digest.update(",".join([fields[i] for i in exact]).encode() + b"\n")
            # every field is a %.17g float, so only "nan" and "inf" hold an n
            if (len(fields) != len(header) or "n" in line
                    or not all(lo <= float(fields[i]) <= hi for i, lo, hi in bounds)):
                bad_rows += 1
            for c, i in tol:
                value = float(fields[i])
                maxima[c] = max(maxima[c], value)
                if (rows - 1) % stride == 0:
                    samples[c].append(value)
    return {"header": header, "rows": rows, "exact_sha256": digest.hexdigest(),
            "samples": samples, "maxima": maxima, "bad_rows": bad_rows}


def _check_table(work, out_path: Path, ref: dict) -> Outcome:
    got = table_fingerprint(work, out_path)
    ops = max(work.rows, got["rows"])
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return Outcome(ops, ops, [f"shape {got['rows']} x {got['header']} differs "
                                  f"from the reference {ref['rows']} x {ref['header']}"])
    if got["exact_sha256"] != ref["exact_sha256"]:
        return Outcome(ops, ops, ["closed-form columns are not byte-identical "
                                  "to the seed reference"])
    errors, failed = [], got["bad_rows"]
    if failed:
        errors.append(f"{failed} rows break an invariant (finite values, "
                      f"bounds {TABLES[work.name].bounds})")
    for c in TABLES[work.name].tol:
        off = [abs(a - b) for a, b in zip(got["samples"][c], ref["samples"][c])]
        off.append(abs(got["maxima"][c] - ref["maxima"][c]))
        bad = sum(1 for d in off if not d <= TOLERANCE)
        if bad:
            failed += bad
            errors.append(f"{c}: {bad} kept values differ from the reference "
                          f"by up to {max(off):.3e} (tolerance {TOLERANCE:g})")
    return Outcome(ops, min(ops, failed), errors)
