"""Acceptance suite: one test per criterion, one printed status line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.

Criteria 2 and 7 are implemented exactly as stated and FAIL against the
computed ground truth: the closed-form pair expressions track the *squared*
Wootters concurrence (criterion 2), and genuine W states do appear, on the
lattice {(k*pi/2, n/k) : n odd} (criterion 7).  The failure messages carry
the diagnosis; see README, "Known discrepancies".
"""

from fractions import Fraction

import numpy as np
import pytest

from triplaq.cli_io import main
from triplaq.dynamics import closed_form_state, evolve_numeric, \
    hermitian_eigendecompose, oracle_equivalence_report
from triplaq.entanglement import (
    ALL_PAIRS,
    closed_form_c12,
    closed_form_c13,
    closed_form_c34,
    concurrence_gap,
    pair_concurrences,
    state_concurrence,
)
from triplaq.qst_analysis import (
    find_qst_J,
    forbidden_J_scan,
    locate_events_2d,
    sequence_table,
    wstate_candidate_from_state,
    wstate_scan,
)
from triplaq.spin_core import (
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

F = Fraction
CRITERION_J = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)


def _status(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def grid_sweep():
    """Shared 129 x 65 sweep over t in [0, 4pi], J in [0, 2].

    Returns per-point Wootters concurrences for all six pairs, from the
    batched grid engine, plus the three closed-form signals.
    """
    ts = np.linspace(0.0, 4 * np.pi, 129)
    js = np.linspace(0.0, 2.0, 65)
    points = []
    for t in ts:
        t_f = float(t)
        row = pair_concurrences(closed_form_state(t_f, js), ALL_PAIRS)
        for J, conc in zip(js, row):
            j_f = float(J)
            points.append({
                "t": t_f, "J": j_f,
                "conc": {pair: float(c) for pair, c in zip(ALL_PAIRS, conc)},
                "p12": float(closed_form_c12(t_f, j_f)),
                "p34": float(closed_form_c34(t_f, j_f)),
                "p13": float(closed_form_c13(t_f, j_f)),
            })
    return points


def test_criterion_1_oracle_equivalence():
    ts = np.arange(0.0, 8 * np.pi + 1e-12, np.pi / 128)
    committed = oracle_equivalence_report(hermitian_eigendecompose(single_excitation_block(
        build_hamiltonians(default_plaquette(0.0), CRITERION_J))), CRITERION_J, ts)
    control = oracle_equivalence_report(hermitian_eigendecompose(single_excitation_block(
        build_hamiltonians(swapped_control_plaquette(0.0), CRITERION_J))),
        CRITERION_J, np.arange(0.0, 2 * np.pi, np.pi / 16))
    ok = committed.max_deviation < 1e-9 and control.max_deviation > 1e-2
    _status(1, "oracle equivalence", ok,
            f"max dev {committed.max_deviation:.3e} over {committed.points} "
            f"points, control {control.max_deviation:.3e}")
    assert committed.max_deviation < 1e-9
    assert control.max_deviation > 1e-2


def test_criterion_2_closed_form_concurrence_validation(grid_sweep):
    d12 = max(abs(p["conc"][(1, 2)] - p["p12"]) for p in grid_sweep)
    d34 = max(abs(p["conc"][(3, 4)] - p["p34"]) for p in grid_sweep)
    d13 = max(abs(p["conc"][(1, 3)] - p["p13"]) for p in grid_sweep)
    d12_sq = max(abs(p["conc"][(1, 2)] ** 2 - p["p12"]) for p in grid_sweep)
    d34_sq = max(abs(p["conc"][(3, 4)] ** 2 - p["p34"]) for p in grid_sweep)
    ok = d12 < 1e-8 and d34 < 1e-8
    _status(2, "closed-form concurrence validation", ok,
            f"max|w-closed| C12 {d12:.3e} C34 {d34:.3e} C13 {d13:.3e}; "
            f"max|w^2-closed| C12 {d12_sq:.3e} C34 {d34_sq:.3e}")
    # the C13 discrepancy must be detected and reported, not silently passed
    assert d13 > 1e-3, "expected the known C13 closed-form discrepancy"
    assert d12 < 1e-8 and d34 < 1e-8, (
        "closed-form C12/C34 do not equal the Wootters concurrences: "
        f"max deviations {d12:.3e} / {d34:.3e} (0.25 at points like "
        f"t=pi, J=1/2). They equal the squared Wootters values instead "
        f"(max |w^2 - closed| = {max(d12_sq, d34_sq):.3e}), so the "
        "criterion as stated cannot pass; the Wootters route is the "
        "source of truth.")


# the printed three-family table, rows m = 1..7
_TABLE_ROWS = {
    1: {F(0), F(2)},
    2: {F(1, 2), F(3, 2)},
    3: {F(0), F(2, 3), F(4, 3), F(2)},
    4: {F(1, 4), F(3, 4), F(5, 4), F(7, 4)},
    5: {F(0), F(2, 5), F(4, 5), F(6, 5), F(8, 5), F(2)},
    6: {F(1, 6), F(1, 2), F(5, 6), F(7, 6), F(3, 2), F(11, 6)},
    7: {F(2, 7), F(4, 7), F(6, 7), F(8, 7), F(10, 7), F(12, 7)},
}


def test_criterion_3_fractional_table_reproduction():
    # exact rational comparison, zero tolerance
    ok = True
    for m in range(1, 8):
        solutions = set(find_qst_J(m))
        expected = set(_TABLE_ROWS[m])
        if m == 7:
            # the k = 7 family re-admits the interval endpoints at m = 7,
            # beyond the three tabulated columns
            expected |= {F(0), F(2)}
        ok &= solutions == expected
        assert solutions == expected, f"m={m}: {sorted(solutions)}"
    counts = [len(find_qst_J(m)) for m in range(1, 8)]
    table_cells = {m: {v for e in sequence_table(7) if e.m == m
                       for v in e.values} for m in range(1, 8)}
    ok &= table_cells == _TABLE_ROWS
    _status(3, "fractional coupling table", ok,
            f"solution set sizes m=1..7: {counts}; three-family cells "
            f"reproduce the printed table exactly")
    assert table_cells == _TABLE_ROWS
    assert counts == [2, 2, 4, 4, 6, 6, 8]


def test_criterion_4_transfer_verification():
    events = [(m * np.pi, float(J)) for m in range(1, 8) for J in find_qst_J(m)]
    states = np.array([closed_form_state(t, J) for t, J in events])
    worst_c12 = float(state_concurrence(states, (1, 2)).max())
    worst_c34 = float(state_concurrence(states, (3, 4)).min())
    n_events = len(events)
    ok = worst_c12 <= 1e-8 and worst_c34 >= 1 - 1e-8
    _status(4, "transfer verification", ok,
            f"{n_events} events, max C12 {worst_c12:.3e}, "
            f"min C34 {worst_c34:.12f}")
    assert worst_c12 <= 1e-8
    assert worst_c34 >= 1 - 1e-8


def test_criterion_5_forbidden_couplings():
    results = forbidden_J_scan([1.0, 3.0], 20 * np.pi)
    events = locate_events_2d((0.0, 8 * np.pi), (1.0, 1.0), 64)
    ok = all(r.sup_gap < 1.0 and r.margin > 0.0 for r in results) and not events
    _status(5, "forbidden couplings", ok,
            ", ".join(f"J={r.J:g}: sup {r.sup_gap:.6f} margin {r.margin:.6f}"
                      for r in results) + f"; events at J=1: {len(events)}")
    for r in results:
        assert r.sup_gap < 1.0 and r.margin > 0.0
    assert events == []


def test_criterion_6_gap_identity(grid_sweep):
    js = np.linspace(0.0, 2.0, 1001)
    reduction = max(
        float(np.abs(concurrence_gap(m * np.pi, js)
                     - (-1.0) ** (m + 1) * np.cos(m * np.pi * js)).max())
        for m in range(1, 11))
    pointwise = max(abs(concurrence_gap(p["t"], p["J"]) - (p["p34"] - p["p12"]))
                    for p in grid_sweep)
    ok = reduction <= 1e-12 and pointwise <= 1e-12
    _status(6, "gap identities", ok,
            f"reduction defect {reduction:.3e}, pointwise defect {pointwise:.3e}")
    assert reduction <= 1e-12
    assert pointwise <= 1e-12


def test_criterion_7_wstate_nonexistence(grid_sweep):
    injected = wstate_candidate_from_state(
        embed_single_excitation((0.5, 0.5, 0.5, 0.5)))
    candidates = wstate_scan((0.0, 4 * np.pi), (0.0, 2.0))
    ok = not candidates and injected.max_deviation_from_half == 0.0
    exact_hits = sorted({(round(c.t / np.pi, 4), round(c.J, 4))
                         for c in candidates
                         if c.max_deviation_from_half < 1e-8})
    _status(7, "W-state non-existence", ok,
            f"self-test deviation {injected.max_deviation_from_half:.1e}; "
            f"found {len(candidates)} W points, exact at "
            f"(t/pi, J) = {exact_hits}")
    # harness self-test: exactly one candidate, deviation 0
    assert injected.max_deviation_from_half == pytest.approx(0.0, abs=1e-12)
    assert not candidates, (
        f"the window [0, 4 pi] x [0, 2] holds {len(candidates)} exact W points "
        f"(all four pair concurrences equal 1/2 to "
        f"{max(c.max_deviation_from_half for c in candidates):.1e}) at "
        f"(t/pi, J) = {exact_hits}; the evolved state *is* a W state up to "
        "local phases at every point of the lattice {(k*pi/2, n/k) : k >= 1, "
        "n odd}, where every population |a|^2 is 1/4, so an empty scan is "
        "not attainable.")


def test_criterion_8_conservation_and_monogamy(grid_sweep):
    worst_norm = worst_leak = 0.0
    psi0 = initial_bell_state()
    ts = np.arange(0.0, 8 * np.pi + 1e-12, np.pi / 16)
    for J in CRITERION_J:
        decomp = hermitian_eigendecompose(build_hamiltonian(default_plaquette(J)))
        psi = evolve_numeric(decomp, psi0, ts)
        worst_norm = max(worst_norm, float(norm_error(psi).max()))
        worst_leak = max(worst_leak, float(sector_leak(psi).max()))
    excess = 0.0
    for p in grid_sweep:
        for site in range(1, 5):
            total = sum(p["conc"][pair] ** 2
                        for pair in ALL_PAIRS if site in pair)
            excess = max(excess, total - 1.0)
    ok = worst_norm < 1e-10 and worst_leak < 1e-10 and excess <= 1e-9
    _status(8, "conservation and monogamy", ok,
            f"norm error {worst_norm:.3e}, sector leak {worst_leak:.3e}, "
            f"monogamy excess {excess:.3e}")
    assert worst_norm < 1e-10
    assert worst_leak < 1e-10
    assert excess <= 1e-9


def test_criterion_9_report_determinism(tmp_path):
    args = ["report", "--t-range", f"0:{4 * np.pi}:33", "--j-range", "0:2:17"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    main(args + ["--out", str(out_a)])
    main(args + ["--out", str(out_b)])
    # same config must give byte-identical documents (the config echo differs
    # only through the output path, so compare with that field normalized)
    a = out_a.read_text().replace(str(out_a), "OUT")
    b = out_b.read_text().replace(str(out_b), "OUT")
    ok = a == b
    _status(9, "report determinism", ok, f"{len(a)} bytes compared")
    assert ok
    # and literally byte-identical when re-run onto the same path
    payload_first = out_a.read_bytes()
    main(args + ["--out", str(out_a)])
    assert out_a.read_bytes() == payload_first
