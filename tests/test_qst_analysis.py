import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplaq import dynamics, qst_analysis
from triplaq.dynamics import closed_form_state, phase_aligned_distance
from triplaq.entanglement import (SCAN_PAIRS, closed_form_c12, closed_form_c13, closed_form_c34,
                                  concurrence_gap, pair_concurrences, state_concurrence)
from triplaq.qst_analysis import (
    find_qst_J,
    forbidden_J_scan,
    gap_at_transfer_times,
    is_lattice_transfer,
    locate_events_2d,
    periodicity_report,
    TRANSFER_LATTICE,
    W_LATTICE,
    _sum,
    _times,
    lattice_count,
    sequence_table,
    transfer_events,
    verify_transfers,
    w_deviation,
    wstate_candidate_from_state,
    wstate_scan,
)
from triplaq.errors import NumericalHealthError
from triplaq.spin_core import embed_single_excitation

F = Fraction

#: (t/pi, J) of the nodes of the 32-per-pi grid of [0, 4 pi] x [0, 2] whose
#: four pair concurrences lie within 1e-3 of 1/2 but are not W points
W_GRID_NEAR_MISSES = ((0.5, 0.96875), (0.5, 1.03125), (1.5, 0.34375), (1.5, 1.65625),
                      (2.5, 0.59375), (2.5, 1.40625), (3.5, 0.71875), (3.5, 1.28125))

# the printed three-family table, rows m = 1..7
TABLE_CELLS = {
    1: {1: (F(0), F(2))},
    2: {1: (F(1, 2), F(3, 2))},
    3: {1: (F(2, 3), F(4, 3)), 3: (F(0), F(2))},
    4: {1: (F(3, 4), F(5, 4)), 3: (F(1, 4), F(7, 4))},
    5: {1: (F(4, 5), F(6, 5)), 3: (F(2, 5), F(8, 5)), 5: (F(0), F(2))},
    6: {1: (F(5, 6), F(7, 6)), 3: (F(1, 2), F(3, 2)), 5: (F(1, 6), F(11, 6))},
    7: {1: (F(6, 7), F(8, 7)), 3: (F(4, 7), F(10, 7)), 5: (F(2, 7), F(12, 7))},
}


class TestTransferTimeReduction:
    def test_known_values(self):
        assert gap_at_transfer_times(1, 0) == pytest.approx(1.0)
        assert gap_at_transfer_times(1, 1) == pytest.approx(-1.0)
        assert gap_at_transfer_times(4, F(1, 4)) == pytest.approx(1.0)

    def test_agrees_with_gap_everywhere(self):
        js = np.linspace(0, 2, 201)
        for m in range(1, 8):
            worst = max(abs(gap_at_transfer_times(m, J)
                            - concurrence_gap(m * np.pi, J)) for J in js)
            assert worst <= 1e-12
            assert np.array_equal(gap_at_transfer_times(m, js),
                                  [gap_at_transfer_times(m, J) for J in js])

    @pytest.mark.parametrize("m", [0, -2, 1.5])
    def test_bad_m_rejected(self, m):
        with pytest.raises(ValueError):
            gap_at_transfer_times(m, 0.5)
        with pytest.raises(ValueError):
            is_lattice_transfer(m, F(1, 2))

    def test_integer_rule_matches_fraction_definition(self):
        def by_fraction(m, J):
            mJ = m * J
            return mJ.denominator == 1 and (mJ.numerator - m - 1) % 2 == 0

        couplings = {F(n, q) for q in range(1, 65) for n in range(-q, 2 * q + 1)}
        cases = [(m, J) for m in range(1, 65) for J in couplings]
        assert [is_lattice_transfer(m, J) for m, J in cases] == [
            by_fraction(m, J) for m, J in cases]

    @given(m=st.integers(1, 64), p=st.integers(-256, 256), q=st.integers(1, 64))
    def test_lattice_rule_matches_float_gap(self, m, p, q):
        exact = is_lattice_transfer(m, F(p, q))
        assert exact == (abs(gap_at_transfer_times(m, F(p, q)) - 1.0) < 1e-12)


class TestSolutionSets:
    def test_small_rows(self):
        assert find_qst_J(1) == (F(0), F(2))
        assert find_qst_J(2) == (F(1, 2), F(3, 2))
        assert find_qst_J(5) == (F(0), F(2, 5), F(4, 5), F(6, 5), F(8, 5), F(2))

    def test_m7_includes_interval_endpoints(self):
        # beyond the three tabulated families, the k = 7 family re-admits
        # the endpoints 0 and 2 at m = 7
        sols = find_qst_J(7)
        assert len(sols) == 8
        assert F(0) in sols and F(2) in sols

    def test_every_solution_is_exact(self):
        for m in range(1, 11):
            for j in find_qst_J(m):
                assert gap_at_transfer_times(m, j) == pytest.approx(1.0, abs=1e-12)

    def test_batched_verification_matches_scalar_route(self):
        for m in range(1, 11):
            js = np.array([float(j) for j in find_qst_J(m)])
            c12, c34, ok = verify_transfers(m * np.pi, js)
            assert ok.all()
            for J, a, b in zip(js, c12, c34):
                psi = closed_form_state(m * np.pi, J)
                assert abs(a - state_concurrence(psi, (1, 2))) <= 1e-14
                assert abs(b - state_concurrence(psi, (3, 4))) <= 1e-14

    def test_solutions_are_reduced_and_sorted(self):
        for m in range(1, 11):
            sols = find_qst_J(m)
            assert list(sols) == sorted(set(sols))
            assert all(isinstance(s, Fraction) for s in sols)


class TestSequenceTable:
    def test_matches_printed_cells(self):
        entries = sequence_table(7)
        got = {}
        for e in entries:
            got.setdefault(e.m, {})[e.family] = e.values
        assert got == TABLE_CELLS

    def test_population_pattern(self):
        per_m = {m: 0 for m in range(1, 8)}
        for e in sequence_table(7):
            per_m[e.m] += 2
        assert per_m == {1: 2, 2: 2, 3: 4, 4: 4, 5: 6, 6: 6, 7: 6}

    def test_labels(self):
        labels = {e.family: e.label for e in sequence_table(7)}
        assert labels == {1: "J*", 3: "J**", 5: "J***"}

    def test_extended_families(self):
        # the law (1 -+ k/m) extends past the printed columns to every odd k
        # <= m; at m = k it gives the endpoints 0 and 2
        for k in (7, 9, 11):
            assert {F(0), F(2)} <= set(find_qst_J(k))
            for m in range(k, 16):
                assert {F(m - k, m), F(m + k, m)} <= set(find_qst_J(m))

    def test_values_belong_to_solution_sets(self):
        for e in sequence_table(9):
            sols = find_qst_J(e.m)
            assert e.lower in sols and e.upper in sols

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            sequence_table(0)


class TestForbiddenScan:
    def test_unit_coupling_never_transfers(self):
        (res,) = forbidden_J_scan([1.0], 20 * np.pi)
        assert res.sup_gap == pytest.approx(0.0, abs=1e-9)
        assert res.forbidden and res.margin == pytest.approx(1.0, abs=1e-9)

    def test_coupling_three(self):
        (res,) = forbidden_J_scan([3.0], 20 * np.pi)
        assert res.sup_gap == pytest.approx(0.25, abs=1e-9)
        assert res.forbidden

    def test_zero_coupling_reaches_one(self):
        (res,) = forbidden_J_scan([0.0], 2 * np.pi)
        assert res.sup_gap == pytest.approx(1.0, abs=1e-10)
        assert res.t_at_sup == pytest.approx(np.pi, abs=1e-4)
        assert not res.forbidden

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            forbidden_J_scan([1.0], np.pi)

    @pytest.mark.parametrize("J, forbidden", [
        ((np.sqrt(5.0) - 1.0) / 2.0, False),  # irrational: approaches 1
        (2 / 511, False),                     # transfers at t = 511 pi
        (1 / 3, True), (1.0, True), (3.0, True),
    ])
    def test_verdict_is_exact_beyond_the_horizon(self, J, forbidden):
        (res,) = forbidden_J_scan([J], 20 * np.pi)
        assert res.forbidden is forbidden
        assert res.margin > 0  # no transfer inside the scanned horizon

    @pytest.mark.parametrize("J", [np.nan, np.inf])
    def test_non_finite_coupling_rejected(self, J):
        with pytest.raises(ValueError, match="finite"):
            forbidden_J_scan([J], 20 * np.pi)

    @settings(max_examples=150, deadline=None)
    @given(J=st.one_of(st.floats(-6.0, 6.0),
                       st.builds(lambda p, q: p / q, st.integers(-30, 30), st.integers(1, 12))),
           t_max=st.floats(2 * np.pi, 40.0))
    def test_supremum_beats_a_dense_grid(self, J, t_max):
        (res,) = forbidden_J_scan([J], t_max)
        assert res.sup_gap == concurrence_gap(res.t_at_sup, J)
        assert 0.0 <= res.t_at_sup <= t_max
        grid = np.linspace(0.0, t_max, 20001)  # holds t_max
        assert res.sup_gap >= concurrence_gap(grid, J).max() - 1e-12

    def test_supremum_at_the_horizon_end(self):
        # t_max = 4*pi + 1 is off the old 256-per-pi grid, which peaked at
        # 0.0059583 one grid step before it
        t_max = 4 * np.pi + 1
        (res,) = forbidden_J_scan([-1.045244], t_max)
        assert res.t_at_sup == t_max
        assert res.sup_gap == pytest.approx(0.0067803, abs=1e-7)

    def test_phase_bound_precedes_any_lane(self):
        # a window at |J| = 1e9 would hold about 5e8 lanes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"coupling 1000000000\.0: phases"):
                forbidden_J_scan([1e9], 2 * np.pi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("t_max", [1e7, 1e300])
    def test_phase_bound_of_an_empty_list(self, t_max):
        # the J = 0 bound: np.arange(round(t_max/pi) + 1) would take 25 MB
        # at 1e7, and numpy rejects its size at 1e300
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"phases 3\*t up to .* exceed the limit"):
                forbidden_J_scan([], t_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert forbidden_J_scan([], 2 * np.pi) == []

    def test_ties_go_to_the_smallest_time(self):
        # J = 1: the gap is -cos(t)**4, 0 at every pi/2 + m*pi; J = 3: 1/4 at
        # pi/4 and every m*pi -+ pi/4; J = 1/3: |phi_m| = 1/3 at m = 1, 2, 4, ...
        one, three, third = forbidden_J_scan([1.0, 3.0, 1 / 3], 20 * np.pi)
        assert (one.sup_gap, one.t_at_sup) == (0.0, np.pi / 2)
        assert three.sup_gap == pytest.approx(0.25, abs=1e-15)
        assert three.t_at_sup == pytest.approx(np.pi / 4, abs=1e-9)
        assert third.t_at_sup < np.pi


class TestEventLocation:
    def test_window_through_m3(self):
        events = locate_events_2d((0.0, 4 * np.pi), (0.0, 2.0), 64)
        got = {(e.m, e.J) for e in events}
        expected = {(1, F(0)), (1, F(2)), (2, F(1, 2)), (2, F(3, 2)),
                    (3, F(0)), (3, F(2, 3)), (3, F(4, 3)), (3, F(2))}
        assert got == expected
        assert all(e.confirmed and e.snapped for e in events)
        assert all(e.c12 <= 1e-8 and e.c34 >= 1 - 1e-8 for e in events)

    def test_events_sorted(self):
        events = locate_events_2d((0.0, 4 * np.pi), (0.0, 2.0), 64)
        keys = [(e.t, float(e.J)) for e in events]
        assert keys == sorted(keys)

    def test_empty_window(self):
        assert locate_events_2d((0.0, np.pi / 2), (0.0, 2.0), 64) == []

    def test_pinned_forbidden_coupling(self):
        assert locate_events_2d((0.0, 6 * np.pi), (1.0, 1.0), 64) == []

    def test_events_verified_in_one_batched_call(self, monkeypatch):
        calls = []

        def spy(t, J):
            calls.append(np.shape(t))
            return verify_transfers(t, J)

        monkeypatch.setattr(qst_analysis, "verify_transfers", spy)
        events = locate_events_2d((0.0, 4 * np.pi), (0.0, 2.0), 64)
        assert calls == [(len(events),)]

    def test_coarse_resolution_rejected(self):
        with pytest.raises(ValueError):
            locate_events_2d((0.0, 2 * np.pi), (0.0, 2.0), 32)


class TestTransferEvents:
    def test_default_window_equals_the_search(self):
        window = (0.0, 4 * np.pi), (0.0, 2.0)
        events = transfer_events(*window)
        assert len(events) == 8 and events == locate_events_2d(*window, 64)

    def test_verified_in_one_batched_call(self, monkeypatch):
        calls = []

        def spy(t, J):
            calls.append(np.shape(t))
            return verify_transfers(t, J)

        monkeypatch.setattr(qst_analysis, "verify_transfers", spy)
        assert len(transfer_events((0.0, 40 * np.pi), (0.0, 2.0))) == 800
        assert calls == [(800,)]

    def test_empty_window(self):
        assert transfer_events((0.0, np.pi), (0.0, 2.0)) == []
        assert transfer_events((0.0, 6 * np.pi), (1.0, 1.0)) == []


def _near(n, k, side):
    """The float n/k, or its neighbour below (side -1) or above (side 1):
    the floats where a lattice point enters or leaves a window."""
    return float(np.nextafter(n / k, side * np.inf) if side else n / k)


class TestWStateScan:
    def test_injected_w_state(self):
        cand = wstate_candidate_from_state(
            embed_single_excitation((0.5, 0.5, 0.5, 0.5)))
        assert cand.max_deviation_from_half == pytest.approx(0.0, abs=1e-12)
        assert all(c == pytest.approx(0.5, abs=1e-12) for c in cand.concurrences)

    def test_scan_finds_genuine_w_points(self):
        cands = wstate_scan((0.0, 4 * np.pi), (0.0, 2.0))
        # the lattice {(k*pi/2, n/k) : n odd}, ordered by t, then J
        assert [(c.t, c.J) for c in cands] == [
            (k * (np.pi / 2), n / k) for k in range(1, 9) for n in range(1, 2 * k, 2)]
        assert len(cands) == 36
        assert max(c.max_deviation_from_half for c in cands) <= 1e-14
        hits = {(c.t / np.pi, c.J) for c in cands}
        # two points between the nodes of a 32-per-pi grid
        assert (1.5, 1 / 3) in hits and (2.5, 1 / 5) in hits
        # and none of that grid's nodes within 1e-3 of 1/2
        for t_pi, J in W_GRID_NEAR_MISSES:
            assert all(abs(t_pi - u) > 1e-9 or abs(J - v) > 1e-9 for u, v in hits)

    @settings(max_examples=300, deadline=None)
    @given(lattice=st.sampled_from([TRANSFER_LATTICE, W_LATTICE]),
           t=st.lists(st.one_of(st.floats(0.0, 20.0),
                                st.builds(_near, st.integers(0, 13), st.just(2),
                                          st.integers(-1, 1)).map(lambda x: x * np.pi)),
                      min_size=2, max_size=2),
           J=st.lists(st.one_of(st.floats(-3.0, 3.0),
                                st.builds(_near, st.integers(-27, 27), st.integers(1, 13),
                                          st.integers(-1, 1))),
                      min_size=2, max_size=2))
    def test_enumeration_matches_brute_force(self, lattice, t, J):
        (t_lo, t_hi), (J_lo, J_hi) = sorted(t), sorted(J)
        step, shift = lattice
        expected = [(k, n) for k in range(1, 14) for n in range(-27 * k - 1, 27 * k + 2)
                    if (n - 1 - shift * k) % 2 == 0
                    and t_lo <= k * step <= t_hi and J_lo <= n / k <= J_hi]
        k, n = qst_analysis._lattice(lattice, t_lo, t_hi, J_lo, J_hi)
        assert k.dtype == n.dtype == np.int64
        assert list(zip(k.tolist(), n.tolist())) == expected
        if t_hi > t_lo:
            assert lattice_count(lattice, (t_lo, t_hi), (J_lo, J_hi)) == len(expected)

    @pytest.mark.parametrize("lattice, window, point", [
        (W_LATTICE, (0.0, 3 * (np.pi / 2), 0.0, 1 / 3), (3, 1)),
        # 7 * (-61/7) rounds to -60.99999999999999, so ceil(k*J) is one high
        (W_LATTICE, (7 * (np.pi / 2),) * 2 + (-61 / 7,) * 2, (7, -61)),
        # (11*pi)/pi is 10.999999999999998, so floor(t/step) is one low
        (TRANSFER_LATTICE, (11 * np.pi,) * 2 + (0.0, 2.0), (11, 22)),
    ], ids=["J_hi=1/3", "ceil-high", "floor-low"])
    def test_window_edges_are_the_printed_floats(self, lattice, window, point):
        """A point whose printed t and J are the window's ends is in it, and
        out of it one float further in."""
        t_lo, t_hi, J_lo, J_hi = window
        narrowed = (t_lo, t_hi, J_lo, np.nextafter(J_hi, -np.inf))
        for window, inside in ((window, True), (narrowed, False)):
            k, n = qst_analysis._lattice(lattice, *window)
            assert (point in zip(k.tolist(), n.tolist())) == inside

    def test_off_lattice_deviation_raises(self, monkeypatch):
        monkeypatch.setattr(qst_analysis, "W_LATTICE", (np.pi / 3, 0))
        with pytest.raises(NumericalHealthError, match="W point"):
            wstate_scan((0.0, 4 * np.pi), (0.0, 2.0))

    def test_reversed_j_range_rejected(self):
        # it once scanned only J = 2 and returned no candidates
        with pytest.raises(ValueError, match="J range"):
            wstate_scan((0.0, 4 * np.pi), (2.0, 0.0))

    def test_reversed_t_range_rejected(self):
        # it once scanned only t = 4 pi and t = 0 and returned 8 candidates
        with pytest.raises(ValueError, match="t range"):
            wstate_scan((4 * np.pi, 0.0), (0.0, 2.0))


class TestWDeviation:
    def test_zero_on_w_state(self):
        c = pair_concurrences(embed_single_excitation((0.5, 0.5, 0.5, 0.5)), SCAN_PAIRS)
        assert w_deviation(c) == 0.0

    def test_largest_distance_from_half(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        c = pair_concurrences(embed_single_excitation(a), SCAN_PAIRS)
        expected = np.abs(c - 0.5).max(axis=1)
        # pair axis first: the transposed stack, or four separate arrays
        assert np.array_equal(w_deviation(c.T), expected)
        assert np.array_equal(w_deviation([c[:, k] for k in range(4)]), expected)
        for row, want in zip(c, expected):
            assert w_deviation(row) == max(abs(row - 0.5)) == want


#: Each periodic signal's closed form.
SIGNALS = {"C12": closed_form_c12, "C34": closed_form_c34, "C13": closed_form_c13,
           "GAP": concurrence_gap}
ONE = {("cos", (0, 0)): F(1)}


def _evaluate(terms, t, J):
    """A polynomial of qst_analysis, {(kind, (a, b)): c} for the terms
    c*kind((a*J + b)*t/2), at float t and rational J."""
    return sum(float(c) * (np.cos if kind == "cos" else np.sin)(float(a * J + b) / 2 * t)
               for (kind, (a, b)), c in terms.items())


@st.composite
def small_fractions(draw):
    """J = p/q with q < 600 and |J| <= 3."""
    q = draw(st.integers(1, 599))
    return F(draw(st.integers(-3 * q, 3 * q)), q)


class TestPeriodicity:
    # the report's couplings; the autocorrelation estimator missed the
    # periods at 7/64, 1/31, 1/101 and 1/511
    COUPLINGS = (F(0), F(1), F(1, 2), F(2, 3), F(7, 64), F(1, 31), F(1, 101), F(1, 511))
    #: The periods of C12, C34, C13 and GAP at each coupling in units of pi:
    #: 2/g, g the gcd of the signal's frequencies, worked out by hand (at
    #: J = 1/31 the GAP frequencies |J - 3|, J + 3, J + 1, |J - 1| are 2/31
    #: times 46, 47, 16, 15, so g = 2/31)
    PERIODS_OVER_PI = {F(0): (2, 2, 1, 2), F(1): (1, 1, 1, 1), F(1, 2): (4, 4, 2, 4),
                       F(2, 3): (6, 6, 3, 6), F(7, 64): (128, 128, 64, 128),
                       F(1, 31): (31,) * 4, F(1, 101): (101,) * 4, F(1, 511): (511,) * 4}

    def test_exact_periods(self):
        def period(signal, J):
            return {p.signal: p.period for p in periodicity_report(J)}[signal]
        assert period("C12", 0) == pytest.approx(2 * np.pi)
        assert period("C13", 0) == pytest.approx(np.pi)
        assert period("GAP", 1) == pytest.approx(np.pi)
        assert period("GAP", F(1, 2)) == pytest.approx(4 * np.pi)

    def test_exact_period_requires_rational(self):
        with pytest.raises(ValueError, match="rational"):
            periodicity_report(np.sqrt(2))
        # a float within 1e-12 of a small fraction reads as that fraction
        assert periodicity_report(0.5) == periodicity_report(F(1, 2))

    def test_report_zero_coupling(self):
        c12 = {p.signal: p for p in periodicity_report(0.0)}["C12"]
        assert c12.period == pytest.approx(2 * np.pi)
        assert c12.revival_period == pytest.approx(2 * np.pi)
        assert c12.multiple == 1 and c12.verified

    def test_report_forbidden_coupling_still_oscillates(self):
        gap = {p.signal: p for p in periodicity_report(1.0)}["GAP"]
        assert gap.period == pytest.approx(np.pi)
        assert gap.multiple == 1 and gap.verified

    @pytest.mark.parametrize("J", COUPLINGS)
    def test_periods_verified(self, J):
        report = periodicity_report(J)
        assert [entry.signal for entry in report] == ["C12", "C34", "C13", "GAP"]
        # the state itself revives, up to a global phase, after that period
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        revival = report[0].revival_period
        assert phase_aligned_distance(closed_form_state(t + revival, float(J)),
                                      closed_form_state(t, float(J))).max() < 1e-12
        for entry, over_pi in zip(report, self.PERIODS_OVER_PI[J]):
            assert entry.revival_period == revival
            assert entry.period == pytest.approx(over_pi * np.pi, rel=1e-15)
            assert entry.multiple * entry.period == pytest.approx(revival)
            assert entry.verified, entry

    def test_revival_period_and_c13_half_period(self):
        assert periodicity_report(F(1, 511))[0].revival_period == pytest.approx(
            511 * np.pi)
        for J in (F(1, 2), F(2, 3)):
            c13 = {p.signal: p for p in periodicity_report(J)}["C13"]
            assert c13.multiple == 2 and c13.verified

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(SIGNALS)), t=st.floats(0.0, 8.0 * np.pi),
           J=small_fractions())
    def test_terms_reproduce_signal(self, name, t, J):
        terms = qst_analysis._signal_terms()[name]
        assert abs(_evaluate(terms, t, J) - SIGNALS[name](t, float(J))) <= 1e-14

    def test_populations_sum_to_one(self):
        assert _sum(*((1, p) for p in qst_analysis._populations())) == ONE

    def test_gap_terms_are_c34_minus_c12(self):
        # C34 - C12 = -cos(J t) cos(t)**3, expanded here by the algebra itself
        terms = qst_analysis._signal_terms()
        cos_jt, cos_t = {("cos", (2, 0)): F(1)}, {("cos", (0, 2)): F(1)}
        expected = _sum((-1, _times(_times(cos_jt, cos_t), _times(cos_t, cos_t))))
        assert terms["GAP"] == _sum((1, terms["C34"]), (-1, terms["C12"])) == expected

    def test_c13_is_squared_wootters_plus_two_terms(self):
        # C13 - 4 P1 P3 = cos(2 J t)/8 - sin(2 t)/4, so the paper's C13 is not
        # the squared (1,3) concurrence 4 P1 P3
        _, p3, _, p1 = qst_analysis._populations()
        difference = _sum((1, qst_analysis._signal_terms()["C13"]), (-4, _times(p1, p3)))
        assert difference == {("cos", (4, 0)): F(1, 8), ("sin", (0, 4)): F(-1, 4)}

    def test_written_amplitudes_match_closed_form(self):
        rng = np.random.default_rng(31)
        t, J = rng.uniform(0.0, 8.0 * np.pi, 1000), rng.uniform(-3.0, 3.0, 1000)
        basis = np.stack([np.ones_like(t), np.sin(t), np.cos(t)])
        written = np.stack([np.cos(J * t / 2) * (np.array(X) @ basis)
                            + 1j * np.sin(J * t / 2) * (np.array(Y) @ basis)
                            for X, Y in qst_analysis._AMPLITUDES], axis=-1) / (2 * np.sqrt(2))
        assert np.abs(written - dynamics.amplitudes_closed_form(t, J)).max() <= 1e-15

    def test_flipped_amplitude_sign_is_caught(self):
        # any one sign flipped in the written amplitudes breaks the population
        # sum or moves the derived C12 off closed_form_c12
        t, J = np.linspace(0.0, 8.0 * np.pi, 41), F(3, 7)
        for site, part, k in itertools.product(range(4), range(2), range(3)):
            amplitudes = [[list(v) for v in xy] for xy in qst_analysis._AMPLITUDES]
            amplitudes[site][part][k] *= -1
            amplitudes = tuple(tuple(map(tuple, xy)) for xy in amplitudes)
            total = _sum(*((1, p) for p in qst_analysis._populations(amplitudes)))
            c12 = qst_analysis._signal_terms.__wrapped__(amplitudes)["C12"]
            assert (total != ONE or np.abs(_evaluate(c12, t, J)
                                           - closed_form_c12(t, float(J))).max() > 1e-3)
