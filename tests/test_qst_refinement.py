"""The lockstep golden-section refinement of ``events`` and ``forbidden``.

Every events grid peak, and every lane of a forbidden window, is one lane of
``qst_analysis._golden_max``.  The references here are the scalar search
and the per-peak events loop the lanes replaced, kept test-local: the
lockstep routine must return their x bit for bit, and the events scan its
results exactly.  The events reference also scans the full gap surface,
where ``locate_events_2d`` scans only the rows near t = m*pi that can hold
a kept event.  Lanes stop on width alone; the evaluation budgets the
searches once carried (200 per events peak, 120 per forbidden seed) never
bound at the widths the scans search.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplaq import qst_analysis
from triplaq.entanglement import concurrence_gap
from triplaq.qst_analysis import (
    EVENT_BAND,
    EVENT_KEEP,
    QstEvent,
    _golden_max,
    forbidden_J_scan,
    is_lattice_transfer,
    locate_events_2d,
    verify_transfers,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EVENTS_WIDE = ((0.0, 40 * np.pi), (0.0, 2.0), 128)
EIGHT_J = (0.3, 0.6180339887, 1.4, 0.2, 1, 3, -1, 0.5)


def _scalar_golden_max(f, lo, hi, xtol=1e-10):
    """One golden-section search on [lo, hi], stepping while its width
    exceeds xtol and its last step narrowed it; returns (x, evals_used)."""
    a, b = float(lo), float(hi)
    if not b > a:
        return a, 0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    used, width = 2, math.inf
    while xtol < b - a < width:
        width = b - a
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        used += 1
    return (c, used) if fc > fd else (d, used)


def _scalar_locate_events_2d(t_range, J_range, resolution):
    """The event finder with one scalar search per peak and a padded mask."""
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    J_lo, J_hi = float(J_range[0]), float(J_range[1])
    t_step = np.pi / resolution
    ts = t_lo + t_step * np.arange(int(np.ceil((t_hi - t_lo) / t_step)))
    ts = ts[ts < t_hi - 1e-12]
    if J_hi > J_lo:
        j_step = 1.0 / resolution
        js = np.linspace(J_lo, J_hi, int(round((J_hi - J_lo) * resolution)) + 1)
    else:
        j_step, js = 0.0, np.array([J_lo])
    values = concurrence_gap(ts[:, None], js[None, :])
    padded = np.full((values.shape[0] + 2, values.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = values
    center = padded[1:-1, 1:-1]
    is_max = ((center >= padded[:-2, 1:-1]) & (center >= padded[2:, 1:-1])
              & (center >= padded[1:-1, :-2]) & (center >= padded[1:-1, 2:]))
    events = {}
    for it, ij in np.argwhere(is_max):
        t_c, j_c = float(ts[it]), float(js[ij])
        for _ in range(2):
            t_c, _ = _scalar_golden_max(lambda x: concurrence_gap(x, j_c),
                                        max(t_lo, t_c - t_step), min(t_hi, t_c + t_step))
            if j_step > 0.0:
                j_c, _ = _scalar_golden_max(lambda x: concurrence_gap(t_c, x),
                                            max(J_lo, j_c - j_step), min(J_hi, j_c + j_step))
        value = float(concurrence_gap(t_c, j_c))
        if value < 1.0 - 1e-4:
            continue
        reached_tol = abs(value - 1.0) < 1e-10
        m_hyp = int(round(t_c / np.pi))
        j_frac = Fraction(j_c).limit_denominator(64)
        snap_ok = (m_hyp >= 1
                   and abs(t_c - m_hyp * np.pi) < 0.5 * t_step
                   and abs(j_c - float(j_frac)) < max(0.5 * j_step, 1e-8)
                   and J_lo - 1e-12 <= float(j_frac) <= J_hi + 1e-12
                   and is_lattice_transfer(m_hyp, j_frac))
        if snap_ok:
            t_ev, j_ev = m_hyp * np.pi, float(j_frac)
            key = (m_hyp, j_frac)
            gap_ev = float(concurrence_gap(t_ev, j_ev))
            reached_tol = True
        else:
            t_ev, j_ev = t_c, j_c
            key = (round(t_ev, 6), round(j_ev, 6))
            gap_ev = value
        if t_ev >= t_hi - 1e-9 or key in events:
            continue
        events[key] = QstEvent(
            m=m_hyp if snap_ok else None, t=float(t_ev),
            J=j_frac if snap_ok else j_ev, gap_value=gap_ev,
            c12=math.nan, c34=math.nan, confirmed=reached_tol)
    pending = sorted(events.values(), key=lambda e: (e.t, float(e.J)))
    c12, c34, ok = verify_transfers(np.array([e.t for e in pending]),
                                    np.array([float(e.J) for e in pending]))
    return [e._replace(c12=float(a), c34=float(b), confirmed=e.confirmed and bool(k))
            for e, a, b, k in zip(pending, c12, c34, ok)]


# one lane: (lo, signed width, parameter of the line)
_lanes = st.lists(
    st.tuples(st.floats(-20.0, 20.0),
              st.one_of(st.sampled_from([0.0, -0.5, 1e-11, 3e-10]),
                        st.floats(-1.0, 1.0)),
              st.floats(-3.0, 3.0)),
    min_size=1, max_size=12)

# (lockstep f(x, lanes), scalar f for one lane) per kind of line
_LINES = {
    "gap in t": (lambda p: lambda x, k: concurrence_gap(x, p[k]),
                 lambda p: lambda x: concurrence_gap(x, p)),
    "gap in J": (lambda p: lambda x, k: concurrence_gap(p[k], x),
                 lambda p: lambda x: concurrence_gap(p, x)),
    "flat": (lambda p: lambda x, k: np.zeros_like(x),
             lambda p: lambda x: 0.0),
    "parabola": (lambda p: lambda x, k: -(x - p[k]) ** 2,
                 lambda p: lambda x: -(x - p) ** 2),
}


class TestLockstepGoldenMax:
    @settings(max_examples=300, deadline=None)
    @given(lanes=_lanes, line=st.sampled_from(sorted(_LINES)))
    def test_each_lane_is_the_scalar_search(self, lanes, line):
        lo = np.array([lane[0] for lane in lanes])
        hi = lo + np.array([lane[1] for lane in lanes])
        p = np.array([lane[2] for lane in lanes])
        lockstep, scalar = _LINES[line]
        x = _golden_max(lockstep(p), lo, hi)
        ref = [_scalar_golden_max(scalar(float(pk)), a, b)[0]
               for a, b, pk in zip(lo.tolist(), hi.tolist(), p)]
        assert np.array_equal(x, ref)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(0.0, 130.0), J=st.floats(-3.0, 3.0))
    def test_old_budgets_never_bound(self, t, J):
        # an events peak makes two t searches at most 2*pi/64 wide and two J
        # searches at most 2/64 wide, a forbidden lane one t search at most
        # one window (pi) wide: far under the 200 and 120 evaluations once
        # allowed
        n_t = _scalar_golden_max(lambda x: concurrence_gap(x, J), t, t + 2 * np.pi / 64)[1]
        n_j = _scalar_golden_max(lambda x: concurrence_gap(t, x), J, J + 2 / 64)[1]
        n_f = _scalar_golden_max(lambda x: concurrence_gap(x, J), t, t + np.pi)[1]
        assert n_t <= 46 and n_j <= 43 and n_f <= 53

    def test_flat_line_moves_right(self):
        # fc == fd keeps the right interior point, as the scalar branch does
        x = _golden_max(lambda x, k: np.ones_like(x), [0.0], [1.0])
        assert x[0] == _scalar_golden_max(lambda x: 1.0, 0.0, 1.0)[0]

    def test_lane_stops_where_width_cannot_reach_xtol(self):
        # above 2**19 one ulp exceeds xtol: the interval stops narrowing one
        # ulp wide, and the lane stops there instead of stepping forever
        lo = np.array([6e5, 1.0, 7e5])
        x = _golden_max(lambda x, k: concurrence_gap(x, 0.5), lo, lo + 0.05)
        ref = [_scalar_golden_max(lambda x: concurrence_gap(x, 0.5), a, a + 0.05)[0]
               for a in lo.tolist()]
        assert np.array_equal(x, ref)


class TestEventsMatchScalarLoop:
    @pytest.mark.parametrize("t_range, J_range, resolution", [
        ((0.0, 4 * np.pi), (0.0, 2.0), 64),
        ((0.0, 6 * np.pi), (1.0, 1.0), 64),           # pinned J: no J search
        ((0.0, 8 * np.pi), (0.5, 0.5), 64),           # pinned J with events
        ((0.03, 0.03 + 10 * np.pi), (0.003, 2.003), 128),  # offset-3 start
        EVENTS_WIDE,
    ])
    def test_events_equal_reference(self, t_range, J_range, resolution):
        got = locate_events_2d(t_range, J_range, resolution)
        assert got == _scalar_locate_events_2d(t_range, J_range, resolution)

    def test_events_at_large_coupling(self):
        # J searches near 7e5 narrow to one ulp (1.2e-10 > xtol) and stop
        # there; a budget spent by the stalled search once left these three
        # lattice transfers unfound
        events = locate_events_2d((0.0, 10.0), (7e5, 7e5 + 0.5), 64)
        assert [(e.m, e.J) for e in events] == [
            (1, Fraction(700000)), (2, Fraction(1400001, 2)), (3, Fraction(700000))]
        assert all(e.confirmed for e in events)

    def test_forbidden_refines_every_coupling_in_one_pass(self, monkeypatch):
        lanes = []

        def spy(f, lo, hi):
            lanes.append((len(lo), float(np.max(np.subtract(hi, lo)))))
            return _golden_max(f, lo, hi)

        assert forbidden_J_scan((), 200.0) == []
        monkeypatch.setattr(qst_analysis, "_golden_max", spy)
        assert len(forbidden_J_scan(EIGHT_J, 200.0)) == len(EIGHT_J)
        # one call for all couplings; no lane is wider than one window
        ((count, widest),) = lanes
        assert count > len(EIGHT_J) and widest <= np.pi + 1e-12

    def test_few_gap_calls_on_events_wide(self, monkeypatch):
        # one scalar search per peak made 220 760 calls here; the lockstep
        # pass makes 177 (3 surface blocks, one per search step, one batch)
        calls = []

        def spy(t, J):
            calls.append(1)
            return concurrence_gap(t, J)

        monkeypatch.setattr(qst_analysis, "concurrence_gap", spy)
        locate_events_2d(*EVENTS_WIDE)
        assert len(calls) < 1000

    def test_memory_on_events_wide(self):
        # the whole-grid surface and its padded copy peaked at 31.7 MB, the
        # whole grid built in TIME_CHUNK rows with a copy-free mask at
        # 13.3 MB; the 280 band rows peak at 2.26 MB
        tracemalloc.start()
        try:
            locate_events_2d(*EVENTS_WIDE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


# a small events window [m*pi - before, m*pi + after) x [J_lo, J_lo + J width]
# at a resolution; J width 0 pins J, and J_lo also draws lattice couplings so
# that pinned windows hold events
_windows = st.tuples(
    st.integers(1, 12), st.floats(0.01, 1.0), st.floats(0.01, 1.0),
    st.one_of(st.floats(-0.5, 2.0), st.sampled_from([0.0, 0.5, 1.0, 1.5])),
    st.one_of(st.just(0.0), st.floats(0.05, 1.0)), st.integers(64, 200))


class TestEventBand:
    def test_band_is_where_the_gap_can_reach_the_keep_threshold(self):
        # at J = 0 the gap is cos(t)**3 around t = pi: it reaches EVENT_KEEP
        # at 0.99*EVENT_BAND from pi, and at EVENT_BAND it is the 1e-6 slack
        # below
        x = np.pi + EVENT_BAND * np.array([-0.99, 0.99, -1.0, 1.0])
        assert np.all(concurrence_gap(x[:2], 0.0) >= EVENT_KEEP)
        assert np.all(concurrence_gap(x[2:], 0.0) < EVENT_KEEP)

    @settings(max_examples=40, deadline=None)
    @given(window=_windows)
    @example(window=(3183, 0.5, 0.5, 0.25, 0.1, 64))   # t near 1e4
    # a kept lane that starts more than one grid step from 10*pi
    @example(window=(10, 0.13057824445801033, 0.06772594474257847,
                     0.13057824445801033, 1.0, 64))
    def test_band_equals_full_surface(self, window):
        m, before, after, j_lo, j_width, resolution = window
        args = ((m * np.pi - before, m * np.pi + after), (j_lo, j_lo + j_width), resolution)
        assert locate_events_2d(*args) == _scalar_locate_events_2d(*args)

    def test_gap_elements_on_events_wide(self, monkeypatch):
        # the full surface and its lanes evaluated 1 536 568 gap elements
        # here: 1 315 840 on the grid and 220 728 in the searches; the band
        # rows take 71 960 and the band's lanes 97 869
        elements = []

        def spy(t, J):
            out = concurrence_gap(t, J)
            elements.append(np.size(out))
            return out

        monkeypatch.setattr(qst_analysis, "concurrence_gap", spy)
        locate_events_2d(*EVENTS_WIDE)
        assert 9 * sum(elements) <= 1_536_568
