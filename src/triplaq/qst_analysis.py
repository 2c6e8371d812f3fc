"""Transfer-event location, fractional coupling sequences, and scans.

A complete transfer (first-pair concurrence 0, last-pair concurrence 1) can
only happen where the gap signal reaches 1.  At the discrete times t = m*pi
the gap reduces exactly to (-1)**(m+1) * cos(m*pi*J), which makes the
admissible couplings exact rationals; everything here is organized around
that reduction and verified independently through the Wootters route.
"""

import functools
import math
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dynamics import TIME_CHUNK, closed_form_state
from .entanglement import (
    SCAN_PAIRS,
    concurrence_gap,
    pair_concurrences,
)
from .errors import NumericalHealthError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
#: Width at which a golden-section lane stops narrowing.
GOLDEN_XTOL = 1e-10

#: Largest denominator with which a float coupling reads as an exact fraction.
SMALL_FRACTION_MAX_DENOMINATOR = 512
#: Wootters tolerance of a complete transfer: c12 <= TOL and c34 >= 1 - TOL.
TRANSFER_TOL = 1e-8
#: Largest phase a scan evaluates: (|J| + D)*|t| in evolve and surface,
#: (|J| + 1)*t_max in wstate and report, (|J| + 3)*t_max in forbidden.  Over
#: J in {0, +-0.5, +-2, 3, +-1e3, L - 1} at 4001 samples the numeric route
#: misses the closed form by at most 3.3e-10 at L = 2**20, 8.0e-10 at 2**21
#: and 1.3e-9 at 2**22, beyond the report's 1e-9 oracle bound.
MAX_PHASE = 2.0 ** 20


# ---------------------------------------------------------------------------
# Exact sequences at the transfer times
# ---------------------------------------------------------------------------

def gap_at_transfer_times(m: int, J):
    """Gap at t = m*pi, (-1)**(m+1) * cos(m*pi*J), broadcast over J."""
    m = _check_m(m)
    return (-1.0) ** (m + 1) * np.cos(m * np.pi * np.asarray(J, dtype=float))


def _check_m(m) -> int:
    if int(m) != m or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    return int(m)


#: The lattices {(k*step, n/k) : k >= 1, n = 1 + shift*k (mod 2)} as
#: (step, shift): transfers at t = m*pi, where n has the parity of m + 1,
#: and W points at t = k*pi/2, where n is odd.
TRANSFER_LATTICE = (np.pi, 1)
W_LATTICE = (np.pi / 2, 0)


def _lattice_rows(lattice, t_lo, t_hi, J_lo, J_hi):
    """(k, first n, point count) of each row of ``lattice`` in the closed
    window, int64 arrays ascending in k; a point is in it when its printed
    floats k*step and n/k are.  ceil(k*J) is within one of the first n with
    n/k >= J (k*|J| is far below 2**53), and the float test moves it there."""
    step, shift = lattice
    k = np.arange(max(1, math.floor(t_lo / step)), math.ceil(t_hi / step) + 1)
    k = k[(k * step >= t_lo) & (k * step <= t_hi)]
    parity = (1 + shift * k) % 2

    def first_n(J):
        n = np.ceil(k * J).astype(np.int64)
        n += n / k < J
        n -= (n - 1) / k >= J
        return n + (n - parity) % 2

    # the last n with n/k <= J_hi is minus the first with n/k >= -J_hi
    first, last = first_n(J_lo), -first_n(-J_hi)
    return k, first, np.maximum(0, (last - first) // 2 + 1)


def _lattice(lattice, *window) -> tuple[np.ndarray, np.ndarray]:
    """(k, n) int64 arrays of the points of ``lattice`` in the closed window
    (t_lo, t_hi, J_lo, J_hi), ordered by k, then n."""
    k, first, count = _lattice_rows(lattice, *window)
    n = np.repeat(first - 2 * (np.cumsum(count) - count), count)  # row start
    return np.repeat(k, count), n + 2 * np.arange(n.size)


def lattice_count(lattice, t_range, J_range) -> int:
    """Points of ``lattice`` in the closed window, counted before any is built."""
    return int(_lattice_rows(lattice, *_scan_window(t_range, J_range))[2].sum())


def is_lattice_transfer(m: int, J) -> bool:
    """Exact rule for gap(m*pi, J) = 1, that is cos(m*pi*J) = (-1)**(m+1), at
    an exact rational J: m*J is an integer of the parity of m + 1."""
    m = _check_m(m)
    n, r = divmod(m * J.numerator, J.denominator)
    return r == 0 and (n - 1 - TRANSFER_LATTICE[1] * m) % 2 == 0


def find_qst_J(m: int) -> tuple[Fraction, ...]:
    """All couplings in [0, 2] with a complete transfer at t = m*pi: row m
    of the transfer lattice (J = 2k/m for odd m, (2k+1)/m for even m),
    reduced and ascending."""
    m = _check_m(m)
    _, n = _lattice(TRANSFER_LATTICE, m * np.pi, m * np.pi, 0.0, 2.0)
    return tuple(Fraction(p, m) for p in n.tolist())


def verify_transfers(t, J) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c12, c34, ok) of the closed-form states at broadcast (t, J), by one
    :func:`pair_concurrences` call; ``ok`` is the complete transfer of Bose
    (PRL 91, 207901, 2003): c12 <= TRANSFER_TOL and c34 >= 1 - TRANSFER_TOL."""
    c = pair_concurrences(closed_form_state(t, J), ((1, 2), (3, 4)))
    c12, c34 = c[..., 0], c[..., 1]
    return c12, c34, (c12 <= TRANSFER_TOL) & (c34 >= 1.0 - TRANSFER_TOL)


class SequenceEntry(NamedTuple):
    """One populated cell pair of the fractional-coupling table.

    ``family`` is the odd integer k in the generating law (1 -+ k/m); the
    table's three printed columns are k = 1, 3, 5 and higher odd k extends
    the same law.
    """

    family: int
    m: int
    lower: Fraction
    upper: Fraction

    @property
    def label(self) -> str:
        return "J" + "*" * ((self.family + 1) // 2)

    @property
    def values(self) -> tuple[Fraction, Fraction]:
        return (self.lower, self.upper)


TABLE_FAMILIES = (1, 3, 5)


def sequence_table(max_m: int) -> Iterator[SequenceEntry]:
    """Fractional coupling pairs (1 - k/m, 1 + k/m) per family k of
    TABLE_FAMILIES and m, made lazily in order of m then k; family k
    populates rows m >= k only (at m = k the pair degenerates to the
    interval endpoints 0 and 2)."""
    return (SequenceEntry(family=k, m=m, lower=Fraction(m - k, m), upper=Fraction(m + k, m))
            for m in range(1, _check_m(max_m) + 1) for k in TABLE_FAMILIES if k <= m)


# ---------------------------------------------------------------------------
# Scans over the gap surface
# ---------------------------------------------------------------------------

def _golden_max(f, lo, hi):
    """Golden-section maximization of many lanes in lockstep.

    Lane k searches [lo[k], hi[k]]; ``f(x, lanes)`` evaluates the lanes
    ``lanes`` (indices) at the points ``x`` in one call.  Every lane makes
    exactly the steps of a scalar search: a lane with ``not hi > lo``
    returns lo after 0 evaluations, any other makes its first 2 and then
    one more per step while its width exceeds GOLDEN_XTOL and its last step
    narrowed it.  A step fails to narrow only an interval a few ulps wide,
    so the second rule stops just the lanes whose width cannot reach
    GOLDEN_XTOL in floating point (|x| beyond about 2**17), which would
    otherwise step forever.
    """
    x = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    lanes = np.flatnonzero(hi > x)
    if lanes.size == 0:
        return x
    a, b = x[lanes], hi[lanes]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c, lanes), f(d, lanes)
    width = np.full(lanes.shape, np.inf)
    while lanes.size:
        run = ((b - a) > GOLDEN_XTOL) & ((b - a) < width)
        if not run.all():  # retire the lanes that stop here
            stop = lanes[~run]
            x[stop] = np.where(fc[~run] > fd[~run], c[~run], d[~run])
            lanes, a, b, c, d, fc, fd, width = (
                v[run] for v in (lanes, a, b, c, d, fc, fd, width))
            continue
        # fc > fd keeps [a, d] and probes left of c; otherwise [c, b], right of d
        width = b - a
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new_x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        new_f = f(new_x, lanes)
        c, d = np.where(left, new_x, d), np.where(left, c, new_x)
        fc, fd = np.where(left, new_f, fd), np.where(left, fc, new_f)
    return x


class QstEvent(NamedTuple):
    """A located complete-transfer event.

    ``snapped`` (``m`` set) if it snapped onto the rational lattice, where
    ``J`` is an exact Fraction, else a float.  ``confirmed`` requires the
    gap to reach 1 within 1e-10 and :func:`verify_transfers` to pass.
    """

    m: int | None
    t: float
    J: Fraction | float
    gap_value: float
    c12: float
    c34: float
    confirmed: bool
    snapped = property(lambda self: self.m is not None)


#: Refined gap values below this are not events.
EVENT_KEEP = 1.0 - 1e-4

#: Farthest a time can lie from the nearest m*pi and still reach EVENT_KEEP.
#: The gap is exactly -cos(J*t) * cos(t)**3, so |gap| <= |cos t|**3, and
#: reaching EVENT_KEEP needs |cos t| >= EVENT_KEEP**(1/3), that is
#: dist(t, pi*Z) <= arccos(EVENT_KEEP**(1/3)) = 0.00817.  The three-cosine
#: ``concurrence_gap`` exceeds |cos t|**3 only by its rounding, about
#: 2e-16 times its largest phase: 2e-10 at phases up to 2**20, and under
#: the 1e-6 subtracted here at phases up to about 1e9.  The 1e-6
#: widens the band by 4e-5, which also covers the rounding of dist(t, pi*Z).
EVENT_BAND = math.acos((EVENT_KEEP - 1e-6) ** (1.0 / 3.0))


def _pi_distance(t):
    """Distance from each t to the nearest multiple of pi."""
    return np.abs(t - np.pi * np.round(t / np.pi))


def _scan_window(t_range, J_range) -> tuple[float, float, float, float]:
    """(t_lo, t_hi, J_lo, J_hi); ValueError unless t_lo < t_hi and J_lo <= J_hi."""
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    J_lo, J_hi = float(J_range[0]), float(J_range[1])
    if not (t_hi > t_lo):
        raise ValueError("t range must have positive width")
    if J_hi < J_lo:
        raise ValueError("J range is reversed")
    return t_lo, t_hi, J_lo, J_hi


def transfer_events(t_range, J_range) -> list[QstEvent]:
    """The complete transfers of a window, half-open in t: the transfer
    lattice points (m*pi, n/m) with t_lo <= m*pi < t_hi and J_lo <= n/m <=
    J_hi, by m, then n, all verified by one :func:`verify_transfers` call,
    whose verdict each event's ``confirmed`` is."""
    k, n = _lattice(TRANSFER_LATTICE, *_scan_window(t_range, J_range))
    keep = k * TRANSFER_LATTICE[0] < float(t_range[1])
    k, n = k[keep], n[keep]
    t, J = k * TRANSFER_LATTICE[0], n / k
    values = (t, concurrence_gap(t, J), *verify_transfers(t, J))
    return [QstEvent(m, t_m, Fraction(p, m), *rest) for m, p, t_m, *rest
            in zip(k.tolist(), n.tolist(), *(v.tolist() for v in values))]


def locate_events_2d(t_range, J_range, resolution: int = 64) -> list[QstEvent]:
    """Scan the gap surface for complete-transfer events.

    Grid-scans gap(t, J) at ``resolution`` points per pi in t (per unit in
    J) and refines every grid local maximum in one lockstep golden-section
    pass: two rounds of a t then a J line search, every peak a lane.
    It keeps peaks reaching EVENT_KEEP, snaps them onto (m*pi, p/q) with
    q <= 64 when :func:`is_lattice_transfer` certifies the snapped point,
    and verifies all events through one :func:`verify_transfers` call.  The
    t interval is half-open: [t_lo, t_hi).

    Only grid rows that can hold a kept peak are scanned: the two t rounds
    move a lane at most 2*t_step, and a kept value lies within EVENT_BAND
    of some m*pi, so a row farther than 2*t_step + EVENT_BAND from every
    m*pi is skipped.  The surface is built, in blocks of TIME_CHUNK rows,
    on these band rows and their axis neighbours only, and the same bound
    drops a lane after a t search once it can no longer be kept.  The
    events are those of the full grid scan, in the same order.
    """
    t_lo, t_hi, J_lo, J_hi = _scan_window(t_range, J_range)
    if resolution < 64:
        raise ValueError(f"resolution must be at least 64 points per pi, got {resolution}")

    t_step = np.pi / resolution
    n_t = int(np.ceil((t_hi - t_lo) / t_step))
    ts = t_lo + t_step * np.arange(n_t)
    ts = ts[ts < t_hi - 1e-12]
    j_step = 1.0 / resolution if J_hi > J_lo else 0.0
    js = np.linspace(J_lo, J_hi, int(round((J_hi - J_lo) * resolution)) + 1)
    if ts.size == 0:
        return []

    band = _pi_distance(ts) <= 2.0 * t_step + EVENT_BAND
    near = band.copy()
    near[1:] |= band[:-1]
    near[:-1] |= band[1:]
    rows = np.flatnonzero(near)
    surface = np.empty((rows.size, js.size))
    for lo in range(0, rows.size, TIME_CHUNK):
        surface[lo:lo + TIME_CHUNK] = concurrence_gap(ts[rows[lo:lo + TIME_CHUNK], None],
                                                      js[None, :])
    # band points that dominate their axis neighbors (a NaN never does), in
    # row-major order; the t neighbors of grid row rows[a] are surface rows
    # a - 1 and a + 1
    at = np.flatnonzero(band[rows])
    center = surface[at]
    is_max = center >= -np.inf
    up, down = rows[at] > 0, rows[at] < ts.size - 1
    is_max[up] &= center[up] >= surface[at[up] - 1]
    is_max[down] &= center[down] >= surface[at[down] + 1]
    is_max[:, 1:] &= center[:, 1:] >= center[:, :-1]
    is_max[:, :-1] &= center[:, :-1] >= center[:, 1:]
    row, col = np.nonzero(is_max)

    # every peak is a lane: two rounds of t then J line searches; after each
    # t search, a lane that the remaining t search (``reach``) cannot bring
    # within EVENT_BAND of some m*pi is dropped
    t_peak, j_peak = ts[rows[at[row]]], js[col]
    for reach in (t_step, 0.0):
        t_peak = _golden_max(lambda x, k: concurrence_gap(x, j_peak[k]),
                             np.maximum(t_lo, t_peak - t_step),
                             np.minimum(t_hi, t_peak + t_step))
        live = _pi_distance(t_peak) <= reach + EVENT_BAND
        t_peak, j_peak = t_peak[live], j_peak[live]
        if j_step > 0.0:
            j_peak = _golden_max(lambda x, k: concurrence_gap(t_peak[k], x),
                                 np.maximum(J_lo, j_peak - j_step),
                                 np.minimum(J_hi, j_peak + j_step))

    found: dict = {}      # key -> (m, t, J, gap_ok)
    values = concurrence_gap(t_peak, j_peak)
    for t_c, j_c, value in zip(t_peak.tolist(), j_peak.tolist(), values.tolist()):
        if value < EVENT_KEEP:
            continue

        # Snap onto the exact lattice when the exact rule certifies it; the
        # snap window is half a grid cell, and a wrong hypothesis cannot pass
        # the rule.
        m_hyp = int(round(t_c / np.pi))
        j_frac = Fraction(j_c).limit_denominator(64)
        snap_ok = (m_hyp >= 1
                   and abs(t_c - m_hyp * np.pi) < 0.5 * t_step
                   and abs(j_c - float(j_frac)) < max(0.5 * j_step, 1e-8)
                   and J_lo - 1e-12 <= float(j_frac) <= J_hi + 1e-12
                   and is_lattice_transfer(m_hyp, j_frac))
        if snap_ok:
            m_ev, t_ev, J_ev, key = m_hyp, m_hyp * np.pi, j_frac, (m_hyp, j_frac)
        else:
            m_ev, t_ev, J_ev, key = None, t_c, j_c, (round(t_c, 6), round(j_c, 6))
        if t_ev >= t_hi - 1e-9 or key in found:  # window stays half-open
            continue
        found[key] = (m_ev, float(t_ev), J_ev, snap_ok or abs(value - 1.0) < 1e-10)
    pending = sorted(found.values(), key=lambda e: (e[1], float(e[2])))
    t_ev = np.array([e[1] for e in pending])
    j_ev = np.array([float(e[2]) for e in pending])
    gap = concurrence_gap(t_ev, j_ev)
    c12, c34, ok = verify_transfers(t_ev, j_ev)
    return [QstEvent(m=m, t=t, J=J, gap_value=float(g), c12=float(a), c34=float(b),
                     confirmed=gap_ok and bool(k))
            for (m, t, J, gap_ok), g, a, b, k in zip(pending, gap, c12, c34, ok)]


class ForbiddenScanResult(NamedTuple):
    """A coupling's gap supremum on [0, t_max] at the smallest t reaching it."""

    J: float
    sup_gap: float
    t_at_sup: float
    margin: float
    forbidden: bool


def _window_lanes(a: float, m: int, lo: float, hi: float) -> np.ndarray:
    """(lo, hi) rows, ascending, of the window [lo, hi] about m*pi at |J| = a:
    its ends as lanes of width 0, and each interval where a*t is within pi/2
    of n*pi, n of the parity of m + 1, so the gap is positive and log-concave."""
    n = np.arange(math.floor(a * lo / np.pi) - 1, math.ceil(a * hi / np.pi) + 2)
    n = n[(n - m - 1) % 2 == 0]
    with np.errstate(divide="ignore", over="ignore"):  # a = 0: n = 0 spans the window
        lane_lo = np.maximum(lo, (n - 0.5) * np.pi / a)
        lane_hi = np.minimum(hi, (n + 0.5) * np.pi / a)
    keep = lane_hi > lane_lo
    return np.column_stack([np.r_[lo, lane_lo[keep], hi], np.r_[lo, lane_hi[keep], hi]])


def forbidden_J_scan(J_values, t_max: float) -> list[ForbiddenScanResult]:
    """Gap supremum on [0, t_max], at the smallest t of a tie, and the exact
    forbidden verdict per coupling.

    On t = m*pi + delta, |delta| <= pi/2, the gap is cos(pi*phi_m + |J|*delta)
    * cos(delta)**3, phi_m the distance from m*|J| to the nearest integer of
    the parity of m + 1 (exact in integers when J reads as p/q), and the
    window's maximum does not grow with |phi_m|.  So the first complete
    window (m = 0 is [0, pi/2]) of least |phi_m| holds the supremum, unless
    the window holding t_max, clipped there, has a strictly smaller |phi|;
    their lanes are one lockstep golden-section pass over all couplings.

    J is forbidden when it is p/q (q <= 512, within 1e-12) with p and q odd: the
    gap is periodic and fails :func:`is_lattice_transfer` at every m.  Other
    rational J transfer at t = q*pi; irrational J come arbitrarily close to one.
    A phase (|J| + 3)*t_max of the gap's fastest term beyond MAX_PHASE raises
    ValueError before any lane is built (a window holds about |J|/2 lanes),
    and so does 3*t_max, also when J_values is empty.
    """
    t_max = float(t_max)
    if not t_max >= 2 * np.pi:
        raise ValueError(f"t_max must cover at least 2*pi, got {t_max}")
    js = [float(J) for J in J_values]
    for J in js:
        if not math.isfinite(J):
            raise ValueError(f"coupling must be finite, got {J}")
        if not (abs(J) + 3.0) * t_max <= MAX_PHASE:
            raise ValueError(f"coupling {J}: phases (|J| + 3)*t up to "
                             f"{(abs(J) + 3.0) * t_max:.3g} exceed the limit of {MAX_PHASE:.0f}")
    if not 3.0 * t_max <= MAX_PHASE:  # the bound at J = 0, for an empty list
        raise ValueError(f"phases 3*t up to {3.0 * t_max:.3g} exceed the limit of "
                         f"{MAX_PHASE:.0f}")
    last = round(t_max / np.pi)  # the window that holds t_max
    m = np.arange(last + 1)
    verdicts, lanes = [], []
    for J in js:
        p_q = _as_small_fraction(J)
        p, q = (abs(J), 1) if p_q is None else (abs(p_q.numerator), p_q.denominator)
        d = (m * (p % (2 * q)) - q * (m + 1)) % (2 * q)
        phi = np.minimum(d, 2 * q - d)  # q*|phi_m|
        best = int(np.argmin(phi[:last]))
        lanes.append(np.concatenate([
            _window_lanes(abs(J), w, max(0.0, (w - 0.5) * np.pi), min((w + 0.5) * np.pi, t_max))
            for w in ((best, last) if phi[last] < phi[best] else (best,))]))
        verdicts.append(p_q is not None and p_q.numerator * q % 2 == 1)
    counts = [len(c) for c in lanes]
    lane_j = np.repeat(js, counts)
    # a lane's maximum is where -d/dt log(gap) = J*tan(J*t) + 3*tan(t), rising,
    # is least in magnitude: unlike the gap, it is not flat to rounding there
    t = _golden_max(lambda x, k: -np.abs(lane_j[k] * np.tan(lane_j[k] * x) + 3.0 * np.tan(x)),
                    *np.concatenate([np.empty((0, 2)), *lanes]).T)
    ends = np.cumsum(counts)[:-1]
    values = np.split(concurrence_gap(t, lane_j), ends)
    # candidates ascend in t, so argmax takes the smallest t of a tie
    return [ForbiddenScanResult(J, float(v[k]), float(t_c[k]), 1.0 - float(v[k]), forbidden)
            for J, forbidden, t_c, v in zip(js, verdicts, np.split(t, ends), values)
            for k in [int(np.argmax(v))]]


# ---------------------------------------------------------------------------
# W points
# ---------------------------------------------------------------------------

class WStateCandidate(NamedTuple):
    """A point where all four tracked pair concurrences sit at 1/2."""

    t: float
    J: float
    concurrences: tuple[float, float, float, float]  # ordered per SCAN_PAIRS
    max_deviation_from_half: float


def w_deviation(concurrences):
    """Largest |C - 1/2| over the four SCAN_PAIRS concurrences, pair axis
    first (a (4, ...) array or four arrays); 0 marks a W state, whose pair
    concurrences all equal 2/N = 1/2.  Folds one pair at a time, no copy."""
    return functools.reduce(np.maximum, (np.abs(c - 0.5) for c in concurrences))


def wstate_candidate_from_state(psi: np.ndarray) -> WStateCandidate:
    """Evaluate the W-state witness on an arbitrary state (harness self-test)
    by the pair engine and the reduction the scans use; t and J are NaN."""
    cs = pair_concurrences(psi, SCAN_PAIRS)
    return WStateCandidate(
        t=math.nan, J=math.nan, concurrences=tuple(float(c) for c in cs),
        max_deviation_from_half=float(w_deviation(cs)))


#: Largest |C - 1/2| of a W point: 1.4e-15 on the default window, about 1e-10
#: at phases (|J| + 1)*t up to 2**20.
W_POINT_TOL = 1e-9


def wstate_scan(t_range, J_range) -> list[WStateCandidate]:
    """The W points of the closed window, by t, then J: the lattice
    {(k*pi/2, n/k) : n odd}, where all four populations are 1/4 and so every
    pair concurrence is 2/N = 1/2, as in a four-qubit W state.  One
    :func:`pair_concurrences` call verifies them all to W_POINT_TOL."""
    k, n = _lattice(W_LATTICE, *_scan_window(t_range, J_range))
    t, J = k * W_LATTICE[0], n / k
    cs = pair_concurrences(closed_form_state(t, J), SCAN_PAIRS)
    dev = w_deviation(cs.T)
    if (dev > W_POINT_TOL).any():
        i = int(dev.argmax())
        raise NumericalHealthError(f"W point (t, J) = ({t[i]!r}, {J[i]!r}): pair "
                                   f"concurrences off 1/2 by {dev[i]:.3g}")
    return [WStateCandidate(t_i, J_i, tuple(c), d) for t_i, J_i, c, d in
            zip(t.tolist(), J.tolist(), cs.tolist(), dev.tolist())]


# ---------------------------------------------------------------------------
# Oscillation periods, in exact trigonometric polynomials
# ---------------------------------------------------------------------------

def _trig(terms) -> dict:
    """The sum of the ((kind, (a, b)), c) pairs ``terms``, each the term
    c*kind((a*J + b)*t/2) of integer a and b, as the dict {(kind, (a, b)):
    c}: every (a, b) lexicographically at least (0, 0) (cos is even, sin
    odd), no sin(0), and like terms summed to nonzero Fraction coefficients."""
    out: dict = {}
    for (kind, f), c in terms:
        if f < (0, 0):
            f, c = (-f[0], -f[1]), (c if kind == "cos" else -c)
        if kind == "cos" or f != (0, 0):
            out[kind, f] = out[kind, f] + c if (kind, f) in out else c
    return {key: c for key, c in out.items() if c}


def _sum(*scaled) -> dict:
    """The sum of r*x over the (r, x) pairs ``scaled``."""
    return _trig((key, r * c) for r, x in scaled for key, c in x.items())


def _times(x: dict, y: dict) -> dict:
    """x*y, from 2 cos A cos B = cos(A - B) + cos(A + B), 2 sin A sin B =
    cos(A - B) - cos(A + B) and 2 sin A cos B = sin(A - B) + sin(A + B)."""
    terms = []
    for u, c in x.items():
        for v, d in y.items():
            # the larger key is the sin one when the kinds differ
            (k1, (a1, b1)), (k2, (a2, b2)) = max(u, v), min(u, v)
            kind, half = "cos" if k1 == k2 else "sin", c * d / 2
            terms += [((kind, (a1 - a2, b1 - b2)), half),
                      ((kind, (a1 + a2, b1 + b2)), -half if k1 == k2 == "sin" else half)]
    return _trig(terms)


#: The amplitudes of :func:`~triplaq.dynamics.amplitudes_closed_form`, in its
#: order (the excitation at site 4, 3, 2, 1), each (cos(J*t/2)*X + i*sin(J*t/2)*Y)
#: / (2*sqrt(2)), as the pair (X, Y) of coefficients of 1, sin t and cos t.
_AMPLITUDES = (((1, 1, -1), (-1, 1, -1)), ((1, -1, -1), (-1, -1, -1)),
               ((1, -1, 1), (-1, -1, 1)), ((1, 1, 1), (-1, 1, 1)))
_BASIS = (("cos", (0, 0)), ("sin", (0, 2)), ("cos", (0, 2)))
#: closed_form_c13, the paper's (1,3) signal, term by term.
_C13 = ((("sin", (4, 4)), Fraction(-1, 16)), (("sin", (-4, 4)), Fraction(-1, 16)),
        (("sin", (0, 4)), Fraction(-1, 8)), (("cos", (0, 8)), Fraction(-1, 32)),
        (("cos", (0, 0)), Fraction(5, 32)))


def _populations(amplitudes=_AMPLITUDES) -> list[dict]:
    """Each amplitude's |a|^2 = ((cos(J*t/2)*X)^2 + (sin(J*t/2)*Y)^2)/8."""
    parts = [[_times({(kind, (1, 0)): 1}, _trig(zip(_BASIS, map(Fraction, v))))
              for kind, v in zip(("cos", "sin"), xy)] for xy in amplitudes]
    return [_sum(*((Fraction(1, 8), _times(z, z)) for z in xy)) for xy in parts]


@functools.cache
def _signal_terms(amplitudes=_AMPLITUDES) -> dict:
    """The polynomials of C12, C34, C13 and GAP, made on the first call.  On
    a single-excitation state the Wootters concurrence is 2|a_m||a_n| (Hill
    and Wootters, PRL 78, 5022, 1997), and the paper's C12 and C34 are its
    squares 4*P1*P2 and 4*P3*P4, P_k = |a_k|^2; GAP is C34 - C12.  The
    paper's C13 is no function of the populations, so it keeps its terms."""
    p4, p3, p2, p1 = _populations(amplitudes)
    c12, c34 = _sum((4, _times(p1, p2))), _sum((4, _times(p3, p4)))
    return {"C12": c12, "C34": c34, "C13": _trig(_C13), "GAP": _sum((1, c34), (-1, c12))}


def _as_small_fraction(J) -> Fraction | None:
    if isinstance(J, Fraction):
        return J
    if isinstance(J, int):
        return Fraction(J)
    frac = Fraction(float(J)).limit_denominator(SMALL_FRACTION_MAX_DENOMINATOR)
    return frac if abs(float(frac) - float(J)) < 1e-12 else None


class SignalPeriod(NamedTuple):
    """A closed-form signal's exact period T at one coupling and the state's
    revival period; ``multiple``, revival over T, is an integer in exact
    arithmetic (else None), which ``verified`` states."""

    signal: str
    period: float
    revival_period: float
    multiple: int | None
    verified: bool


def periodicity_report(J) -> list[SignalPeriod]:
    """Each signal's fundamental period 2*pi/g at a rational J (a float J is
    read as the fraction of denominator at most SMALL_FRACTION_MAX_DENOMINATOR
    within 1e-12 of it), g the gcd of its polynomial's frequencies at J, as
    for any finite trigonometric sum of nonzero terms; beside it the state's
    revival period 2*pi / gcd(J - 1, J + 1, 2), over the Bohr frequencies of
    the circulant block, whose eigenvalues are J/2, J/2, 1 - J/2, -1 - J/2."""
    J_frac = _as_small_fraction(J)
    if J_frac is None:
        raise ValueError(f"periods need a rational coupling, got {J}")
    p, q = J_frac.numerator, J_frac.denominator
    revival = Fraction(math.gcd(p - q, p + q, 2 * q), q)
    revival_period = float(2.0 * math.pi / revival)
    out = []
    for name, poly in _signal_terms().items():
        # at J = p/q the frequency (a*J + b)/2 is (a*p + b*q)/(2*q)
        at_J = _trig(((kind, (0, a * p + b * q)), c) for (kind, (a, b)), c in poly.items())
        g = Fraction(math.gcd(*(f for _, (_, f) in at_J)), 2 * q)
        multiple = g // revival if g % revival == 0 else None
        out.append(SignalPeriod(name, float(2.0 * math.pi / g), revival_period, multiple,
                                verified=multiple is not None))
    return out
