"""Time evolution of the Bell-pair initial state, by two independent routes.

Route one evaluates the closed-form single-excitation amplitudes; route
two diagonalizes a stack of Hamiltonians (cyclic Jacobi over every total-S^z
block of the stack at once, bit-identical to per-matrix calls) and applies
the spectral propagator, to the full 16x16 H or, as ``surface`` does, to its
4x4 single-excitation block.  :func:`route_chunks` runs both side by side
on a J stack's (E, V) pair, propagating on the eigenvectors of the 16x16 H
that the Bell pair occupies, and scores each numeric state by the distance
of its four single-excitation amplitudes to the closed form's, with its
off-sector amplitude measured apart, as its sector leak;
:func:`oracle_equivalence_report` reduces it to the worst point, which is
what pins down the bond geometry, and ``evolve`` writes it out.
Times and couplings are in units of the ring coupling D (see
:mod:`triplaq.spin_core`).
"""

from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, NumericalHealthError
from .spin_core import (
    SINGLE_EXCITATION_INDICES,
    _blocks,
    embed_single_excitation,
    initial_bell_state,
    sector_leak,
)


def amplitudes_closed_form(t, J) -> np.ndarray:
    """Closed-form amplitudes of the evolved Bell-pair initial state over
    broadcast (t, J), shape (..., 4), ordered over (|0001>, |0010>, |0100>,
    |1000>), i.e. an excitation sitting at site 4, 3, 2, 1 respectively.

    Total function of t >= 0; every row is exactly normalized.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"t must be nonnegative, got {t.min()}")
    J = np.asarray(J, dtype=float)
    c = np.cos(J * t / 2.0)
    s = np.sin(J * t / 2.0)
    sin_d = np.sin(t)
    cos_d = np.cos(t)
    pref = 1.0 / (2.0 * np.sqrt(2.0))
    # each component written in place: no stacked copy of all four
    out = np.empty(c.shape + (4,), dtype=complex)
    out[..., 0] = pref * (c * (sin_d - cos_d + 1) - 1j * s * (-sin_d + cos_d + 1))
    out[..., 1] = pref * (c * (-sin_d - cos_d + 1) - 1j * s * (sin_d + cos_d + 1))
    out[..., 2] = pref * (c * (-sin_d + cos_d + 1) + 1j * s * (-sin_d + cos_d - 1))
    out[..., 3] = pref * (c * (sin_d + cos_d + 1) + 1j * s * (sin_d + cos_d - 1))
    return out


def closed_form_state(t, J) -> np.ndarray:
    """Closed-form states over broadcast (t, J): shape (..., 16), the
    embedded :func:`amplitudes_closed_form`."""
    return embed_single_excitation(amplitudes_closed_form(t, J))


#: Largest |H - H+| entry a matrix may have and still count as Hermitian.
HERMITIAN_TOL = 1e-12


def _require_hermitian(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2] or H.size == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {H.shape}")
    # a NaN or infinite entry makes the defect NaN or infinite, so it fails
    # too; one temporary of H's size, as stacks can be large: a C-ordered
    # copy of the transpose, so that neither in-place step needs a buffer
    adjoint = H.swapaxes(-1, -2).copy()
    np.conjugate(adjoint, out=adjoint)
    with np.errstate(invalid="ignore"):
        adjoint -= H
    defect = np.abs(adjoint).max()
    if not defect <= HERMITIAN_TOL:
        raise ContractViolationError(
            f"matrix is not finite and Hermitian (defect {defect:.3e})")
    return H


def _rotate(A, Vt, sel, p, q, r):
    """One Jacobi rotation in the (p, q) plane of the matrices ``sel`` of
    the stacks A and Vt, the transposed eigenvector matrices.  ``sel`` is a
    plain slice when every matrix rotates, and ``r`` is |A_pq| of each."""
    phase = A[sel, p, q] / r
    diff = (A[sel, q, q] - A[sel, p, p]).real
    tau = diff / (2.0 * r)
    abs_tau = np.abs(tau)
    t = np.sign(tau) / (abs_tau + np.hypot(1.0, tau))
    big = abs_tau > 1e12
    if np.count_nonzero(big):
        # asymptotic branch avoids overflow in tau**2
        t[big] = 1.0 / (2.0 * tau[big])
    equal = diff == 0.0
    if np.count_nonzero(equal):
        t[equal] = 1.0
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    # c cast to complex once, as each complex-times-real product would cast it
    sp, sc, c = (s * phase)[:, None], (s * np.conj(phase))[:, None], c.astype(complex)[:, None]
    # A <- U+ A U and V <- V U with the 2x2 unitary
    # [[c, s*phase], [-s*conj(phase), c]]; column k of V is row k of Vt
    ap, aq = A[sel, :, p], A[sel, :, q]
    A[sel, :, p], A[sel, :, q] = ap * c - aq * sc, ap * sp + aq * c
    ap, aq = A[sel, p, :], A[sel, q, :]
    A[sel, p, :], A[sel, q, :] = ap * c - aq * sp, ap * sc + aq * c
    A[sel, p, q] = A[sel, q, p] = 0.0
    vp, vq = Vt[sel, p, :], Vt[sel, q, :]
    Vt[sel, p, :], Vt[sel, q, :] = vp * c - vq * sc, vp * sp + vq * c


def _jacobi_sweep(A, Vt, skip_below):
    """One cyclic sweep over the pairs p < q in row-major order, on every
    matrix of the stacks A and Vt (see :func:`_rotate`) at once.

    A matrix rotates at (p, q) only when its own |A_pq| exceeds its own
    ``skip_below``.  A skipped pair changes nothing, so each row p is
    searched ahead for its next pair that rotates in any matrix.
    """
    n = A.shape[-1]
    for p in range(n - 1):
        q = p + 1
        while q < n:
            row = A[:, p, q:]
            # |A_pq| by hypot: np.abs of a complex array can be 1 ulp off
            # the abs() of one element
            r = np.hypot(row.real, row.imag)
            rot = r > skip_below[:, None]
            hits = np.flatnonzero(rot.T)    # column-major: pairs in q order
            if hits.size == 0:
                break
            k = int(hits[0]) // rot.shape[0]
            q += k
            if np.count_nonzero(rot[:, k]) == rot.shape[0]:
                _rotate(A, Vt, slice(None), p, q, r[:, k])
            else:
                sel = np.flatnonzero(rot[:, k])
                _rotate(A, Vt, sel, p, q, r[sel, k])
            q += 1


def hermitian_eigendecompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix, shape (n, n), or
    of a stack of them, shape (..., n, n), in one pass over the stack.  Like
    ``np.linalg.eigh`` it returns (eigenvalues, eigenvectors): ascending,
    shape (..., n), and shape (..., n, n), column k belonging to value k.

    Each block of :func:`_blocks` (the plaquette's total S^z sectors, sizes
    1, 4, 6, 4, 1) is copied into the leading corner of a zero slot as large
    as the largest block, and every slot of every matrix is one stack, so a
    sweep is one :func:`_jacobi_sweep` call, pairs in row-major order and the
    output deterministic (degenerate eigenspaces included).  A padded pair
    is zero and never rotates, and a slot's pairs in row-major order are its
    block's own, so each matrix gets exactly the rotations of a sweep over
    its full rows, and those it would get alone: the result equals
    per-matrix calls bit for bit.  Convergence, per matrix: off-diagonal
    Frobenius norm, summed over its blocks' entries, below 1e-13 of the
    matrix's own scale, within 100 sweeps.  Raises ContractViolationError
    for a non-finite or non-Hermitian input and for a Frobenius norm that
    overflows.
    """
    H = _require_hermitian(H)
    lead, n = H.shape[:-2], H.shape[-1]
    H = H.reshape(-1, n, n)
    m = H.shape[0]
    blocks = _blocks(H)
    size = max(idx.size for idx in blocks)
    # slot (b, i) holds block b of matrix i, and its transposed eigenvector
    # matrix (see _rotate); A and Vt are views of all slots as one stack
    slots = np.zeros((len(blocks), m, size, size), dtype=complex)
    for slot, idx in zip(slots, blocks):
        slot[:, :idx.size, :idx.size] = H[:, idx[:, None], idx]
    vts = np.tile(np.eye(size, dtype=complex), (len(blocks), m, 1, 1))
    A, Vt = slots.reshape(-1, size, size), vts.reshape(-1, size, size)
    # each block's off-diagonal flat positions in its slot, in row-major order
    off_pos = [np.flatnonzero(np.pad(~np.eye(idx.size, dtype=bool), (0, size - idx.size)))
               for idx in blocks]
    flat = H.reshape(m, -1)     # np.vecdot makes no temporary of its size
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.sqrt(np.vecdot(flat, flat).real))
    if not np.isfinite(scale).all():
        raise ContractViolationError("matrix Frobenius norm overflows")
    # elements this small cannot move the off-norm past the tolerance, and
    # rotating on denormal-range values would overflow the phase division
    skip_below = 1e-13 * scale / (10.0 * n * n)
    for _ in range(100):
        off = [np.take(slot.reshape(m, -1), pos, axis=1) for slot, pos in zip(slots, off_pos)]
        live = np.sqrt(sum(np.vecdot(x, x).real for x in off)) > 1e-13 * scale
        if not live.any():
            break
        # a converged matrix skips every pair, so it never rotates again
        _jacobi_sweep(A, Vt, np.tile(np.where(live, skip_below, np.inf), len(blocks)))
    evals = np.empty((m, n))
    for idx, slot in zip(blocks, slots):
        evals[:, idx] = np.diagonal(slot, axis1=-2, axis2=-1)[:, :idx.size].real
    order = np.argsort(evals, axis=-1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=-1)
    # the rows of each Vt, put at their eigenvalues' ranks: each eigenvector
    # matrix column-major, as V[:, order] lays out one matrix, so that
    # propagation runs the same BLAS calls for a stack
    rank, vecs = np.argsort(order, axis=-1), np.zeros_like(H)
    for idx, vt in zip(blocks, vts):
        vecs[np.arange(m)[:, None, None], rank[:, idx, None], idx] = vt[:, :idx.size, :idx.size]
    return evals.reshape(lead + (n,)), vecs.swapaxes(-1, -2).reshape(lead + (n, n))


def evolve_numeric(decomp, psi0: np.ndarray, t, *, return_norms: bool = False):
    """Spectral propagation psi(t) = V exp(-i E t) V+ psi0 of a diagonalized
    H, given as the (E, V) pair that ``np.linalg.eigh`` returns, or as a
    rectangular pair: k eigenvalues, shape (..., k), and their eigenvectors,
    shape (..., n, k), which must span psi0 (see :func:`route_chunks`).

    ``psi0`` has H's dimension n: 16, or 4 for a single-excitation block.
    ``t`` is a scalar, giving one n-vector, or a vector of times, giving
    one row per time from a single matmul.  A stacked decomposition (leading
    axes ``...``) gives shape (..., n) or (..., nt, n), each stack entry
    bit-identical to propagating its own decomposition.  Raises
    NumericalHealthError if any row's norm moved by more than 1e-8.
    ``return_norms=True`` returns ``(psi_t, norms)``, with the rows' 2-norms
    that check computed.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    E, V = decomp
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * (t.reshape(-1, 1) * E[..., None, :]))
    coef = (psi0.conj() @ V).conj()     # V+ psi0 without a conjugated copy of V
    psi_t = np.matmul(phases * coef[..., None, :], V.swapaxes(-1, -2))
    psi_t = psi_t.reshape(E.shape[:-1] + t.shape + V.shape[-2:-1])
    norms = np.linalg.norm(psi_t, axis=-1)
    drift = np.abs(norms - float(np.linalg.norm(psi0)))
    if not np.all(drift <= 1e-8):
        raise NumericalHealthError(f"propagation changed the norm by {drift.max():.3e}")
    return (psi_t, norms) if return_norms else psi_t


def phase_aligned_distance(psi: np.ndarray, reference: np.ndarray):
    """2-norm distance after quotienting out one global phase, per state of
    broadcast (..., n) stacks of any component count n: 16-component states,
    or the 4 amplitudes of the single-excitation sector.

    The phase is fixed from the largest-magnitude component of each
    ``reference`` row, and left at 1 where that component of either state
    is zero; computing the aligned difference directly (rather than via
    the overlap) keeps the result accurate down to machine precision.
    """
    psi, reference = np.broadcast_arrays(np.asarray(psi, dtype=complex),
                                         np.asarray(reference, dtype=complex))
    k = np.argmax(np.abs(reference), axis=-1)[..., None]
    num = np.take_along_axis(psi, k, axis=-1)
    den = np.take_along_axis(reference, k, axis=-1)
    pivot = (num != 0) & (den != 0)
    ph = np.where(pivot, num, 1.0) / np.where(pivot, den, 1.0)
    return np.linalg.norm(psi - ph / np.abs(ph) * reference, axis=-1)


#: Times propagated, grid rows evaluated or table rows formatted per batch;
#: keeps each batch small (128 x 16 complex states, 32 KiB) on any grid.
TIME_CHUNK = 128

#: Closed-form points a grid scan, or route_chunks per J, evaluates per call.
#: A point's 4 amplitudes take 64 B against 256 B for its embedded state, so
#: this block is as large as one TIME_CHUNK batch of states (32 KiB).
AMPLITUDE_BLOCK = 4 * TIME_CHUNK


def route_chunks(decomp, J_values, t_values):
    """Both evolution routes over a (J, t) grid, one J and at most
    TIME_CHUNK times at a time.

    ``decomp`` is the (E, V) pair of the Hamiltonians at ``J_values``,
    stacked in that order, as :func:`hermitian_eigendecompose` returns it.
    Once per call it is reduced to the eigenvectors the Bell pair occupies:
    with block-wise eigenvectors, the 4 of its single-excitation sector (3
    at J = 1, padded to the stack's largest count by a column it does not
    occupy), so each chunk takes 4 phases per time and an (nt, 4) @ (4, 16)
    product; a stack with no S^z structure keeps all 16 columns.  The
    columns dropped add only exact zeros to the full product, so the states
    differ from the full pair's by rounding alone: none on the report's
    chunks of 128 times, under 5e-16 on a chunk of one.
    The closed form is one amplitude call per AMPLITUDE_BLOCK times, so no
    array grows with the grid (20 001 times of amplitudes are 1.3 MB).  Each
    chunk yields ``(J, t, amplitudes, deviation, norm_error, sector_leak)``:
    the chunk's times and closed-form amplitudes (..., 4), and per time the
    phase-quotiented distance of the numerically propagated state's four
    single-excitation amplitudes to them (the sector distance), and that
    state's norm error and sector leak.  The off-sector amplitudes, zero in
    the closed form, enter the leak only: the distance of the whole
    16-component state would be sqrt(deviation**2 + |off-sector part|**2).
    """
    J_values = [float(J) for J in J_values]
    ts = np.asarray(t_values, dtype=float)
    if not J_values or not ts.size:
        raise ValueError("J and t grids must be nonempty")
    E, V = decomp
    if E.shape[:-1] != (len(J_values),):
        raise ValueError(f"expected eigenvalues of {len(J_values)} Hamiltonians, "
                         f"got shape {E.shape}")
    psi0 = initial_bell_state()
    # each matrix's eigenvectors psi0 occupies (V+ psi0 nonzero), ascending,
    # as many as the matrix with most: a column with a zero coefficient
    # propagates exact zeros, so a matrix with fewer is padded harmlessly.
    # Gathered as rows of V's transpose, each reduced V stays column-major,
    # as hermitian_eigendecompose lays it out.
    zero = (psi0.conj() @ V) == 0
    k = E.shape[-1] - int(zero.sum(axis=-1).min())
    keep = np.argsort(zero, axis=-1, kind="stable")[:, :k]
    E = np.take_along_axis(E, keep, axis=-1)
    V = np.take_along_axis(V.swapaxes(-1, -2), keep[..., None], axis=-2).swapaxes(-1, -2)
    for j, J in enumerate(J_values):
        for lo in range(0, ts.size, AMPLITUDE_BLOCK):
            block = ts[lo:lo + AMPLITUDE_BLOCK]
            amplitudes = amplitudes_closed_form(block, J)
            for k in range(0, block.size, TIME_CHUNK):
                t, amps = block[k:k + TIME_CHUNK], amplitudes[k:k + TIME_CHUNK]
                psi, norms = evolve_numeric((E[j], V[j]), psi0, t, return_norms=True)
                # |norm - 1| is norm_error(psi), from the norms the drift check took
                yield (J, t, amps,
                       phase_aligned_distance(psi[..., SINGLE_EXCITATION_INDICES], amps),
                       np.abs(norms - 1.0), sector_leak(psi))


class OracleReport(NamedTuple):
    """Worst-case disagreement between the numeric and closed-form routes,
    and the numeric route's worst norm error and sector leak."""

    max_deviation: float
    worst_t: float
    worst_J: float
    points: int
    max_norm_error: float
    max_sector_leak: float


def oracle_equivalence_report(decomp, J_values, t_values) -> OracleReport:
    """Sweep both evolution routes over a (J, t) grid and report the worst point.

    ``decomp`` stacks the (E, V) pairs of the Hamiltonians at ``J_values``
    (see :func:`route_chunks`, whose chunks this reduces).  The deviation per
    point is the sector distance: the phase-quotiented distance between the
    numerically propagated state's four single-excitation amplitudes and the
    closed-form ones.  Amplitude outside that sector is measured separately,
    by the worst sector leak.  A wrong bond geometry shows up as an O(1)
    deviation; ties go to the first J, then the first t.
    """
    J_values, ts = list(J_values), np.asarray(list(t_values), dtype=float)
    worst, worst_norm, worst_leak = (-1.0, 0.0, 0.0), 0.0, 0.0
    for J, t, _, dev, nerr, leak in route_chunks(decomp, J_values, ts):
        k = int(np.argmax(dev))
        if dev[k] > worst[0]:
            worst = (float(dev[k]), float(t[k]), J)
        worst_norm = max(worst_norm, float(nerr.max()))
        worst_leak = max(worst_leak, float(leak.max()))
    return OracleReport(max_deviation=worst[0], worst_t=worst[1], worst_J=worst[2],
                        points=len(J_values) * ts.size,
                        max_norm_error=worst_norm, max_sector_leak=worst_leak)
