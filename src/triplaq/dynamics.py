"""Time evolution of the Bell-pair initial state, by two independent routes.

Route one evaluates the closed-form single-excitation amplitudes; route
two diagonalizes a stack of Hamiltonians' 4x4 single-excitation blocks
(cyclic Jacobi over every matrix of the stack at once, bit-identical to
per-matrix calls) and applies the spectral propagator to the Bell pair's
four sector amplitudes.  Both bond kinds conserve total S^z, which
:func:`~triplaq.spin_core.single_excitation_block` checks on H before
anything propagates, so the state never leaves that block.
:func:`route_chunks` runs both routes side by side on a J stack's (E, V)
pair and scores each numeric state by the distance of its amplitudes to
the closed form's; :func:`oracle_equivalence_report` reduces it to the
worst point, which is what pins down the bond geometry, and ``evolve``
writes it out.  Times and couplings are in units of the ring coupling D
(see :mod:`triplaq.spin_core`).
"""

from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, NumericalHealthError
from .spin_core import SINGLE_EXCITATION_INDICES, embed_single_excitation, initial_bell_state


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

    A sweep is one :func:`_jacobi_sweep` call over every matrix of the
    stack, pairs in row-major order, so the output is deterministic
    (degenerate eigenspaces included).  A matrix rotates only at its own
    nonzero pairs: a zero pair, such as one between two blocks that no
    element couples, never rotates, so each block gets its own rotations in
    row-major order, and each matrix exactly those it would get alone: the
    result equals per-matrix calls bit for bit.  Convergence, per matrix:
    off-diagonal Frobenius norm below 1e-13 of the matrix's own scale,
    within 100 sweeps.  Raises ContractViolationError for a non-finite or
    non-Hermitian input and for a Frobenius norm that overflows.
    """
    H = _require_hermitian(H)
    lead, n = H.shape[:-2], H.shape[-1]
    # A is diagonalized in place, and Vt holds its transposed eigenvector
    # matrices (see _rotate)
    A = H.reshape(-1, n, n).copy()
    m = A.shape[0]
    Vt = np.tile(np.eye(n, dtype=complex), (m, 1, 1))
    flat = A.reshape(m, -1)     # a view; np.vecdot makes no temporary of its size
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, np.sqrt(np.vecdot(flat, flat).real))
    if not np.isfinite(scale).all():
        raise ContractViolationError("matrix Frobenius norm overflows")
    # elements this small cannot move the off-norm past the tolerance, and
    # rotating on denormal-range values would overflow the phase division
    skip_below = 1e-13 * scale / (10.0 * n * n)
    off_diagonal = ~np.eye(n, dtype=bool).ravel()
    for _ in range(100):
        off = flat[:, off_diagonal]
        live = np.sqrt(np.vecdot(off, off).real) > 1e-13 * scale
        if not live.any():
            break
        # a converged matrix skips every pair, so it never rotates again
        _jacobi_sweep(A, Vt, np.where(live, skip_below, np.inf))
    evals = np.diagonal(A, axis1=-2, axis2=-1).real
    order = np.argsort(evals, axis=-1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=-1)
    # the rows of Vt in ascending order of their eigenvalues, transposed: each
    # eigenvector matrix column-major, as V[:, order] lays out one matrix, so
    # that propagation runs the same BLAS calls for a stack
    vecs = np.take_along_axis(Vt, order[..., None], axis=-2)
    return evals.reshape(lead + (n,)), vecs.swapaxes(-1, -2).reshape(lead + (n, n))


def evolve_numeric(decomp, psi0: np.ndarray, t, *, return_norms: bool = False):
    """Spectral propagation psi(t) = V exp(-i E t) V+ psi0 of a diagonalized
    H, given as the (E, V) pair that ``np.linalg.eigh`` returns.

    ``psi0`` has H's dimension n: 4 for a single-excitation block, or 16.
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

    ``decomp`` is the (E, V) pair of the Hamiltonians' 4x4 single-excitation
    blocks (:func:`~triplaq.spin_core.single_excitation_block`) at
    ``J_values``, stacked in that order, as :func:`hermitian_eigendecompose`
    returns it.  The Bell pair's four sector amplitudes propagate inside the
    block: 4 phases per time and an (nt, 4) @ (4, 4) product per chunk.
    The closed form is one amplitude call per AMPLITUDE_BLOCK times, so no
    array grows with the grid (20 001 times of amplitudes are 1.3 MB).  Each
    chunk yields ``(J, t, amplitudes, deviation, norm_error)``: the chunk's
    times and closed-form amplitudes (..., 4), and per time the
    phase-quotiented distance of the numerically propagated amplitudes to
    them, and the numeric state's norm error.
    """
    J_values = [float(J) for J in J_values]
    ts = np.asarray(t_values, dtype=float)
    if not J_values or not ts.size:
        raise ValueError("J and t grids must be nonempty")
    E, V = decomp
    if E.shape[:-1] != (len(J_values),):
        raise ValueError(f"expected eigenvalues of {len(J_values)} Hamiltonians, "
                         f"got shape {E.shape}")
    psi0 = initial_bell_state()[list(SINGLE_EXCITATION_INDICES)]
    for j, J in enumerate(J_values):
        for lo in range(0, ts.size, AMPLITUDE_BLOCK):
            block = ts[lo:lo + AMPLITUDE_BLOCK]
            amplitudes = amplitudes_closed_form(block, J)
            for k in range(0, block.size, TIME_CHUNK):
                t, amps = block[k:k + TIME_CHUNK], amplitudes[k:k + TIME_CHUNK]
                psi, norms = evolve_numeric((E[j], V[j]), psi0, t, return_norms=True)
                # |norm - 1| is norm_error(psi), from the norms the drift check took
                yield J, t, amps, phase_aligned_distance(psi, amps), np.abs(norms - 1.0)


class OracleReport(NamedTuple):
    """Worst-case disagreement between the numeric and closed-form routes,
    and the numeric route's worst norm error."""

    max_deviation: float
    worst_t: float
    worst_J: float
    points: int
    max_norm_error: float


def oracle_equivalence_report(decomp, J_values, t_values) -> OracleReport:
    """Sweep both evolution routes over a (J, t) grid and report the worst point.

    ``decomp`` stacks the (E, V) pairs of the single-excitation blocks of the
    Hamiltonians at ``J_values`` (see :func:`route_chunks`, whose chunks this
    reduces).  The deviation per point is the phase-quotiented distance
    between the numerically propagated sector amplitudes and the
    closed-form ones.  A wrong bond geometry shows up as an O(1) deviation;
    ties go to the first J, then the first t.
    """
    J_values, ts = list(J_values), np.asarray(list(t_values), dtype=float)
    worst, worst_norm = (-1.0, 0.0, 0.0), 0.0
    for J, t, _, dev, nerr in route_chunks(decomp, J_values, ts):
        k = int(np.argmax(dev))
        if dev[k] > worst[0]:
            worst = (float(dev[k]), float(t[k]), J)
        worst_norm = max(worst_norm, float(nerr.max()))
    return OracleReport(max_deviation=worst[0], worst_t=worst[1], worst_J=worst[2],
                        points=len(J_values) * ts.size, max_norm_error=worst_norm)
