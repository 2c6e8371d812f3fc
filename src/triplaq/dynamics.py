"""Time evolution of the Bell-pair initial state, by two independent routes.

Route one evaluates the closed-form single-excitation amplitudes; route
two diagonalizes a stack of Hamiltonians' 4x4 single-excitation blocks
(cyclic Jacobi over every matrix of the stack at once, bit-identical to
per-matrix calls) and applies the spectral propagator to the Bell pair's
four sector amplitudes.  Both bond kinds conserve total S^z, which
:func:`~triplaq.spin_core.single_excitation_block` checks on H before
anything propagates, so the state never leaves that block.
:func:`route_chunks` runs both routes side by side on a J stack's (E, V)
pair, in blocks of every J and AMPLITUDE_BLOCK // nJ times, one call of
each route per block, and scores each numeric state by the distance of its
amplitudes to the closed form's; :func:`oracle_equivalence_report` reduces
the blocks to the worst point, which is what pins down the bond geometry,
and ``evolve`` writes them out.  Times and couplings are in units of the
ring coupling D (see :mod:`triplaq.spin_core`).
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
    half = J * t / 2.0
    c, s = np.cos(half), np.sin(half)
    del half
    sin_d, cos_d = np.sin(t), np.cos(t)
    pref = 1.0 / (2.0 * np.sqrt(2.0))
    # Component k is pref * (c * A_k -+ i s * B_k), minus for k = 0, 1, with
    # A_k, B_k the paper's sums +-sin t +- cos t +- 1; rounding is symmetric,
    # so each is exactly +-1 times one of u, v, w, x below.  Real and
    # imaginary parts are float expressions written into the result, with no
    # float operand cast to complex, and with the bits of the complex
    # products: "0.0 -" turns a zero of s * B_k into +0.0, and the real part
    # is pref * z.real - 0.0 * z.imag, z.real being c * A_k, or c * A_k + 0.0
    # where i s * B_k is added, which sets its sign where A_k is exactly 0.
    p, m = sin_d + cos_d, sin_d - cos_d
    del sin_d, cos_d
    u, v, w, x = m + 1, 1 - m, 1 - p, p + 1
    del p, m
    out = np.empty(c.shape + (4,), dtype=complex)
    parts = out.view(float)     # re, im of each component in turn
    for k, (a, b) in enumerate(((u, v), (w, x), (v, u), (x, w))):
        z_im = 0.0 - s * b
        np.multiply(pref, z_im, out=parts[..., 2 * k + 1])
        z_re = c * a if k < 2 else c * a + 0.0
        np.subtract(pref * z_re, 0.0 * z_im, out=parts[..., 2 * k])
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
    phases *= coef[..., None, :]
    psi_t = np.matmul(phases, V.swapaxes(-1, -2))
    del phases                          # freed before the norm's temporaries
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
    diff = ph / np.abs(ph) * reference
    np.subtract(psi, diff, out=diff)
    # np.linalg.norm(diff, axis=-1)'s ufuncs in its order, in place
    sq = diff.conj()
    sq *= diff
    return np.sqrt(np.add.reduce(sq.real, axis=-1))


#: Rows of the events scan's gap surface evaluated, or CSV rows formatted,
#: per batch; keeps each batch small on any grid.  The evolution routes
#: batch by AMPLITUDE_BLOCK instead.
TIME_CHUNK = 128

#: (J, t) points a grid scan or a route_chunks block evaluates per call: the
#: report's sweep takes whole t-rows of its J grid, route_chunks every J of
#: its stack and AMPLITUDE_BLOCK // nJ times.  A point's 4 amplitudes take
#: 64 B, so a block's amplitudes, and each of its propagation temporaries,
#: take 32 KiB, as do 128 embedded 16-component states.
AMPLITUDE_BLOCK = 4 * TIME_CHUNK


def route_chunks(decomp, J_values, t_values):
    """Both evolution routes over a (J, t) grid, in blocks of every J and
    max(1, AMPLITUDE_BLOCK // nJ) times: at most AMPLITUDE_BLOCK points, or
    32 KiB of amplitudes, whenever nJ <= AMPLITUDE_BLOCK.

    ``decomp`` is the (E, V) pair of the Hamiltonians' 4x4 single-excitation
    blocks (:func:`~triplaq.spin_core.single_excitation_block`) at
    ``J_values``, stacked in that order, as :func:`hermitian_eigendecompose`
    returns it.  The Bell pair's four sector amplitudes propagate inside the
    blocks, one :func:`evolve_numeric` call over the whole stack per block
    (each J bit-identical to its own call), against one
    :func:`amplitudes_closed_form` call, so no array grows with the grid
    (20 001 times of amplitudes are 1.3 MB).  Each block yields
    ``(lo, t, amplitudes, deviation, norm_error)``: the offset of its first
    time in ``t_values``, its times (nt,), the closed-form amplitudes
    (nJ, nt, 4), and per point (nJ, nt) the phase-quotiented distance of the
    numerically propagated amplitudes to them and the numeric state's norm
    error.
    """
    Js = np.array([float(J) for J in J_values])
    ts = np.asarray(t_values, dtype=float)
    if not Js.size or not ts.size:
        raise ValueError("J and t grids must be nonempty")
    E, V = decomp
    if E.shape[:-1] != Js.shape:
        raise ValueError(f"expected eigenvalues of {Js.size} Hamiltonians, "
                         f"got shape {E.shape}")
    psi0 = initial_bell_state()[list(SINGLE_EXCITATION_INDICES)]
    step = max(1, AMPLITUDE_BLOCK // Js.size)
    for lo in range(0, ts.size, step):
        t = ts[lo:lo + step]
        amps = amplitudes_closed_form(t, Js[:, None])
        psi, norms = evolve_numeric(decomp, psi0, t, return_norms=True)
        # |norm - 1| is norm_error(psi), from the norms the drift check took
        yield lo, t, amps, phase_aligned_distance(psi, amps), np.abs(norms - 1.0)


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
    Hamiltonians at ``J_values`` (see :func:`route_chunks`, whose blocks this
    reduces).  The deviation per point is the phase-quotiented distance
    between the numerically propagated sector amplitudes and the
    closed-form ones.  Each J keeps its worst deviation so far and that
    point's time, replaced only by a strictly larger one in a later block;
    one argmax over the per-J maxima then finds the worst point, so ties go
    to the first J, then the first t, and no array grows with the grid.  A
    wrong bond geometry shows up as an O(1) deviation.
    """
    J_values, ts = list(J_values), np.asarray(list(t_values), dtype=float)
    worst = np.full(len(J_values), -np.inf)
    at = np.zeros(len(J_values), dtype=int)
    worst_norm = 0.0
    for lo, _, _, dev, nerr in route_chunks(decomp, J_values, ts):
        k = np.argmax(dev, axis=1)
        block_worst = dev.max(axis=1)
        larger = block_worst > worst
        worst[larger] = block_worst[larger]
        at[larger] = lo + k[larger]
        worst_norm = max(worst_norm, float(nerr.max()))
    j = int(np.argmax(worst))
    return OracleReport(max_deviation=float(worst[j]), worst_t=float(ts[at[j]]),
                        worst_J=float(J_values[j]), points=len(J_values) * ts.size,
                        max_norm_error=worst_norm)
