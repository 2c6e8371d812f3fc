"""Time evolution of the Bell-pair initial state, by two independent routes.

Route one evaluates the closed-form single-excitation amplitudes; route two
diagonalizes the Hamiltonian (cyclic Jacobi) and applies the spectral
propagator.  :func:`oracle_equivalence_report` certifies that both routes
agree, which is what pins down the committed bond geometry.  Times and
couplings are in units of the ring coupling D (see :mod:`triplaq.spin_core`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericalHealthError
from .spin_core import (
    SITE_OF_SLOT,
    build_hamiltonian,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
)


@dataclass(frozen=True)
class SingleExcitationAmplitudes:
    """The four single-excitation amplitudes at one point of (t, J).

    ``amplitudes`` is ordered over (|0001>, |0010>, |0100>, |1000>), i.e. an
    excitation sitting at site 4, 3, 2, 1 respectively.
    """

    amplitudes: tuple[complex, complex, complex, complex]
    t: float
    J: float

    def site_amplitude(self, site: int) -> complex:
        """Amplitude of the excitation located at ``site`` (1..4)."""
        try:
            slot = SITE_OF_SLOT.index(site)
        except ValueError:
            raise ValueError(f"site index {site} outside 1..4") from None
        return self.amplitudes[slot]


def _closed_form_components(t, J):
    """The four closed-form amplitudes, elementwise over broadcast (t, J).

    The one source of the amplitude formula: scalar and grid callers both
    evaluate it, so their values agree bit for bit.
    """
    c = np.cos(J * t / 2.0)
    s = np.sin(J * t / 2.0)
    sin_d = np.sin(t)
    cos_d = np.cos(t)
    pref = 1.0 / (2.0 * np.sqrt(2.0))
    a0001 = pref * (c * (sin_d - cos_d + 1) - 1j * s * (-sin_d + cos_d + 1))
    a0010 = pref * (c * (-sin_d - cos_d + 1) - 1j * s * (sin_d + cos_d + 1))
    a0100 = pref * (c * (-sin_d + cos_d + 1) + 1j * s * (-sin_d + cos_d - 1))
    a1000 = pref * (c * (sin_d + cos_d + 1) + 1j * s * (sin_d + cos_d - 1))
    return a0001, a0010, a0100, a1000


def amplitudes_closed_form(t: float, J: float) -> SingleExcitationAmplitudes:
    """Closed-form amplitudes of the evolved Bell-pair initial state.

    Total function of t >= 0; the result is exactly normalized for every
    (t, J).
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    a0001, a0010, a0100, a1000 = _closed_form_components(t, J)
    return SingleExcitationAmplitudes(
        (complex(a0001), complex(a0010), complex(a0100), complex(a1000)),
        t=float(t), J=float(J))


def closed_form_state(t, J) -> np.ndarray:
    """Closed-form states over broadcast (t, J): shape (..., 16).

    Elementwise equal, bit for bit, to embedding
    :func:`amplitudes_closed_form` at each point; ``closed_form_state(t, js)``
    gives one t-row of a grid and scalar (t, J) one 16-vector.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"t must be nonnegative, got {t.min()}")
    return embed_single_excitation(np.stack(
        _closed_form_components(t, np.asarray(J, dtype=float)), axis=-1))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix or of a stack of them.

    eigenvalues, shape (..., n), are ascending; eigenvectors[..., :, k],
    shape (..., n, n), belongs to eigenvalues[..., k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_hermitian(H: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2] or H.size == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {H.shape}")
    # a NaN or infinite entry makes the defect NaN or infinite, so it fails
    # too; one temporary of H's size, as stacks can be large
    adjoint = H.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):
        adjoint -= H
    defect = np.abs(adjoint).max()
    if not defect <= tol:
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


def hermitian_eigendecompose(H: np.ndarray) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization of a Hermitian matrix, shape (n, n), or
    of a stack of them, shape (..., n, n), in one pass over the stack.

    Rotations are applied in a fixed row-major order, which makes the output
    deterministic (including the basis chosen inside degenerate eigenspaces).
    Convergence, per matrix: off-diagonal Frobenius norm below 1e-13
    relative to the matrix's own scale, within 100 sweeps.  Each matrix of
    a stack gets exactly the rotations it would get alone, so the result
    equals per-matrix calls bit for bit.  Raises ContractViolationError for
    a non-finite or non-Hermitian input and for a Frobenius norm that
    overflows.
    """
    H = _require_hermitian(H)
    lead, n = H.shape[:-2], H.shape[-1]
    A = H.reshape(-1, n, n).copy()
    m = A.shape[0]
    with np.errstate(over="ignore"):
        scale = np.array([max(1.0, float(np.linalg.norm(a))) for a in A])
    if not np.isfinite(scale).all():
        raise ContractViolationError("matrix Frobenius norm overflows")
    # elements this small cannot move the off-norm past the tolerance, and
    # rotating on denormal-range values would overflow the phase division
    skip_below = 1e-13 * scale / (10.0 * n * n)
    Vt = np.empty_like(A)
    Vt[:] = np.eye(n)
    live = np.ones(m, dtype=bool)       # the matrices not yet converged
    for _ in range(100):
        for k in np.flatnonzero(live):
            live[k] = float(np.linalg.norm(A[k] - np.diag(np.diag(A[k])))) > 1e-13 * scale[k]
        if not live.any():
            break
        # a converged matrix skips every pair, so it never rotates again
        _jacobi_sweep(A, Vt, np.where(live, skip_below, np.inf))
    evals = np.diagonal(A, axis1=-2, axis2=-1).real
    order = np.argsort(evals, axis=-1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=-1)
    del A       # free it before the eigenvectors are copied out
    # rows of Vt in eigenvalue order: each eigenvector matrix column-major,
    # as V[:, order] lays out one matrix, so that propagation runs the same
    # BLAS calls for a stack
    vecs = Vt[np.arange(m)[:, None], order].swapaxes(-1, -2)
    return EigenDecomposition(evals.reshape(lead + (n,)), vecs.reshape(lead + (n, n)))


def evolve_numeric(decomp: EigenDecomposition, psi0: np.ndarray, t) -> np.ndarray:
    """Spectral propagation psi(t) = V exp(-i E t) V+ psi0 of a diagonalized H.

    ``t`` is a scalar, giving one 16-vector, or a vector of times, giving
    one row per time from a single matmul.  A stacked decomposition (leading
    axes ``...``) gives shape (..., 16) or (..., nt, 16), each stack entry
    bit-identical to propagating its own decomposition.  Raises
    NumericalHealthError if any row's norm moved by more than 1e-8.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    V, E = decomp.eigenvectors, decomp.eigenvalues
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * (t.reshape(-1, 1) * E[..., None, :]))
    coef = np.conj(V).swapaxes(-1, -2) @ psi0
    psi_t = np.matmul(phases * coef[..., None, :], V.swapaxes(-1, -2))
    psi_t = psi_t.reshape(E.shape[:-1] + t.shape + E.shape[-1:])
    drift = np.abs(np.linalg.norm(psi_t, axis=-1) - float(np.linalg.norm(psi0)))
    if not np.all(drift <= 1e-8):
        raise NumericalHealthError(f"propagation changed the norm by {drift.max():.3e}")
    return psi_t


def phase_aligned_distance(psi: np.ndarray, reference: np.ndarray):
    """2-norm distance after quotienting out one global phase, per state of
    broadcast (..., 16) stacks.

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


#: Times propagated per batch, and couplings per stacked decomposition in
#: ``surface``; keeps each batch small (128 x 16 complex states, 32 KiB;
#: 128 Hamiltonians, 512 KiB) however long the grid is.
TIME_CHUNK = 128


@dataclass(frozen=True)
class OracleReport:
    """Worst-case disagreement between the numeric and closed-form routes."""

    max_deviation: float
    worst_t: float
    worst_J: float
    points: int


def oracle_equivalence_report(J_values, t_values,
                              geometry_factory=default_plaquette) -> OracleReport:
    """Sweep both evolution routes over a (J, t) grid and report the worst point.

    The deviation per point is the phase-quotiented distance between the
    numerically propagated state and the embedded closed-form amplitudes.
    A wrong bond geometry shows up as an O(1) deviation.  All Hamiltonians
    are diagonalized as one stack; ties go to the first J, then the first t.
    Propagation runs one J and at most TIME_CHUNK times at a time, so every
    temporary stays at 32 KiB; larger ones took fresh pages from the kernel
    on every call, at a cost that follows the host's memory load.
    """
    J_values = [float(J) for J in J_values]
    ts = np.asarray(list(t_values), dtype=float)
    if not J_values or not ts.size:
        raise ValueError("J and t grids must be nonempty")
    psi0 = initial_bell_state()
    stack = hermitian_eigendecompose(np.stack(
        [build_hamiltonian(geometry_factory(J)) for J in J_values]))
    worst = (-1.0, 0.0, 0.0)
    for j, J in enumerate(J_values):
        decomp = EigenDecomposition(stack.eigenvalues[j], stack.eigenvectors[j])
        for lo in range(0, ts.size, TIME_CHUNK):
            chunk = ts[lo:lo + TIME_CHUNK]
            dev = phase_aligned_distance(evolve_numeric(decomp, psi0, chunk),
                                         closed_form_state(chunk, J))
            k = int(np.argmax(dev))
            if dev[k] > worst[0]:
                worst = (float(dev[k]), float(chunk[k]), J)
    return OracleReport(max_deviation=worst[0], worst_t=worst[1],
                        worst_J=worst[2], points=len(J_values) * ts.size)
