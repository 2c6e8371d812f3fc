"""Time evolution of the Bell-pair initial state, by two independent routes.

Route one evaluates the closed-form single-excitation amplitudes; route two
diagonalizes the Hamiltonian (cyclic Jacobi) and applies the spectral
propagator.  :func:`oracle_equivalence_report` certifies that both routes
agree, which is what pins down the committed bond geometry.
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
    """The four single-excitation amplitudes at one point of (t, J, D).

    ``amplitudes`` is ordered over (|0001>, |0010>, |0100>, |1000>), i.e. an
    excitation sitting at site 4, 3, 2, 1 respectively.
    """

    amplitudes: tuple[complex, complex, complex, complex]
    t: float
    J: float
    D: float = 1.0

    def site_amplitude(self, site: int) -> complex:
        """Amplitude of the excitation located at ``site`` (1..4)."""
        try:
            slot = SITE_OF_SLOT.index(site)
        except ValueError:
            raise ValueError(f"site index {site} outside 1..4") from None
        return self.amplitudes[slot]


def _closed_form_components(t, J, D):
    """The four closed-form amplitudes, elementwise over broadcast (t, J, D).

    The one source of the amplitude formula: scalar and grid callers both
    evaluate it, so their values agree bit for bit.
    """
    c = np.cos(J * t / 2.0)
    s = np.sin(J * t / 2.0)
    sin_d = np.sin(D * t)
    cos_d = np.cos(D * t)
    pref = 1.0 / (2.0 * np.sqrt(2.0))
    a0001 = pref * (c * (sin_d - cos_d + 1) - 1j * s * (-sin_d + cos_d + 1))
    a0010 = pref * (c * (-sin_d - cos_d + 1) - 1j * s * (sin_d + cos_d + 1))
    a0100 = pref * (c * (-sin_d + cos_d + 1) + 1j * s * (-sin_d + cos_d - 1))
    a1000 = pref * (c * (sin_d + cos_d + 1) + 1j * s * (sin_d + cos_d - 1))
    return a0001, a0010, a0100, a1000


def amplitudes_closed_form(t: float, J: float, D: float = 1.0) -> SingleExcitationAmplitudes:
    """Closed-form amplitudes of the evolved Bell-pair initial state.

    Total function of t >= 0; the result is exactly normalized for every
    (t, J, D).  For D != 1 the evaluation is equivalent to rescaling
    (t, J) -> (D*t, J/D) at unit D.
    """
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    a0001, a0010, a0100, a1000 = _closed_form_components(t, J, D)
    return SingleExcitationAmplitudes(
        (complex(a0001), complex(a0010), complex(a0100), complex(a1000)),
        t=float(t), J=float(J), D=float(D))


def closed_form_state(t, J, D: float = 1.0) -> np.ndarray:
    """Closed-form states over broadcast (t, J): shape (..., 16).

    Elementwise equal, bit for bit, to embedding
    :func:`amplitudes_closed_form` at each point; ``closed_form_state(t, js)``
    gives one t-row of a grid and scalar (t, J) one 16-vector.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"t must be nonnegative, got {t.min()}")
    return embed_single_excitation(np.stack(
        _closed_form_components(t, np.asarray(J, dtype=float), D), axis=-1))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors[:, k] belongs to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_hermitian(H: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    defect = np.abs(H - H.conj().T).max()
    if defect > tol:
        raise ContractViolationError(f"matrix is not Hermitian (defect {defect:.3e})")
    return H


def hermitian_eigendecompose(H: np.ndarray) -> EigenDecomposition:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Rotations are applied in a fixed row-major order, which makes the output
    deterministic (including the basis chosen inside degenerate eigenspaces).
    Convergence: off-diagonal Frobenius norm below 1e-13 relative to the
    matrix scale, within 100 sweeps.
    """
    A = _require_hermitian(H).copy()
    n = A.shape[0]
    V = np.eye(n, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(A)))
    # elements this small cannot move the off-norm past the tolerance, and
    # rotating on denormal-range values would overflow the phase division
    skip_below = 1e-13 * scale / (10.0 * n * n)
    for _ in range(100):
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= 1e-13 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(A[p, q])
                if r <= skip_below:
                    continue
                phase = A[p, q] / r
                diff = float((A[q, q] - A[p, p]).real)
                if diff == 0.0:
                    t = 1.0
                else:
                    tau = diff / (2.0 * r)
                    if abs(tau) > 1e12:
                        # asymptotic branch avoids overflow in tau**2
                        t = 1.0 / (2.0 * tau)
                    else:
                        t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # A <- U+ A U with the 2x2 unitary [[c, s*phase], [-s*conj(phase), c]]
                colp = A[:, p] * c - A[:, q] * (s * np.conj(phase))
                colq = A[:, p] * (s * phase) + A[:, q] * c
                A[:, p], A[:, q] = colp, colq
                rowp = A[p, :] * c - A[q, :] * (s * phase)
                rowq = A[p, :] * (s * np.conj(phase)) + A[q, :] * c
                A[p, :], A[q, :] = rowp, rowq
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp = V[:, p] * c - V[:, q] * (s * np.conj(phase))
                vq = V[:, p] * (s * phase) + V[:, q] * c
                V[:, p], V[:, q] = vp, vq
    evals = np.diag(A).real.copy()
    order = np.argsort(evals, kind="stable")
    return EigenDecomposition(evals[order], V[:, order])


def evolve_numeric(decomp: EigenDecomposition, psi0: np.ndarray, t) -> np.ndarray:
    """Spectral propagation psi(t) = V exp(-i E t) V+ psi0 of a diagonalized H.

    ``t`` is a scalar, giving one 16-vector, or a vector of times, giving
    one row per time from a single matmul.  Raises NumericalHealthError if
    any row's norm moved by more than 1e-8.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    V = decomp.eigenvectors
    phases = np.exp(-1j * np.multiply.outer(np.asarray(t, dtype=float),
                                            decomp.eigenvalues))
    psi_t = (phases * (V.conj().T @ psi0)) @ V.T
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


#: Times propagated per batch; keeps each batch of states small
#: (128 x 16 complex, 32 KiB) however long the time vector is.
TIME_CHUNK = 128


@dataclass(frozen=True)
class OracleReport:
    """Worst-case disagreement between the numeric and closed-form routes."""

    max_deviation: float
    worst_t: float
    worst_J: float
    points: int


def oracle_equivalence_report(J_values, t_values, D: float = 1.0,
                              geometry_factory=default_plaquette) -> OracleReport:
    """Sweep both evolution routes over a (J, t) grid and report the worst point.

    The deviation per point is the phase-quotiented distance between the
    numerically propagated state and the embedded closed-form amplitudes.
    A wrong bond geometry shows up as an O(1) deviation.
    """
    J_values = list(J_values)
    t_values = list(t_values)
    if not J_values or not t_values:
        raise ValueError("J and t grids must be nonempty")
    psi0 = initial_bell_state()
    ts = np.asarray(t_values, dtype=float)
    worst = (-1.0, 0.0, 0.0)
    for J in J_values:
        decomp = hermitian_eigendecompose(build_hamiltonian(geometry_factory(J, D)))
        for lo in range(0, ts.size, TIME_CHUNK):
            chunk = ts[lo:lo + TIME_CHUNK]
            dev = phase_aligned_distance(evolve_numeric(decomp, psi0, chunk),
                                         closed_form_state(chunk, J, D))
            k = int(np.argmax(dev))
            if dev[k] > worst[0]:
                worst = (float(dev[k]), float(chunk[k]), float(J))
    return OracleReport(max_deviation=worst[0], worst_t=worst[1],
                        worst_J=worst[2], points=len(J_values) * len(ts))
