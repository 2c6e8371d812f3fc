"""Pairwise concurrence, two ways, plus the transfer gap.

The full recipe (partial trace, spin-flipped product, characteristic
quartic) works for any two-qubit reduced state and broadcasts over stacks of
states or matrices, each matrix bit for bit as if alone.  The pure-state
route serves the scans: the singular values of the Hill-Wootters matrices,
built and solved one connected block at a time of the pattern the
amplitudes allow, so that the single-excitation states the scans score
build one entry per matrix and need no SVD.  The closed forms
evaluate fixed trigonometric reference expressions for the (1,2), (3,4) and
(1,3) pair signals: the first two are exactly the *squared* Wootters values
4|a_m|^2|a_n|^2, the third is 4|a_1|^2|a_3|^2 + cos(2Jt)/8 - sin(2t)/4 and
no concurrence, so the Wootters route is always the source of truth.
"""

import numpy as np

from .errors import ContractViolationError, NumericalHealthError
from .spin_core import _blocks

ALL_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
#: The four pair signals tracked by scans: first pair, last pair, both legs.
SCAN_PAIRS = ((1, 2), (3, 4), (1, 3), (2, 4))

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def _check_pair(pair) -> tuple[int, int]:
    m, n = pair
    if not (1 <= m <= 4 and 1 <= n <= 4):
        raise ValueError(f"pair sites must lie in 1..4, got {pair}")
    if m >= n:
        raise ValueError(f"pair must satisfy m < n, got {pair}")
    return int(m), int(n)


def _block_index(m: int, n: int) -> np.ndarray:
    # flat 16-vector index of each entry of the pair's 4x4 block: rows run
    # over the kept qubits (m more significant), columns over the traced ones
    keep = (m - 1, n - 1)
    rest = tuple(k for k in range(4) if k not in keep)
    return np.transpose(np.arange(16).reshape(2, 2, 2, 2), keep + rest).reshape(4, 4)


_BLOCK_INDEX = {pair: _block_index(*pair) for pair in ALL_PAIRS}


def _check_density(rho: np.ndarray) -> None:
    """Raise ContractViolationError unless every matrix of the (..., 4, 4)
    stack is Hermitian, of trace 1 and positive semidefinite."""
    if (np.abs(rho - np.swapaxes(rho.conj(), -1, -2)) > 1e-12).any():
        raise ContractViolationError("reduced density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if ((np.abs(trace.real - 1.0) > 1e-12) | (np.abs(trace.imag) > 1e-12)).any():
        raise ContractViolationError("reduced density matrix trace is not 1")
    if (np.linalg.eigvalsh(rho) < -1e-10).any():
        raise ContractViolationError("reduced density matrix is not PSD")


def _check_states(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (16,):
        raise ValueError(f"expected (..., 16) state vectors, got shape {psi.shape}")
    bad = ~np.isfinite(psi)
    if bad.any():
        at = tuple(int(k) for k in np.argwhere(bad)[0])
        raise ContractViolationError(
            f"{np.count_nonzero(bad)} state amplitude(s) not finite, the first "
            f"psi{list(at)} = {psi[at]}")
    return psi


def partial_trace_pair(psi, pair) -> np.ndarray:
    """Reduced density matrices of ``pair`` for (..., 16) states, shape
    (..., 4, 4): B B+, with B the pair's 4x4 block of the state.

    Each matrix is over the ordered basis (|00>, |01>, |10>, |11>) of the
    kept qubits, the lower site index the more significant bit, and is
    validated by :func:`_check_density`; a bad one anywhere raises.
    """
    block = _check_states(psi)[..., _BLOCK_INDEX[_check_pair(pair)]]
    rho = block @ np.swapaxes(block.conj(), -1, -2)
    _check_density(rho)
    return rho


def _char_poly_coeffs(M: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomials of a (..., 4, 4) stack
    (Faddeev-LeVerrier), shape (..., 5)."""
    n = 4
    coeffs = np.zeros(M.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    Mk = np.array(M, dtype=complex)
    for k in range(1, n + 1):
        coeffs[..., k] = -np.trace(Mk, axis1=-2, axis2=-1) / k
        if k < n:
            Mk = M @ (Mk + coeffs[..., k, None, None] * np.eye(n))
    return coeffs


def _check_real(imag: np.ndarray, what: str) -> None:
    """Raise NumericalHealthError if any imaginary part exceeds 1e-9."""
    imag = np.abs(imag)
    if (imag > 1e-9).any():
        raise NumericalHealthError(
            f"{what} imaginary part {imag[imag > 1e-9].max():.3e}")


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real roots of x^2 + b x + c per element, shape (..., 2), guarding
    small negative discriminants."""
    disc = b * b - 4.0 * c
    negative = disc < 0.0
    _check_real(np.sqrt(-disc[negative]) / 2.0, "spin-flip spectrum has")
    root = np.sqrt(np.where(negative, 0.0, disc))
    q = np.where(b != 0.0, -0.5 * (b + np.copysign(root, b)), 0.5 * root)
    other = np.divide(c, q, out=np.zeros_like(q), where=q != 0.0)
    return np.stack([q, other], axis=-1)


def _spin_flip_spectrum(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of each rho @ rho_tilde of a (..., 4, 4) stack via its
    guarded characteristic quartic, shape (..., 4).

    Trailing coefficients at roundoff level are deflated exactly (roots at
    zero); what remains is solved in closed form up to degree two and by one
    batched companion-matrix eigensolve per degree above that.  Negative dust
    is clamped; anything beyond the 1e-9 guards, in any matrix of the stack,
    raises NumericalHealthError.
    """
    coeffs = _char_poly_coeffs(M.reshape(-1, 4, 4))
    _check_real(coeffs.imag, "characteristic coefficients have")
    c = coeffs.real
    scale = np.maximum(1.0, np.abs(c).max(axis=-1))
    tiny = np.abs(c[:, 1:]) < 1e-12 * scale[:, None]
    degree = 4 - np.cumprod(tiny[:, ::-1], axis=-1).sum(axis=-1)
    lam = np.zeros((len(c), 4))
    one, two = degree == 1, degree == 2
    lam[one, 0] = -c[one, 1]
    lam[two, :2] = _quadratic_roots(c[two, 1], c[two, 2])
    for d in (3, 4):
        sel = degree == d
        if sel.any():
            # the companion matrices np.roots builds for a monic polynomial
            companion = np.zeros((int(sel.sum()), d, d))
            companion[:, 0] = -c[sel, 1:d + 1]
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            roots = np.linalg.eigvals(companion)
            _check_real(roots.imag, "spin-flip spectrum has")
            lam[sel, :d] = roots.real
    if (lam < -1e-9).any():
        raise NumericalHealthError(
            f"spin-flip spectrum has negative eigenvalue {lam.min():.3e}")
    return np.maximum(lam, 0.0).reshape(M.shape[:-1])


def wootters_concurrence(rho):
    """Wootters concurrence of each matrix of a (..., 4, 4) stack from the
    spin-flipped product rho @ (sy x sy) rho* (sy x sy), by the guarded
    quartic, shape (...); a float for one matrix.  The matrices are taken
    as given: :func:`partial_trace_pair` is what validates them.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected (..., 4, 4) matrices, got shape {rho.shape}")
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    gammas = np.sort(np.sqrt(_spin_flip_spectrum(rho @ rho_tilde)), axis=-1)[..., ::-1]
    value = 2.0 * gammas[..., 0] - gammas.sum(axis=-1)
    value = np.where(value > 0.0, value, 0.0)
    return float(value) if value.ndim == 0 else value


def state_concurrence(psi, pair):
    """Wootters concurrence of one pair of (..., 16) states by the quartic
    route, shape (...); a float for one 16-vector."""
    return wootters_concurrence(partial_trace_pair(psi, pair))


def _hill_wootters_block(B: np.ndarray) -> np.ndarray:
    """One diagonal block of M = B^T (sy x sy) B per matrix, given the
    block's columns of the pair's 4x4 block B, shape (..., 4, k): shape
    (..., k, k).

    sy x sy is the anti-diagonal (-1, 1, 1, -1), so with b0..b3 the rows of
    B, M = P + P^T for P = b1 (x) b2 - b0 (x) b3: outer products over the
    stack instead of one small complex matmul per matrix, and M is exactly
    symmetric.  Entry (i, j) reads only columns i and j of B.
    """
    P = B[..., 1, :, None] * B[..., 2, None, :]
    P -= B[..., 0, :, None] * B[..., 3, None, :]
    return P + np.swapaxes(P, -1, -2)


def _structural_pattern(psi: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The 4x4 bool pattern of the M entries that can be nonzero in any
    state of the stack and any pair, from the union of the amplitudes'
    nonzero patterns; ``index`` holds the pairs' flat block indices, shape
    (pairs, 4, 4).  An entry M_ij = P_ij + P_ji is structurally zero unless
    b1_i b2_j, b0_i b3_j or their transposes can be nonzero."""
    b = np.any(psi.reshape(-1, 16) != 0, axis=0)[index]
    P = (b[:, 1, :, None] & b[:, 2, None, :]) | (b[:, 0, :, None] & b[:, 3, None, :])
    return np.any(P | np.swapaxes(P, -1, -2), axis=0)


def pair_concurrences(psi: np.ndarray, pairs=ALL_PAIRS) -> np.ndarray:
    """Wootters concurrences of pure states, shape (..., len(pairs)).

    For a pure state the pair's reduced matrix is rho = B B+, with B the
    4x4 block of kept-by-traced amplitudes, and the square roots of the
    eigenvalues of rho rho_tilde are the singular values of M = B^T (sy x sy) B
    (Hill and Wootters, PRL 78, 5022, 1997).  Unlike the quartic route of
    :func:`state_concurrence`, this keeps concurrences far below 1e-6; the
    eigenvalues of M^H M would square them and lose them again.

    M's singular values are taken one block of
    :func:`~triplaq.spin_core._blocks` at a time, over the whole stack of
    states and pairs: permuting M to a direct sum of its blocks leaves them
    unchanged.  The blocks split M's structural pattern, which is read off
    the union nonzero pattern of the amplitudes and contains every nonzero
    entry, so M is built only on its blocks.  A block with no structural
    entry has singular values 0; a 1x1 block's value is its entry's modulus;
    each larger block gets one batched SVD.  A state with one excitation
    (every state the scans score) has one structural entry in M, so its
    stack takes no SVD; a dense stack is one 4x4 block, one SVD.  A
    non-finite amplitude raises ContractViolationError before any block is
    solved.

    The four singular values of each state and pair are stored along a
    leading axis: the closing max and sum then combine four whole arrays
    elementwise, where a trailing 4-wide axis costs numpy one short
    reduction per state and pair.  Over four terms the sum adds
    ((g0 + g1) + g2) + g3 either way, so the bits are the same.
    """
    psi = _check_states(psi)
    index = np.stack([_BLOCK_INDEX[_check_pair(pair)] for pair in pairs])
    pattern = _structural_pattern(psi, index)
    gammas = np.zeros((4,) + psi.shape[:-1] + (len(pairs),))
    for idx in _blocks(pattern[None]):
        if not pattern[np.ix_(idx, idx)].any():
            continue
        block = _hill_wootters_block(psi[..., index[:, :, idx]])
        gammas[idx] = np.moveaxis(np.abs(block[..., 0]) if idx.size == 1
                                  else np.linalg.svd(block, compute_uv=False), -1, 0)
    return np.maximum(0.0, 2.0 * gammas.max(axis=0) - gammas.sum(axis=0))


# ---------------------------------------------------------------------------
# Closed-form reference expressions (D = 1 units).
# ---------------------------------------------------------------------------

def closed_form_c12(t, J):
    """Reference expression for the (1,2) pair signal: Wootters^2 exactly."""
    return (2.0 * np.cos(t * (J - 3)) + 2.0 * np.cos(2 * t * (J - 1))
            + 12.0 * np.cos(t) * np.cos(t * J) + 2.0 * np.cos(2 * t * (J + 1))
            + 2.0 * np.cos(t * (J + 3)) + 4.0 * np.cos(2 * t)
            + np.cos(4 * t) + 7.0) / 32.0


def closed_form_c34(t, J):
    """Reference expression for the (3,4) pair signal: Wootters^2 exactly."""
    return (-2.0 * np.cos(t * (J - 3)) + 2.0 * np.cos(2 * t * (J - 1))
            - 12.0 * np.cos(t) * np.cos(t * J) + 2.0 * np.cos(2 * t * (J + 1))
            - 2.0 * np.cos(t * (J + 3)) + 4.0 * np.cos(2 * t)
            + np.cos(4 * t) + 7.0) / 32.0


def closed_form_c13(t, J):
    """Reference expression for the (1,3) pair signal.

    Known-bad: exactly the squared Wootters value 4|a_1|^2|a_3|^2 plus
    cos(2Jt)/8 - sin(2t)/4, so 0.125 at t = 0 where the pair is separable,
    and negative elsewhere.  Kept verbatim; never use it as a concurrence.
    """
    return (-2.0 * np.sin(2 * t * (J + 1)) - 2.0 * np.sin(2 * t * (1 - J))
            - 4.0 * np.sin(2 * t) - np.cos(4 * t) + 5.0) / 32.0


def concurrence_gap(t, J):
    """Gap between the (3,4) and (1,2) closed-form signals.

    Equals ``closed_form_c34 - closed_form_c12`` identically; the value 1
    certifies a complete transfer (C34 = 1 and C12 = 0 simultaneously).
    """
    return (-np.cos(t * (J - 3)) - 6.0 * np.cos(t) * np.cos(t * J)
            - np.cos(t * (3 + J))) / 8.0


def gap_from_state(psi: np.ndarray):
    """Cross-validation route: Wootters C34 minus Wootters C12 of (..., 16)
    states, shape (...); a float for one 16-vector."""
    return state_concurrence(psi, (3, 4)) - state_concurrence(psi, (1, 2))
