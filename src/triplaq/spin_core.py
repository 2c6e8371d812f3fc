"""Spin operators and Hamiltonian construction for the four-site plaquette.

Basis convention
----------------
A pure state is a complex 16-vector over the computational basis
|q1 q2 q3 q4>, where qubit 1 is the most significant bit, bit value 1 means
spin up and 0 means spin down.  Basis index 0 therefore is |0000> (all spins
down) and index 8 is |1000> (only site 1 up).

The single-excitation sector is spanned, in this fixed order, by

    (|0001>, |0010>, |0100>, |1000>)  =  indices (1, 2, 4, 8),

i.e. an excitation at site 4, 3, 2, 1 respectively.

The couplings are a z-axis antisymmetric (cross-product) exchange on directed
bonds and an isotropic exchange on undirected bonds.  The default geometry
puts the antisymmetric coupling on the directed ring 1->2->3->4->1 and the
isotropic coupling on the diagonals (1,3) and (2,4); a directed bond i->j
contributes +i/2 to <i-excited|H|j-excited>.  Energies are in units of the
ring coupling D, so D itself is 1 and J is the ratio J/D.
"""

import enum
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractViolationError, NormalizationError

N_SITES = 4
DIM = 2 ** N_SITES

#: Basis indices of the single-excitation sector, ordered
#: (|0001>, |0010>, |0100>, |1000>).
SINGLE_EXCITATION_INDICES = (1, 2, 4, 8)
_SECTOR_SLOTS = np.array(SINGLE_EXCITATION_INDICES)
_OFF_SECTOR = np.ones(DIM, dtype=bool)
_OFF_SECTOR[_SECTOR_SLOTS] = False
_EXCITATIONS = np.array([bin(b).count("1") for b in range(DIM)])
#: Matrix positions whose row and column lie in different total-S^z sectors.
_CROSS_SECTOR = _EXCITATIONS[:, None] != _EXCITATIONS

# Single-site spin-1/2 matrices in the index ordering (|0>=down, |1>=up).
# Note the row/column swap relative to the textbook up-first convention:
# S^z must give +1/2 on index 1.
_SPIN_HALF = {
    "x": 0.5 * np.array([[0, 1], [1, 0]], dtype=complex),
    "y": 0.5 * np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "z": 0.5 * np.array([[-1, 0], [0, 1]], dtype=complex),
}

_ID2 = np.eye(2, dtype=complex)


class BondKind(enum.Enum):
    """Coupling type carried by a bond."""

    DM_Z = "dm_z"                 # directed, z-axis antisymmetric exchange
    HEISENBERG_ISO = "heisenberg_iso"  # undirected, isotropic exchange


def _validated_replace(self, **changes):
    """``_replace`` through the class's ``__new__``: namedtuple's own
    rebuilds the record with ``_make`` and so skips its validation."""
    return type(self)(**{**self._asdict(), **changes})


class _Bond(NamedTuple):
    kind: BondKind
    from_site: int
    to_site: int
    strength: float = 1.0


class BondSpec(_Bond):
    """One coupling between two sites.

    ``strength`` is a dimensionless multiplier: the coupling is ``strength``
    (in units of the ring coupling D) for DM_Z bonds and ``strength * J`` for
    HEISENBERG_ISO bonds.  DM bonds are directed; swapping ``from_site`` and
    ``to_site`` flips the sign of the contribution.
    """

    __slots__ = ()
    _replace = _validated_replace

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for s in (self.from_site, self.to_site):
            if not (1 <= s <= N_SITES):
                raise ValueError(f"site index {s} outside 1..{N_SITES}")
        if self.from_site == self.to_site:
            raise ValueError("bond endpoints must differ")
        if not math.isfinite(self.strength):
            raise ValueError(f"bond strength must be finite, got {self.strength}")
        return self

    @property
    def unordered_pair(self) -> tuple[int, int]:
        return tuple(sorted((self.from_site, self.to_site)))


class _Plaquette(NamedTuple):
    bonds: tuple[BondSpec, ...]
    J: float = 0.0


class PlaquetteGeometry(_Plaquette):
    """Bond list plus the isotropic coupling J, in units of the ring coupling D.

    DM_Z bonds couple with their ``strength`` and HEISENBERG_ISO bonds with
    ``strength * J``.  The bond pattern is independent of J, so one geometry
    gives a whole sweep's Hamiltonians (:func:`build_hamiltonians`).
    Another D is a change of units, H(J, D) = D * H(J/D, 1), made at the
    command line.
    """

    __slots__ = ()
    _replace = _validated_replace
    #: The unit, a constant; kept because the Hamiltonian observer of
    #: bench/tracer.py reads ``geom.J`` and ``geom.D``.
    D = 1.0

    def __new__(cls, bonds, J=0.0):
        bonds = tuple(bonds)
        if not bonds:
            raise ConfigError("geometry has an empty bond list")
        seen = set()
        for b in bonds:
            key = (b.kind, b.unordered_pair)
            if key in seen:
                raise ConfigError(
                    f"duplicate {b.kind.value} bond on sites {b.unordered_pair}")
            seen.add(key)
        return super().__new__(cls, bonds, J)


_RING = ((1, 2), (2, 3), (3, 4), (4, 1))
_DIAGONALS = ((1, 3), (2, 4))


def default_plaquette(J: float) -> PlaquetteGeometry:
    """Committed geometry: directed-ring DM coupling, diagonal isotropic legs.

    This is the unique assignment (up to site relabeling) whose
    single-excitation dynamics matches :func:`triplaq.dynamics.amplitudes_closed_form`;
    the equivalence is certified by
    :func:`triplaq.dynamics.oracle_equivalence_report`.
    """
    bonds = [BondSpec(BondKind.DM_Z, i, j) for i, j in _RING]
    bonds += [BondSpec(BondKind.HEISENBERG_ISO, i, j) for i, j in _DIAGONALS]
    return PlaquetteGeometry(tuple(bonds), J=J)


def swapped_control_plaquette(J: float) -> PlaquetteGeometry:
    """Negative control: couplings exchanged (isotropic ring, DM diagonals)."""
    bonds = [BondSpec(BondKind.HEISENBERG_ISO, i, j) for i, j in _RING]
    bonds += [BondSpec(BondKind.DM_Z, i, j) for i, j in _DIAGONALS]
    return PlaquetteGeometry(tuple(bonds), J=J)


def spin_operator_at(site: int, axis: str) -> np.ndarray:
    """Spin-1/2 operator (Pauli/2) for one axis, embedded at the given site.

    Site 1 occupies the most significant qubit position.
    """
    if axis not in _SPIN_HALF:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    if not (1 <= site <= N_SITES):
        raise ValueError(f"site index {site} outside 1..{N_SITES}")
    ops = [_ID2] * N_SITES
    ops[site - 1] = _SPIN_HALF[axis]
    out = ops[0]
    for k in range(1, N_SITES):
        out = np.kron(out, ops[k])
    return out


@lru_cache(maxsize=None)
def _bond_terms(kind: BondKind, i: int, j: int) -> tuple[np.ndarray, ...]:
    """The operator products a bond i-j adds to H per unit coupling, read-only:
    one for DM_Z (Sx_i Sy_j - Sy_i Sx_j), one per axis for HEISENBERG_ISO."""
    if kind is BondKind.DM_Z:
        terms = (spin_operator_at(i, "x") @ spin_operator_at(j, "y")
                 - spin_operator_at(i, "y") @ spin_operator_at(j, "x"),)
    else:
        terms = tuple(spin_operator_at(i, axis) @ spin_operator_at(j, axis)
                      for axis in ("x", "y", "z"))
    for term in terms:
        term.flags.writeable = False
    return terms


def build_hamiltonians(geom: PlaquetteGeometry, J_values) -> np.ndarray:
    """The Hamiltonians of ``geom``'s bonds at each of the 1-d ``J_values``,
    shape (len(J_values), 16, 16), in one pass over the bonds: each DM_Z bond
    i->j adds ``strength*(Sx_i Sy_j - Sy_i Sx_j)``, each HEISENBERG_ISO bond
    ``strength*J*(Sx Sx + Sy Sy + Sz Sz)`` one axis at a time.  Each slice is
    Hermitian, commutes with total S^z and equals the build at its J alone
    bit for bit (same products, summed in the same order)."""
    J = np.asarray(J_values, dtype=float).reshape(-1, 1, 1)
    H = np.zeros((J.shape[0], DIM, DIM), dtype=complex)
    product = np.empty_like(H)
    for b in geom.bonds:
        coeff = b.strength if b.kind is BondKind.DM_Z else b.strength * J
        for term in _bond_terms(b.kind, b.from_site, b.to_site):
            H += np.multiply(coeff, term, out=product)
    return H


def build_hamiltonian(geom: PlaquetteGeometry) -> np.ndarray:
    """The 16x16 Hamiltonian of a geometry at its own coupling ``geom.J``
    (see :func:`build_hamiltonians`)."""
    return build_hamiltonians(geom, [geom.J])[0]


def single_excitation_block(H: np.ndarray) -> np.ndarray:
    """Project H, shape (16, 16), or a stack of them, shape (..., 16, 16),
    onto the ordered single-excitation basis: shape (..., 4, 4).

    Every numeric route propagates the Bell pair inside this block, so this
    is where total S^z conservation is checked: raises
    ContractViolationError when any matrix has an element between different
    total-S^z sectors that is not within 1e-12 of zero, NaN included (the
    projection would then discard dynamics).
    """
    H = np.asarray(H)
    off_sector = np.abs(H[..., _CROSS_SECTOR])
    if not (off_sector <= 1e-12).all():
        raise ContractViolationError(
            "Hamiltonian does not conserve total S^z "
            f"(off-sector element {off_sector.max():.3e})")
    return H[..., _SECTOR_SLOTS[:, None], _SECTOR_SLOTS]


def _blocks(A) -> list[np.ndarray]:
    """Sorted index arrays of the connected components of the off-diagonal
    entries nonzero in any matrix of the stack A, shape (m, n, n), in order
    of their first index; A may be a bool stack of patterns.  Permuted by
    them, every matrix is a direct sum of blocks that a solver may treat one
    at a time, as the singular values of
    :func:`triplaq.entanglement.pair_concurrences` do for the one structural
    pattern its amplitudes allow."""
    n = A.shape[-1]
    linked = np.any(A, axis=0) | np.eye(n, dtype=bool)
    linked |= linked.T
    for _ in range(n.bit_length()):     # then it holds every path of up to n steps
        linked = linked @ linked
    return [np.flatnonzero(row) for i, row in enumerate(linked) if row.argmax() == i]


def embed_single_excitation(amplitudes) -> np.ndarray:
    """Lift single-excitation amplitudes, shape (..., 4), to states (..., 16).

    The last axis is ordered over (|0001>, |0010>, |0100>, |1000>).  Every
    row must be normalized to 1e-10 (a NaN row is not); the worst deficit is
    reported otherwise.
    """
    vec = np.asarray(amplitudes, dtype=complex)
    if vec.shape[-1:] != (4,):
        raise ValueError(f"expected (..., 4) amplitudes, got shape {vec.shape}")
    norm_defect = np.abs(np.sum(np.abs(vec) ** 2, axis=-1) - 1.0)
    if not (norm_defect <= 1e-10).all():
        raise NormalizationError(
            f"single-excitation amplitudes have |norm^2 - 1| = {np.max(norm_defect):.3e}")
    psi = np.zeros(vec.shape[:-1] + (DIM,), dtype=complex)
    psi[..., _SECTOR_SLOTS] = vec
    return psi


def initial_bell_state() -> np.ndarray:
    """(|10> + |01>)/sqrt(2) on sites (1,2), sites (3,4) in |00>."""
    r = 1.0 / np.sqrt(2.0)
    return embed_single_excitation((0.0, 0.0, r, r))


def norm_error(psi: np.ndarray):
    """|  ||psi||_2 - 1  | of each state of a (..., 16) stack."""
    return np.abs(np.linalg.norm(psi, axis=-1) - 1.0)


def sector_leak(psi: np.ndarray):
    """Largest amplitude magnitude outside the single-excitation sector,
    for each state of a (..., 16) stack."""
    return np.abs(np.asarray(psi)[..., _OFF_SECTOR]).max(axis=-1)


# ---------------------------------------------------------------------------
# Plain-text geometry files: one `kind from to strength` record per line,
# '#' comments and blank lines allowed.
# ---------------------------------------------------------------------------

_KIND_TOKENS = {
    "dm_z": BondKind.DM_Z,
    "heisenberg_iso": BondKind.HEISENBERG_ISO,
}


def parse_geometry_text(text: str, *, J: float = 0.0) -> PlaquetteGeometry:
    """Parse bond records into a geometry; errors carry the offending line number."""
    bonds = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ConfigError(
                f"geometry line {lineno}: expected 'kind from to strength', got {raw!r}")
        kind_token, s_from, s_to, s_strength = parts
        kind = _KIND_TOKENS.get(kind_token.lower())
        if kind is None:
            raise ConfigError(
                f"geometry line {lineno}: unknown bond kind {kind_token!r}")
        try:
            from_site, to_site = int(s_from), int(s_to)
            strength = float(s_strength)
        except ValueError as exc:
            raise ConfigError(f"geometry line {lineno}: {exc}") from None
        try:
            bonds.append(BondSpec(kind, from_site, to_site, strength))
        except ValueError as exc:
            raise ConfigError(f"geometry line {lineno}: {exc}") from None
    if not bonds:
        raise ConfigError("geometry file contains no bond records")
    return PlaquetteGeometry(tuple(bonds), J=J)

