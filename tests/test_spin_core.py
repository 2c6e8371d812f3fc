import numpy as np
import pytest

from triplaq.cli_io import SweepConfig
from triplaq.errors import ConfigError, ContractViolationError, NormalizationError
from triplaq.spin_core import (
    SINGLE_EXCITATION_INDICES,
    BondKind,
    BondSpec,
    PlaquetteGeometry,
    build_hamiltonian,
    build_hamiltonians,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
    parse_geometry_text,
    sector_leak,
    single_excitation_block,
    spin_operator_at,
    swapped_control_plaquette,
)


def basis_vector(index):
    e = np.zeros(16, dtype=complex)
    e[index] = 1.0
    return e


class TestSpinOperators:
    def test_sz_on_up_spin(self):
        # site 1 is the most significant bit: |1000> = index 8
        out = spin_operator_at(1, "z") @ basis_vector(8)
        np.testing.assert_allclose(out, 0.5 * basis_vector(8), atol=1e-15)

    def test_sz_on_down_spin(self):
        out = spin_operator_at(3, "z") @ basis_vector(8)
        np.testing.assert_allclose(out, -0.5 * basis_vector(8), atol=1e-15)

    def test_sx_flips_one_spin(self):
        out = spin_operator_at(2, "x") @ basis_vector(0)
        np.testing.assert_allclose(out, 0.5 * basis_vector(4), atol=1e-15)

    @pytest.mark.parametrize("site", [0, 5, -1])
    def test_site_out_of_range(self, site):
        with pytest.raises(ValueError):
            spin_operator_at(site, "z")

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            spin_operator_at(1, "q")

    def test_su2_commutator(self):
        # [Sx, Sy] = i Sz on every site
        for site in range(1, 5):
            sx, sy, sz = (spin_operator_at(site, ax) for ax in "xyz")
            np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-15)


class TestGeometry:
    def test_default_pattern(self):
        geom = default_plaquette(J=0.7)
        dm_pairs = {(b.from_site, b.to_site) for b in geom.bonds
                    if b.kind is BondKind.DM_Z}
        heis_pairs = {b.unordered_pair for b in geom.bonds
                      if b.kind is BondKind.HEISENBERG_ISO}
        assert dm_pairs == {(1, 2), (2, 3), (3, 4), (4, 1)}
        assert heis_pairs == {(1, 3), (2, 4)}

    def test_empty_bond_list_rejected(self):
        with pytest.raises(ConfigError):
            PlaquetteGeometry(())

    def test_replace_validates(self):
        # namedtuple's own _replace rebuilds through _make, skipping __new__
        geom = default_plaquette(J=0.0)
        assert geom._replace(J=0.5) == default_plaquette(J=0.5)
        with pytest.raises(ConfigError, match="empty bond list"):
            geom._replace(bonds=())
        bond = geom.bonds[0]
        with pytest.raises(ValueError, match="endpoints must differ"):
            bond._replace(to_site=bond.from_site)

    def test_duplicate_bond_rejected(self):
        bonds = (BondSpec(BondKind.DM_Z, 1, 2), BondSpec(BondKind.DM_Z, 2, 1))
        with pytest.raises(ConfigError, match="duplicate"):
            PlaquetteGeometry(bonds)

    def test_same_pair_different_kind_allowed(self):
        bonds = (BondSpec(BondKind.DM_Z, 1, 2),
                 BondSpec(BondKind.HEISENBERG_ISO, 1, 2))
        PlaquetteGeometry(bonds)

    def test_nonpositive_d_rejected(self):
        # D is the unit: the library fixes it at 1, and only the command line
        # takes another D, which must be positive
        assert default_plaquette(J=0.3).D == 1.0
        with pytest.raises(TypeError):
            PlaquetteGeometry(default_plaquette(J=0.0).bonds, D=2.0)
        for d in (0.0, -1.0):
            with pytest.raises(ConfigError, match="d must be positive"):
                SweepConfig(d=d)

    def test_bond_site_validation(self):
        with pytest.raises(ValueError):
            BondSpec(BondKind.DM_Z, 1, 1)
        with pytest.raises(ValueError):
            BondSpec(BondKind.DM_Z, 0, 2)

    @pytest.mark.parametrize("strength", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_strength_rejected(self, strength):
        with pytest.raises(ValueError, match="finite"):
            BondSpec(BondKind.HEISENBERG_ISO, 1, 3, strength)


class TestHamiltonian:
    def test_hermitian_and_sector_conserving(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            bonds, seen = [], set()
            for _ in range(rng.integers(1, 7)):
                kind = rng.choice([BondKind.DM_Z, BondKind.HEISENBERG_ISO])
                i, j = rng.choice(range(1, 5), size=2, replace=False)
                key = (kind, tuple(sorted((int(i), int(j)))))
                if key in seen:
                    continue
                seen.add(key)
                bonds.append(BondSpec(kind, int(i), int(j),
                                      float(rng.uniform(-2, 2))))
            if not bonds:
                continue
            geom = PlaquetteGeometry(tuple(bonds), J=float(rng.uniform(-2, 2)))
            H = build_hamiltonian(geom)
            assert np.abs(H - H.conj().T).max() == 0.0
            sz = sum(spin_operator_at(s, "z") for s in range(1, 5))
            assert np.abs(H @ sz - sz @ H).max() < 1e-12

    @staticmethod
    def _kron_reference(geom):
        """H assembled term by term from explicit Kronecker products, in the
        bond order and the axis order of the documented sum."""
        pauli = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
                 "y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
                 "z": np.array([[-1, 0], [0, 1]], dtype=complex)}

        def op(site, axis):
            out = np.ones((1, 1), dtype=complex)
            for s in range(1, 5):
                out = np.kron(out, 0.5 * pauli[axis] if s == site else np.eye(2))
            return out

        H = np.zeros((16, 16), dtype=complex)
        for b in geom.bonds:
            i, j = b.from_site, b.to_site
            if b.kind is BondKind.DM_Z:
                H += b.strength * (op(i, "x") @ op(j, "y") - op(i, "y") @ op(j, "x"))
            else:
                for axis in "xyz":
                    H += b.strength * geom.J * (op(i, axis) @ op(j, axis))
        return H

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_cached_terms_match_kron_reference(self, factory):
        for J in (0.0, 0.37, 2.0 / 3.0, -1.3):
            geom = factory(J)
            assert np.array_equal(build_hamiltonian(geom), self._kron_reference(geom))

    def test_cached_terms_match_kron_reference_for_file(self):
        geom = parse_geometry_text(
            "dm_z 2 1 0.75\ndm_z 3 4 -1.25\nheisenberg_iso 1 3 0.3\n"
            "heisenberg_iso 4 2 1.7\nheisenberg_iso 1 2 -0.45\n", J=0.8)
        H = build_hamiltonian(geom)
        assert np.array_equal(H, self._kron_reference(geom))
        # the cached terms are shared, so a caller writing into one H must
        # not reach the next
        H[:] = 7.0
        assert np.array_equal(build_hamiltonian(geom), self._kron_reference(geom))

    @pytest.mark.parametrize("geom", [
        default_plaquette(0.3), swapped_control_plaquette(-0.2),
        parse_geometry_text("dm_z 2 1 0.75\ndm_z 3 4 -1.25\nheisenberg_iso 1 3 0.3\n"
                            "heisenberg_iso 4 2 1.7\nheisenberg_iso 1 2 -0.45\n", J=0.8)],
        ids=["default", "swapped-control", "file"])
    def test_stacked_build_equals_single_builds(self, geom):
        js = np.array([0.0, -0.0, 0.37, 2.0 / 3.0, -1.3, -7.5, 1e3, -1e3])
        stack = build_hamiltonians(geom, js)
        assert stack.shape == (js.size, 16, 16)
        for H, J in zip(stack, js):
            at_j = PlaquetteGeometry(geom.bonds, J=float(J))
            assert np.array_equal(H, build_hamiltonian(at_j))
            assert np.array_equal(H, self._kron_reference(at_j))

    def test_heisenberg_leg_matrix_element(self):
        # <1000|H|0010> couples excitations on sites 1 and 3 through
        # the diagonal bond: value J/2
        H = build_hamiltonian(default_plaquette(J=0.6))
        assert H[8, 2] == pytest.approx(0.3, abs=1e-15)

    def test_single_excitation_spectrum_ring_only(self):
        H = build_hamiltonian(default_plaquette(J=0.0))
        block = single_excitation_block(H)
        np.testing.assert_allclose(np.linalg.eigvalsh(block), [-1, 0, 0, 1],
                                   atol=1e-14)

    def test_block_structure_dm_only(self):
        block = single_excitation_block(build_hamiltonian(default_plaquette(J=0.0)))
        assert np.abs(np.diag(block)).max() == 0.0
        expected = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            expected[(k + 1) % 4, k] = 0.5j
            expected[k, (k + 1) % 4] = -0.5j
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_block_structure_heisenberg_only(self):
        geom = PlaquetteGeometry(
            tuple(BondSpec(BondKind.HEISENBERG_ISO, i, j) for i, j in ((1, 3), (2, 4))),
            J=1.0)
        block = single_excitation_block(build_hamiltonian(geom))
        # the two diagonal ZZ contributions cancel in every single-excitation state
        assert np.abs(np.diag(block)).max() < 1e-15
        expected = np.zeros((4, 4))
        for a, b in ((0, 2), (1, 3)):  # slots of (site4,site2) and (site3,site1)
            expected[a, b] = expected[b, a] = 0.5
        np.testing.assert_allclose(block, expected, atol=1e-15)

    def test_block_linear_in_couplings(self):
        # a ring coupling d other than the unit is a ring bond strength d
        d, j = 1.7, -0.8
        ring_d = tuple(BondSpec(b.kind, b.from_site, b.to_site,
                                d if b.kind is BondKind.DM_Z else 1.0)
                       for b in default_plaquette(J=0.0).bonds)
        blk = single_excitation_block(build_hamiltonian(PlaquetteGeometry(ring_d, J=j)))
        blk_d = single_excitation_block(build_hamiltonian(default_plaquette(J=0.0)))
        blk_j = single_excitation_block(build_hamiltonian(default_plaquette(J=1.0))) - blk_d
        np.testing.assert_allclose(blk, d * blk_d + j * blk_j, atol=1e-14)

    def test_zero_hamiltonian_block(self):
        assert np.abs(single_excitation_block(np.zeros((16, 16)))).max() == 0.0

    def test_block_rejects_sector_breaking_matrix(self):
        H = np.zeros((16, 16), dtype=complex)
        H[0, 1] = H[1, 0] = 1.0  # couples 0-excitation to 1-excitation
        with pytest.raises(ContractViolationError):
            single_excitation_block(H)

    def test_stack_projects_each_matrix(self):
        stack = build_hamiltonians(swapped_control_plaquette(0.0), (0.0, 0.5, 2.0))
        blocks = single_excitation_block(stack)
        assert blocks.shape == (3, 4, 4)
        for block, H in zip(blocks, stack):
            assert np.array_equal(block, single_excitation_block(H))

    @pytest.mark.parametrize("value", [1e-3, 2e-12, np.nan, complex(0, np.nan), -np.inf])
    @pytest.mark.parametrize("entry", [(12, 2), (0, 15), (3, 7)],
                             ids=["two-one", "zero-four", "two-three"])
    @pytest.mark.parametrize("k", [0, 5, 7])
    def test_one_off_sector_element_in_a_stack_raises(self, k, entry, value):
        # one element between two S^z sectors, in one matrix of the stack;
        # a NaN compares false with the tolerance, so it must fail too
        stack = build_hamiltonians(default_plaquette(0.0), np.linspace(0.0, 2.0, 8))
        stack[(k, *entry)] = value
        with pytest.raises(ContractViolationError, match="conserve total S"):
            single_excitation_block(stack)

    def test_off_sector_element_at_the_tolerance_passes(self):
        stack = build_hamiltonians(default_plaquette(0.0), (0.0, 1.0))
        stack[1, 12, 2] = 1e-12
        assert single_excitation_block(stack).shape == (2, 4, 4)

    def test_reversing_dm_bonds_negates_dm_part(self):
        forward = default_plaquette(J=0.0)
        rev = PlaquetteGeometry(
            tuple(BondSpec(b.kind, b.to_site, b.from_site, b.strength)
                  for b in forward.bonds), J=0.0)
        np.testing.assert_allclose(build_hamiltonian(rev),
                                   -build_hamiltonian(forward), atol=1e-15)

    def test_swapped_control_differs(self):
        a = build_hamiltonian(default_plaquette(J=0.5))
        b = build_hamiltonian(swapped_control_plaquette(J=0.5))
        assert np.abs(a - b).max() > 0.3


class TestEmbedding:
    def test_initial_state(self):
        psi = initial_bell_state()
        r = 1 / np.sqrt(2)
        assert psi[4] == pytest.approx(r) and psi[8] == pytest.approx(r)
        assert np.abs(np.delete(psi, [4, 8])).max() == 0.0

    def test_single_basis_state(self):
        psi = embed_single_excitation((1, 0, 0, 0))
        np.testing.assert_allclose(psi, basis_vector(1), atol=1e-15)

    def test_w_state(self):
        psi = embed_single_excitation((0.5, 0.5, 0.5, 0.5))
        assert all(psi[i] == 0.5 for i in SINGLE_EXCITATION_INDICES)
        assert sector_leak(psi) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError, match="norm"):
            embed_single_excitation((1.0, 1.0, 0.0, 0.0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            embed_single_excitation((1.0, 0.0))

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(NormalizationError, match="nan"):
            embed_single_excitation((np.nan, 0.0, 0.0, 1.0))

    def test_stack_matches_rows(self):
        rows = [(1, 0, 0, 0), (0.5, 0.5, 0.5, 0.5), (0.6j, 0, 0.8, 0)]
        stack = embed_single_excitation(np.array(rows).reshape(3, 1, 4))
        assert stack.shape == (3, 1, 16)
        for row, psi in zip(rows, stack[:, 0]):
            expected = np.zeros(16, dtype=complex)
            for index, amp in zip(SINGLE_EXCITATION_INDICES, row):
                expected[index] = amp
            assert np.array_equal(psi, expected)
        with pytest.raises(NormalizationError, match="norm"):
            embed_single_excitation([(1, 0, 0, 0), (1, 1, 0, 0)])


class TestGeometryText:
    def test_round_trip(self):
        geom = default_plaquette(J=0.25)
        text = "".join(f"{b.kind.value} {b.from_site} {b.to_site} {b.strength!r}\n"
                       for b in geom.bonds)
        parsed = parse_geometry_text(text, J=0.25)
        assert parsed == geom

    def test_parse_with_comments(self):
        text = """
        # ring
        dm_z 1 2 1.0
        heisenberg_iso 1 3 1.0  # leg
        """
        geom = parse_geometry_text(text)
        assert len(geom.bonds) == 2

    def test_bad_kind_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_geometry_text("dm_z 1 2 1.0\nnonsense 1 2 1.0\n")

    def test_bad_field_count_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_geometry_text("dm_z 1 2\n")

    def test_non_finite_strength_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*finite"):
            parse_geometry_text("dm_z 1 2 1.0\nheisenberg_iso 1 3 nan\n")

    def test_empty_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_geometry_text("# nothing here\n")
