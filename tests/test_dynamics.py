import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triplaq.cli_io import SweepConfig, cmd_evolve
from triplaq.dynamics import (
    HERMITIAN_TOL,
    _require_hermitian,
    amplitudes_closed_form,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
    oracle_equivalence_report,
    phase_aligned_distance,
    route_chunks,
)
from triplaq.errors import ContractViolationError, NormalizationError, NumericalHealthError
from triplaq.spin_core import (
    BondKind,
    BondSpec,
    PlaquetteGeometry,
    _blocks,
    build_hamiltonian,
    build_hamiltonians,
    default_plaquette,
    embed_single_excitation,
    initial_bell_state,
    norm_error,
    sector_leak,
    single_excitation_block,
    swapped_control_plaquette,
)

RT2 = 1 / np.sqrt(2)


def _ring_at(D, J):
    """The default bond pattern with ring strength D: the Hamiltonian H(J, D)
    in units where the ring coupling is 1, built without any unit change."""
    return PlaquetteGeometry(
        tuple(BondSpec(b.kind, b.from_site, b.to_site, D if b.kind is BondKind.DM_Z else 1.0)
              for b in default_plaquette(J).bonds), J=J)


class TestClosedForm:
    def test_t0_reproduces_initial_state(self):
        a = amplitudes_closed_form(0.0, np.array([0.0, 0.5, 1.7]))
        np.testing.assert_allclose(a, [(0, 0, RT2, RT2)] * 3, atol=1e-15)

    def test_quarter_ring_period_at_zero_coupling(self):
        a = amplitudes_closed_form(np.pi / 2, 0.0)
        np.testing.assert_allclose(a, (RT2, 0, 0, RT2), atol=1e-15)

    def test_first_transfer_time(self):
        # t = pi, J = 0: the excitation pair moves fully onto sites (3,4)
        a = amplitudes_closed_form(np.pi, 0.0)
        np.testing.assert_allclose(np.abs(a), (RT2, RT2, 0, 0), atol=1e-15)

    def test_normalized_everywhere(self):
        a = amplitudes_closed_form(np.linspace(0, 30, 121)[:, None], np.linspace(0, 2, 21))
        assert a.shape == (121, 21, 4)
        assert np.abs((np.abs(a) ** 2).sum(axis=-1) - 1.0).max() < 1e-10

    def test_site_amplitude_mapping(self):
        # slot 4 - s holds site s: the initial state excites sites 1 and 2,
        # which are |1000> (index 8) and |0100> (index 4) once embedded
        a = amplitudes_closed_form(0.0, 0.0)
        assert abs(a[4 - 1]) == pytest.approx(RT2) and abs(a[4 - 2]) == pytest.approx(RT2)
        assert a[4 - 3] == 0 and a[4 - 4] == 0
        psi = closed_form_state(0.0, 0.0)
        assert np.array_equal(np.flatnonzero(psi), [4, 8])

    def test_broadcast_equals_pointwise(self):
        ts, js = np.linspace(0.0, 9.0, 7), np.linspace(-1.0, 2.0, 5)
        grid = amplitudes_closed_form(ts[:, None], js)
        assert np.array_equal(closed_form_state(ts[:, None], js), embed_single_excitation(grid))
        for i, t in enumerate(ts):
            for k, J in enumerate(js):
                assert np.array_equal(grid[i, k], amplitudes_closed_form(float(t), float(J)))

    def test_matches_stacked_components(self):
        # the four component expressions stacked, as built before the
        # components were written into one array: the bits are the same
        t = np.concatenate(([0.0, -0.0, np.pi], np.linspace(0.0, 60.0, 41)))[:, None]
        J = np.array([-2.5, -0.0, 0.0, 1e-300, 0.5, 2.0 / 3.0, 7.0])
        c, s = np.cos(J * t / 2.0), np.sin(J * t / 2.0)
        sin_d, cos_d = np.sin(t), np.cos(t)
        pref = 1.0 / (2.0 * np.sqrt(2.0))
        want = np.stack((
            pref * (c * (sin_d - cos_d + 1) - 1j * s * (-sin_d + cos_d + 1)),
            pref * (c * (-sin_d - cos_d + 1) - 1j * s * (sin_d + cos_d + 1)),
            pref * (c * (-sin_d + cos_d + 1) + 1j * s * (-sin_d + cos_d - 1)),
            pref * (c * (sin_d + cos_d + 1) + 1j * s * (sin_d + cos_d - 1))), axis=-1)
        got = amplitudes_closed_form(t, J)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert amplitudes_closed_form(1.3, 0.5).tobytes() == \
            amplitudes_closed_form(np.array([1.3]), 0.5)[0].tobytes()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            amplitudes_closed_form(-0.1, 0.0)
        with pytest.raises(ValueError):
            closed_form_state(np.array([0.0, -0.1]), 0.5)

    def test_rescaling_identity(self):
        # the unit change the command line makes for --d: the closed form at
        # (D t, J/D) is the state H(J, D) propagates to at t
        psi0 = initial_bell_state()
        for (t, J, D) in ((1.3, 0.7, 2.5), (4.0, 1.9, 0.3), (7.1, -0.4, 1.7)):
            decomp = hermitian_eigendecompose(build_hamiltonian(_ring_at(D, J)))
            a = embed_single_excitation(amplitudes_closed_form(D * t, J / D))
            assert phase_aligned_distance(evolve_numeric(decomp, psi0, t), a) < 1e-12

    def test_recurrence_period_at_half_coupling(self):
        # J = 1/2: all phase factors recur after 8*pi
        ts = np.linspace(0, 8 * np.pi, 97)
        np.testing.assert_allclose(np.abs(amplitudes_closed_form(ts, 0.5)),
                                   np.abs(amplitudes_closed_form(ts + 8 * np.pi, 0.5)),
                                   atol=1e-10)


class TestJacobiEigensolver:
    def test_zero_matrix(self):
        w, v = hermitian_eigendecompose(np.zeros((16, 16)))
        assert np.all(w == 0.0)
        assert np.array_equal(v, np.eye(16))

    def test_diagonal_matrix(self):
        w, v = hermitian_eigendecompose(np.diag(np.arange(1.0, 17.0)))
        np.testing.assert_allclose(w, np.arange(1.0, 17.0))
        assert np.array_equal(v, np.eye(16))

    def test_single_excitation_ring_spectrum(self):
        block = single_excitation_block(build_hamiltonian(default_plaquette(J=0.0)))
        w, _ = hermitian_eigendecompose(block)
        np.testing.assert_allclose(w, [-1, 0, 0, 1], atol=1e-13)

    def test_against_reference_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            h = (b + b.conj().T) / 2
            w, v = hermitian_eigendecompose(h)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12)
            resid = h @ v - v @ np.diag(w)
            assert np.abs(resid).max() < 1e-10
            unit = v.conj().T @ v - np.eye(16)
            assert np.abs(unit).max() < 1e-10
            assert np.all(np.diff(w) >= -1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (b + b.conj().T) / 2
        w1, v1 = hermitian_eigendecompose(h)
        w2, v2 = hermitian_eigendecompose(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ContractViolationError):
            hermitian_eigendecompose(m)


class TestStackedJacobi:
    """A stack is one pass of the solver; each matrix must come out exactly
    as a call on that matrix alone (np.array_equal, not allclose)."""

    @staticmethod
    def _assert_matches_per_matrix(stack):
        w, v = hermitian_eigendecompose(stack)
        assert w.shape == stack.shape[:-1]
        assert v.shape == stack.shape
        for k, h in enumerate(stack):
            w1, v1 = hermitian_eigendecompose(h)
            assert w1.shape == (16,)
            assert np.array_equal(w[k], w1), k
            assert np.array_equal(v[k], v1), k

    def test_swapped_control_jsweep_grid(self):
        # the spectral J sweep's 401 couplings, degenerate J = 0 included
        js = np.linspace(0.0, 2.0, 401)
        self._assert_matches_per_matrix(np.stack(
            [build_hamiltonian(swapped_control_plaquette(float(J))) for J in js]))

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_report_oracle_couplings(self, factory):
        js = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
        self._assert_matches_per_matrix(
            np.stack([build_hamiltonian(factory(J)) for J in js]))

    def test_random_stack_mixes_convergence(self):
        # already diagonal, degenerate diagonals (diff == 0), off-diagonals
        # so small that tau takes the asymptotic branch, and dense matrices:
        # the matrices converge after different sweep counts and rotate at
        # different pairs, which exercises the per-matrix skip mask
        rng = np.random.default_rng(11)
        stack = []
        for k in range(24):
            b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            h = b + b.conj().T
            diag = np.diag(np.round(2.0 * rng.normal(size=16)) / 2.0)
            sparse = rng.random((16, 16)) < 0.05
            stack.append([diag, diag + 1e-13 * h, diag + (sparse | sparse.T) * h,
                          h / 2][k % 4])
        self._assert_matches_per_matrix(np.array(stack))

    def test_leading_axes_kept(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
        stack = b + b.conj().swapaxes(-1, -2)
        w, v = hermitian_eigendecompose(stack)
        assert w.shape == (2, 3, 4)
        assert v.shape == (2, 3, 4, 4)
        _, v_flat = hermitian_eigendecompose(stack.reshape(6, 4, 4))
        assert np.array_equal(v.reshape(6, 4, 4), v_flat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        H = build_hamiltonian(default_plaquette(0.5))
        H[3, 5] = bad
        with pytest.raises(ContractViolationError, match="finite"):
            hermitian_eigendecompose(H)
        H = build_hamiltonian(default_plaquette(0.5))
        H[7, 7] = bad
        with pytest.raises(ContractViolationError, match="finite"):
            hermitian_eigendecompose(np.stack([build_hamiltonian(default_plaquette(0.0)), H]))

    def test_all_nan_matrix_rejected_before_any_sweep(self):
        with pytest.raises(ContractViolationError):
            hermitian_eigendecompose(np.full((16, 16), np.nan))

    def test_overflowing_norm_rejected(self):
        # every entry is finite, but the Frobenius norm overflows; the old
        # solver skipped every rotation and returned the diagonal
        H = build_hamiltonian(default_plaquette(1e200))
        assert np.isfinite(H).all()
        with pytest.raises(ContractViolationError, match="overflows"):
            hermitian_eigendecompose(H)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigendecompose(np.zeros((0, 16, 16)))


class TestHermitianCheck:
    """The input check every decomposition runs, on the report's merged
    stack: the oracle's 8 Hamiltonians and the swapped control's 8."""

    @staticmethod
    def _report_stack():
        js = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
        return np.concatenate((build_hamiltonians(default_plaquette(0.0), js),
                               build_hamiltonians(swapped_control_plaquette(0.0), js)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), 1e-11])
    def test_defect_in_one_matrix_raises(self, bad):
        H = self._report_stack()
        H[13, 0, 15] = bad      # an entry zero in every matrix
        with pytest.raises(ContractViolationError, match="not finite and Hermitian"):
            _require_hermitian(H)

    def test_defect_at_the_tolerance_passes(self):
        H = self._report_stack()
        H[13, 0, 15] = HERMITIAN_TOL
        assert _require_hermitian(H) is H

    def test_temporaries_stay_within_twice_the_stack(self):
        H = self._report_stack()
        tracemalloc.start()
        try:
            _require_hermitian(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * H.nbytes


#: The basis indices of each total S^z sector, by excitation count.
_SZ_SECTORS = [[b for b in range(16) if bin(b).count("1") == k] for k in range(5)]


class TestSzBlocks:
    """The solver sweeps each connected block of the stack's combined
    off-diagonal pattern on its own."""

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_builtin_geometries_split_into_sz_sectors(self, factory):
        for js in ([0.7], [0.0, 0.5, 2.0]):
            blocks = _blocks(build_hamiltonians(factory(0.0), js))
            assert [b.tolist() for b in blocks] == _SZ_SECTORS
            assert [b.size for b in blocks] == [1, 4, 6, 4, 1]

    def test_dense_matrix_is_one_block(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        blocks = _blocks((b + b.conj().T)[None])
        assert [blk.tolist() for blk in blocks] == [list(range(16))]

    @pytest.mark.parametrize("entries, value", [(((2, 12), (12, 2)), 1e-3), (((12, 2),), 1e-13)],
                             ids=["pair", "one-sided"])
    def test_one_off_sector_entry_merges_two_sectors(self, entries, value):
        # |0010> coupled to |1100>; a one-sided entry within the Hermitian
        # tolerance links the sectors too
        stack = build_hamiltonians(default_plaquette(0.0), [0.0, 0.5])
        for p, q in entries:
            stack[1, p, q] = value
        blocks = _blocks(stack)
        assert [b.tolist() for b in blocks] == [
            [0], sorted(_SZ_SECTORS[1] + _SZ_SECTORS[2]), _SZ_SECTORS[3], [15]]
        w, v = hermitian_eigendecompose(stack[1])
        np.testing.assert_allclose(w, np.linalg.eigvalsh(stack[1]), atol=1e-12)
        assert np.abs(stack[1] @ v - v * w).max() < 1e-12


@st.composite
def _sz_conserving_stacks(draw):
    """A random bond list with random strengths, built at random couplings."""
    pairs = [(i, j) for i in range(1, 5) for j in range(1, 5) if i < j]
    bonds = []
    for kind in BondKind:
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=0, max_size=6, unique=True))
        for i, j in chosen:
            flip = draw(st.booleans())
            bonds.append(BondSpec(kind, j if flip else i, i if flip else j,
                                  draw(st.floats(-3.0, 3.0))))
    if not bonds:
        bonds.append(BondSpec(BondKind.DM_Z, 1, 2))
    js = draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5))
    return build_hamiltonians(PlaquetteGeometry(tuple(bonds)), js)


class TestBlockedJacobiProperties:
    @settings(max_examples=40, deadline=None)
    @given(_sz_conserving_stacks())
    # at J near 1e-162 the squares of the tridiagonal's off-diagonal entries,
    # which values-only eigvalsh forms, underflow: it is off by 1.8e-4 there
    @example(build_hamiltonians(PlaquetteGeometry((
        BondSpec(BondKind.DM_Z, 1, 3, 0.375), BondSpec(BondKind.HEISENBERG_ISO, 1, 2, 1.0))),
        [4.6814848492688e-162]))
    def test_eigen_pairs_of_sz_conserving_stacks(self, stack):
        w, v = hermitian_eigendecompose(stack)
        scale = np.maximum(1.0, np.linalg.norm(stack, axis=(-2, -1)))
        tol = 1e-12 * scale
        assert (np.abs(w - np.linalg.eigh(stack)[0]).max(axis=-1) <= tol).all()
        assert (np.linalg.norm(stack @ v - v * w[..., None, :], axis=(-2, -1)) <= tol).all()
        unit = v.conj().swapaxes(-1, -2) @ v - np.eye(16)
        assert (np.linalg.norm(unit, axis=(-2, -1)) <= tol).all()


def _dec(J, factory=default_plaquette):
    return hermitian_eigendecompose(build_hamiltonian(factory(J)))


class TestPropagation:
    def test_identity_at_t0(self):
        psi0 = initial_bell_state()
        np.testing.assert_allclose(evolve_numeric(_dec(0.3), psi0, 0.0), psi0, atol=1e-14)

    def test_zero_hamiltonian(self):
        psi0 = initial_bell_state()
        dec = hermitian_eigendecompose(np.zeros((16, 16)))
        np.testing.assert_allclose(evolve_numeric(dec, psi0, 5.7), psi0, atol=1e-14)

    def test_matches_closed_form(self):
        psi_n = evolve_numeric(_dec(0.5), initial_bell_state(), 2 * np.pi)
        psi_c = closed_form_state(2 * np.pi, 0.5)
        assert phase_aligned_distance(psi_n, psi_c) < 1e-9

    def test_composition(self):
        dec = _dec(1.2)
        psi0 = initial_bell_state()
        for t1, t2 in ((0.3, 1.9), (2.0, 4.5)):
            once = evolve_numeric(dec, psi0, t1 + t2)
            twice = evolve_numeric(dec, evolve_numeric(dec, psi0, t1), t2)
            assert np.abs(once - twice).max() < 1e-9

    def test_norm_and_sector_conserved(self):
        psi = evolve_numeric(_dec(0.8), initial_bell_state(), np.linspace(0, 12 * np.pi, 97))
        assert psi.shape == (97, 16)
        assert norm_error(psi).max() < 1e-10
        assert sector_leak(psi).max() < 1e-12

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_takes_the_pair_numpy_returns(self, factory):
        # a drop-in swap: numpy's (eigenvalues, eigenvectors) propagates as ours
        psi0, ts = initial_bell_state(), np.linspace(0.0, 8 * np.pi, 65)
        for J in (0.0, 0.5, 2.0 / 3.0, 1.0, 2.0):
            H = build_hamiltonian(factory(J))
            w, v = hermitian_eigendecompose(H)
            assert w.shape == (16,) and v.shape == (16, 16)
            ours = evolve_numeric((w, v), psi0, ts)
            assert np.abs(evolve_numeric(np.linalg.eigh(H), psi0, ts) - ours).max() <= 1e-12

    def test_norm_drift_raises(self):
        good = _dec(0.5)
        broken = (good[0], 0.9 * good[1])
        with pytest.raises(NumericalHealthError, match="norm"):
            evolve_numeric(broken, initial_bell_state(), 1.0)


class TestGridEngine:
    """Broadcast state operations against independent per-point references."""

    TS = np.linspace(0.0, 4 * np.pi, 129)
    JS = np.linspace(0.0, 2.0, 65)

    def test_closed_form_states_bit_identical(self):
        grid = closed_form_state(self.TS[:, None], self.JS[None, :])
        assert grid.shape == (129, 65, 16)
        for i, t in enumerate(self.TS):
            assert np.array_equal(closed_form_state(t, self.JS), grid[i])
            for k, J in enumerate(self.JS):
                assert np.array_equal(grid[i, k], closed_form_state(float(t), float(J)))

    def test_closed_form_states_offscale_d(self):
        # the grid surface --d evaluates, (D t, J/D), holds the states a stack
        # of Hamiltonians H(J, D) propagates to over the grid given
        D, ts, js = 2.5, self.TS[::8], self.JS[::4]
        grid = closed_form_state(D * ts[:, None], js / D)
        stack = hermitian_eigendecompose(np.stack(
            [build_hamiltonian(_ring_at(D, float(J))) for J in js]))
        numeric = evolve_numeric(stack, initial_bell_state(), ts).swapaxes(0, 1)
        assert phase_aligned_distance(numeric, grid).max() < 1e-12

    def test_closed_form_states_reject_non_finite(self):
        with pytest.raises(NormalizationError):
            closed_form_state(1.0, np.array([0.5, np.nan]))

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_batched_propagation_matches_pointwise(self, factory):
        psi0 = initial_bell_state()
        ts = np.arange(0.0, 8 * np.pi + 1e-12, np.pi / 64)
        for J in (0.0, 0.5, 2.0 / 3.0, 1.0, 2.0):
            dec = E, V = _dec(J, factory)
            explicit = np.array([V @ np.diag(np.exp(-1j * E * t)) @ V.conj().T @ psi0
                                 for t in ts])
            batch = evolve_numeric(dec, psi0, ts)
            assert batch.shape == (ts.size, 16)
            assert np.abs(batch - explicit).max() <= 1e-14

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_stacked_propagation_matches_per_j(self, factory):
        psi0 = initial_bell_state()
        js = np.linspace(0.0, 2.0, 9)
        stacked = hermitian_eigendecompose(np.stack(
            [build_hamiltonian(factory(float(J))) for J in js]))
        ts = np.linspace(0.01, 4 * np.pi, 37)
        batch = evolve_numeric(stacked, psi0, ts)
        assert batch.shape == (js.size, ts.size, 16)
        for k, J in enumerate(js):
            dec = E, V = _dec(J, factory)
            assert np.array_equal(batch[k], evolve_numeric(dec, psi0, ts))
            # the propagator written out: one (nt, 16) @ (16, 16) matmul
            inline = (np.exp(-1j * np.multiply.outer(ts, E)) * (V.conj().T @ psi0)) @ V.T
            assert np.array_equal(batch[k], inline)
        at_one_t = evolve_numeric(stacked, psi0, 1.3)
        assert at_one_t.shape == (js.size, 16)
        for k, J in enumerate(js):
            assert np.array_equal(at_one_t[k], evolve_numeric(_dec(J, factory), psi0, [1.3])[0])

    def test_coefficients_bit_identical_on_spectral_jsweep_stacks(self):
        # 401 swapped-control J in four 16x16 stacks: V+ psi0 formed as
        # (psi0* V)* propagates exactly as the conjugated copy of V
        psi0 = initial_bell_state().astype(complex)
        ts = np.linspace(0.0, 4 * np.pi, 5)
        geom = swapped_control_plaquette(0.0)
        for chunk in np.array_split(np.linspace(0.0, 2.0, 401), 4):
            stack = E, V = hermitian_eigendecompose(build_hamiltonians(geom, chunk))
            coef = np.conj(V).swapaxes(-1, -2) @ psi0
            inline = np.matmul(np.exp(-1j * (ts[:, None] * E[..., None, :])) * coef[..., None, :],
                               V.swapaxes(-1, -2))
            assert np.array_equal(evolve_numeric(stack, psi0, ts), inline)

    def test_batched_norm_drift_raises(self):
        good = _dec(0.5)
        broken = (good[0], 0.9 * good[1])
        with pytest.raises(NumericalHealthError, match="norm"):
            evolve_numeric(broken, initial_bell_state(), [0.0, 1.0])


def _stack_dec(js, factory=default_plaquette):
    return hermitian_eigendecompose(build_hamiltonians(factory(0.0), js))


class TestRouteChunks:
    def test_chunks_equal_each_route_run_alone(self):
        """One J at a time, 128 times a chunk, in grid order; each value
        bit for bit what the two routes give on that chunk alone, across
        the 512-time closed-form block."""
        js = [0.0, 0.5, 2.0]
        ts = np.arange(0.0, 9 * np.pi, np.pi / 64)
        E, V = _stack_dec(js)
        chunks = list(route_chunks((E, V), js, ts))
        assert [(J, t.size) for J, t, *_ in chunks] == [
            (J, n) for J in js for n in (128, 128, 128, 128, 64)]
        for (J, t, amps, dev, nerr, leak), (j, lo) in zip(
                chunks, [(j, lo) for j in range(3) for lo in range(0, ts.size, 128)]):
            assert J == js[j] and np.array_equal(t, ts[lo:lo + 128])
            psi = evolve_numeric((E[j], V[j]), initial_bell_state(), t)
            same, norms = evolve_numeric((E[j], V[j]), initial_bell_state(), t,
                                         return_norms=True)
            assert np.array_equal(same, psi)
            assert np.array_equal(norms, np.linalg.norm(psi, axis=-1))
            assert np.array_equal(amps, amplitudes_closed_form(t, J))
            assert np.array_equal(dev, phase_aligned_distance(psi, closed_form_state(t, J)))
            assert np.array_equal(nerr, norm_error(psi))
            assert np.array_equal(leak, sector_leak(psi))


class TestOracle:
    def test_trivial_grid(self):
        rep = oracle_equivalence_report(_stack_dec([0.0]), [0.0], [0.0])
        assert rep.max_deviation < 1e-12

    def test_committed_geometry_matches(self):
        ts = np.arange(0.0, 8 * np.pi, np.pi / 64)
        js = [0.0, 0.5, 1.0, 2.0]
        rep = oracle_equivalence_report(_stack_dec(js), js, ts)
        assert rep.max_deviation < 1e-9

    def test_committed_geometry_matches_offscale_d(self, tmp_path):
        # both routes of evolve --d 2, each at (2 t, J/2)
        cfg = SweepConfig(t_max=4 * np.pi, t_steps=129, d=2.0,
                          out=str(tmp_path / "traj.csv"))
        for J in (0.0, 0.5, 1.5):
            assert cmd_evolve(cfg, J)["max_numeric_deviation"] < 1e-9

    def test_swapped_geometry_fails_loudly(self):
        ts = np.arange(0.0, 2 * np.pi, np.pi / 16)
        js = [0.0, 0.5, 1.0, 2.0]
        rep = oracle_equivalence_report(_stack_dec(js, swapped_control_plaquette), js, ts)
        assert rep.max_deviation > 1e-2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle_equivalence_report((np.empty((0, 16)), np.empty((0, 16, 16))), [], [0.0])
        with pytest.raises(ValueError):
            oracle_equivalence_report(_stack_dec([0.0]), [0.0], [])

    def test_decomposition_must_match_the_couplings(self):
        with pytest.raises(ValueError, match="2 Hamiltonians"):
            oracle_equivalence_report(_stack_dec([0.0, 0.5, 1.0]), [0.0, 0.5], [0.0])

    @pytest.mark.parametrize("factory", [default_plaquette, swapped_control_plaquette])
    def test_worst_point_matches_per_j_decompositions(self, factory):
        js = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
        ts = np.arange(0.0, 3 * np.pi, np.pi / 64)
        worst = (-1.0, 0.0, 0.0)
        for J in js:
            decomp = hermitian_eigendecompose(build_hamiltonian(factory(J)))
            for lo in range(0, ts.size, 128):
                chunk = ts[lo:lo + 128]
                dev = phase_aligned_distance(evolve_numeric(decomp, initial_bell_state(), chunk),
                                             closed_form_state(chunk, J))
                k = int(np.argmax(dev))
                if dev[k] > worst[0]:
                    worst = (float(dev[k]), float(chunk[k]), J)
        rep = oracle_equivalence_report(_stack_dec(js, factory), js, ts)
        assert (rep.max_deviation, rep.worst_t, rep.worst_J) == worst
        assert rep.points == len(js) * ts.size

    def test_temporaries_stay_small_on_the_report_grid(self):
        # the report's 8 J x 1025 t: one J and 128 times per batch keeps each
        # temporary at 32 KiB; a batch of all 8 J is 256 KiB per temporary
        # and peaks above 1 MiB
        js = (0.0, 0.25, 0.5, 2.0 / 3.0, 1.0, 4.0 / 3.0, 1.5, 2.0)
        ts = np.arange(0.0, 8.0 * np.pi + 1e-12, np.pi / 128.0)
        tracemalloc.start()
        try:
            oracle_equivalence_report(_stack_dec(js), js, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000


def test_phase_alignment_ignores_global_phase():
    psi = closed_form_state(1.1, 0.4)
    assert phase_aligned_distance(np.exp(0.7j) * psi, psi) < 1e-15


def test_phase_alignment_skipped_at_zero_pivot():
    psi = closed_form_state(1.1, 0.4)
    assert phase_aligned_distance(np.zeros(16), psi) == pytest.approx(1.0, abs=1e-15)
    assert phase_aligned_distance(psi, np.zeros(16)) == pytest.approx(1.0, abs=1e-15)
    # the fallback is decided row by row in a stack
    rows = phase_aligned_distance(np.stack([np.zeros(16), np.exp(0.7j) * psi]), psi)
    assert rows.shape == (2,)
    assert rows[0] == pytest.approx(1.0, abs=1e-15) and rows[1] < 1e-15
