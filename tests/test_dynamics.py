import tracemalloc

import numpy as np
import pytest

from triplaq.cli_io import SweepConfig, cmd_evolve
from triplaq.dynamics import (
    EigenDecomposition,
    amplitudes_closed_form,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
    oracle_equivalence_report,
    phase_aligned_distance,
)
from triplaq.errors import ContractViolationError, NormalizationError, NumericalHealthError
from triplaq.spin_core import (
    BondKind,
    BondSpec,
    PlaquetteGeometry,
    build_hamiltonian,
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
        for J in (0.0, 0.5, 1.7):
            a = amplitudes_closed_form(0.0, J)
            np.testing.assert_allclose(a.amplitudes, (0, 0, RT2, RT2), atol=1e-15)

    def test_quarter_ring_period_at_zero_coupling(self):
        a = amplitudes_closed_form(np.pi / 2, 0.0)
        np.testing.assert_allclose(a.amplitudes, (RT2, 0, 0, RT2), atol=1e-15)

    def test_first_transfer_time(self):
        # t = pi, J = 0: the excitation pair moves fully onto sites (3,4)
        a = amplitudes_closed_form(np.pi, 0.0)
        np.testing.assert_allclose(
            [abs(x) for x in a.amplitudes], (RT2, RT2, 0, 0), atol=1e-15)

    def test_normalized_everywhere(self):
        worst = max(abs(sum(abs(a) ** 2 for a in amplitudes_closed_form(t, J).amplitudes)
                        - 1.0)
                    for t in np.linspace(0, 30, 121)
                    for J in np.linspace(0, 2, 21))
        assert worst < 1e-10

    def test_site_amplitude_mapping(self):
        a = amplitudes_closed_form(0.0, 0.0)
        # initial state excites sites 1 and 2 only
        assert abs(a.site_amplitude(1)) == pytest.approx(RT2)
        assert abs(a.site_amplitude(2)) == pytest.approx(RT2)
        assert a.site_amplitude(3) == 0 and a.site_amplitude(4) == 0
        with pytest.raises(ValueError):
            a.site_amplitude(5)

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
        for t in np.linspace(0, 8 * np.pi, 97):
            a = np.abs(amplitudes_closed_form(t, 0.5).amplitudes)
            b = np.abs(amplitudes_closed_form(t + 8 * np.pi, 0.5).amplitudes)
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestJacobiEigensolver:
    def test_zero_matrix(self):
        dec = hermitian_eigendecompose(np.zeros((16, 16)))
        assert np.all(dec.eigenvalues == 0.0)
        assert np.array_equal(dec.eigenvectors, np.eye(16))

    def test_diagonal_matrix(self):
        dec = hermitian_eigendecompose(np.diag(np.arange(1.0, 17.0)))
        np.testing.assert_allclose(dec.eigenvalues, np.arange(1.0, 17.0))
        assert np.array_equal(dec.eigenvectors, np.eye(16))

    def test_single_excitation_ring_spectrum(self):
        block = single_excitation_block(build_hamiltonian(default_plaquette(J=0.0)))
        dec = hermitian_eigendecompose(block)
        np.testing.assert_allclose(dec.eigenvalues, [-1, 0, 0, 1], atol=1e-13)

    def test_against_reference_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            h = (b + b.conj().T) / 2
            dec = hermitian_eigendecompose(h)
            np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h),
                                       atol=1e-12)
            resid = h @ dec.eigenvectors - dec.eigenvectors @ np.diag(dec.eigenvalues)
            assert np.abs(resid).max() < 1e-10
            unit = dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(16)
            assert np.abs(unit).max() < 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= -1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (b + b.conj().T) / 2
        d1 = hermitian_eigendecompose(h)
        d2 = hermitian_eigendecompose(h.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

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
        dec = hermitian_eigendecompose(stack)
        assert dec.eigenvalues.shape == stack.shape[:-1]
        assert dec.eigenvectors.shape == stack.shape
        for k, h in enumerate(stack):
            one = hermitian_eigendecompose(h)
            assert one.eigenvalues.shape == (16,)
            assert np.array_equal(dec.eigenvalues[k], one.eigenvalues), k
            assert np.array_equal(dec.eigenvectors[k], one.eigenvectors), k
        return dec

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
        dec = hermitian_eigendecompose(stack)
        assert dec.eigenvalues.shape == (2, 3, 4)
        assert dec.eigenvectors.shape == (2, 3, 4, 4)
        flat = hermitian_eigendecompose(stack.reshape(6, 4, 4))
        assert np.array_equal(dec.eigenvectors.reshape(6, 4, 4), flat.eigenvectors)

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

    def test_norm_drift_raises(self):
        good = _dec(0.5)
        broken = EigenDecomposition(good.eigenvalues, 0.9 * good.eigenvectors)
        with pytest.raises(NumericalHealthError, match="norm"):
            evolve_numeric(broken, initial_bell_state(), 1.0)


class TestGridEngine:
    """Broadcast state operations against independent per-point references."""

    TS = np.linspace(0.0, 4 * np.pi, 129)
    JS = np.linspace(0.0, 2.0, 65)

    @staticmethod
    def _reference(t, J):
        return embed_single_excitation(amplitudes_closed_form(float(t), float(J)))

    def test_closed_form_states_bit_identical(self):
        grid = closed_form_state(self.TS[:, None], self.JS[None, :])
        assert grid.shape == (129, 65, 16)
        for i, t in enumerate(self.TS):
            assert np.array_equal(closed_form_state(t, self.JS), grid[i])
            for k, J in enumerate(self.JS):
                assert np.array_equal(grid[i, k], self._reference(t, J))

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
            dec = _dec(J, factory)
            V, E = dec.eigenvectors, dec.eigenvalues
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
            dec = _dec(J, factory)
            assert np.array_equal(batch[k], evolve_numeric(dec, psi0, ts))
            # the propagator written out: one (nt, 16) @ (16, 16) matmul
            V, E = dec.eigenvectors, dec.eigenvalues
            inline = (np.exp(-1j * np.multiply.outer(ts, E)) * (V.conj().T @ psi0)) @ V.T
            assert np.array_equal(batch[k], inline)
        at_one_t = evolve_numeric(stacked, psi0, 1.3)
        assert at_one_t.shape == (js.size, 16)
        for k, J in enumerate(js):
            assert np.array_equal(at_one_t[k], evolve_numeric(_dec(J, factory), psi0, [1.3])[0])

    def test_batched_norm_drift_raises(self):
        good = _dec(0.5)
        broken = EigenDecomposition(good.eigenvalues, 0.9 * good.eigenvectors)
        with pytest.raises(NumericalHealthError, match="norm"):
            evolve_numeric(broken, initial_bell_state(), [0.0, 1.0])


class TestOracle:
    def test_trivial_grid(self):
        rep = oracle_equivalence_report([0.0], [0.0])
        assert rep.max_deviation < 1e-12

    def test_committed_geometry_matches(self):
        ts = np.arange(0.0, 8 * np.pi, np.pi / 64)
        rep = oracle_equivalence_report([0.0, 0.5, 1.0, 2.0], ts)
        assert rep.max_deviation < 1e-9

    def test_committed_geometry_matches_offscale_d(self, tmp_path):
        # both routes of evolve --d 2, each at (2 t, J/2)
        cfg = SweepConfig(t_max=4 * np.pi, t_steps=129, d=2.0,
                          out=str(tmp_path / "traj.csv"))
        for J in (0.0, 0.5, 1.5):
            assert cmd_evolve(cfg, J)["max_numeric_deviation"] < 1e-9

    def test_swapped_geometry_fails_loudly(self):
        ts = np.arange(0.0, 2 * np.pi, np.pi / 16)
        rep = oracle_equivalence_report(
            [0.0, 0.5, 1.0, 2.0], ts, geometry_factory=swapped_control_plaquette)
        assert rep.max_deviation > 1e-2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            oracle_equivalence_report([], [0.0])

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
        rep = oracle_equivalence_report(js, ts, geometry_factory=factory)
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
            oracle_equivalence_report(js, ts)
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
