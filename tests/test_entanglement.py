import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplaq.dynamics import (
    amplitudes_closed_form,
    closed_form_state,
    evolve_numeric,
    hermitian_eigendecompose,
)
from triplaq.entanglement import (
    _BLOCK_INDEX,
    ALL_PAIRS,
    _check_density,
    _hill_wootters_block,
    _structural_pattern,
    closed_form_c12,
    closed_form_c13,
    closed_form_c34,
    concurrence_gap,
    gap_from_state,
    pair_concurrences,
    partial_trace_pair,
    state_concurrence,
    wootters_concurrence,
)
from triplaq.errors import ContractViolationError, NumericalHealthError, TriplaqError
from triplaq.spin_core import (
    _blocks,
    build_hamiltonian,
    embed_single_excitation,
    initial_bell_state,
    swapped_control_plaquette,
)

RT2 = 1 / np.sqrt(2)

BELL_RHO = np.zeros((4, 4), dtype=complex)
BELL_RHO[1, 1] = BELL_RHO[2, 2] = BELL_RHO[1, 2] = BELL_RHO[2, 1] = 0.5


def brute_force_partial_trace(psi, m, n):
    """Independent oracle: explicit sum over the traced-out basis."""
    rho = np.zeros((4, 4), dtype=complex)
    rest_sites = [s for s in range(1, 5) if s not in (m, n)]
    for a, b, a2, b2 in itertools.product((0, 1), repeat=4):
        total = 0.0
        for r1, r2 in itertools.product((0, 1), repeat=2):
            bits, bits2 = [0] * 4, [0] * 4
            bits[m - 1], bits[n - 1] = a, b
            bits2[m - 1], bits2[n - 1] = a2, b2
            bits[rest_sites[0] - 1] = bits2[rest_sites[0] - 1] = r1
            bits[rest_sites[1] - 1] = bits2[rest_sites[1] - 1] = r2
            idx = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
            idx2 = bits2[0] * 8 + bits2[1] * 4 + bits2[2] * 2 + bits2[3]
            total += psi[idx] * np.conj(psi[idx2])
        rho[a * 2 + b, a2 * 2 + b2] = total
    return rho


def sector_concurrence(amps, pair):
    """Independent oracle on the single-excitation sector, where the pair
    (m, n) has concurrence 2|a_m||a_n|; amplitude slot 4 - s holds site s."""
    m, n = pair
    return 2.0 * np.abs(amps[..., 4 - m]) * np.abs(amps[..., 4 - n])


def reference_concurrence(rho):
    """Independent oracle: general eigensolver on the spin-flipped product."""
    sy = np.array([[0, -1j], [1j, 0]])
    tau = np.kron(sy, sy)
    lam = np.linalg.eigvals(rho @ tau @ rho.conj() @ tau)
    g = np.sqrt(np.maximum(np.sort(lam.real)[::-1], 0.0))
    return max(0.0, 2 * g[0] - g.sum())


class TestPartialTrace:
    def test_initial_state_first_pair_is_bell(self):
        rho = partial_trace_pair(initial_bell_state(), (1, 2))
        np.testing.assert_allclose(rho, BELL_RHO, atol=1e-15)

    def test_initial_state_last_pair_is_vacuum(self):
        rho = partial_trace_pair(initial_bell_state(), (3, 4))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_w_state_marginal(self):
        w = embed_single_excitation((0.5, 0.5, 0.5, 0.5))
        rho = partial_trace_pair(w, (1, 2))
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert rho[1, 2] == pytest.approx(0.25, abs=1e-15)

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            for pair in ALL_PAIRS:
                np.testing.assert_allclose(partial_trace_pair(psi, pair),
                                           brute_force_partial_trace(psi, *pair), atol=1e-12)

    def test_stack_equals_per_state_calls_and_brute_force(self):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        for pair in ALL_PAIRS:
            stacked = partial_trace_pair(psi, pair)
            assert stacked.shape == (2, 3, 4, 4)
            for index in np.ndindex(2, 3):
                assert np.array_equal(stacked[index], partial_trace_pair(psi[index], pair))
                np.testing.assert_allclose(
                    stacked[index], brute_force_partial_trace(psi[index], *pair), atol=1e-12)

    def test_rdm_invariants(self):
        psi = closed_form_state(1.7, 0.9)
        for pair in ALL_PAIRS:
            rho = partial_trace_pair(psi, pair)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    @pytest.mark.parametrize("pair", [(1, 1), (0, 2), (2, 5), (3, 2)])
    def test_bad_pairs_rejected(self, pair):
        with pytest.raises(ValueError):
            partial_trace_pair(initial_bell_state(), pair)

    def test_bad_states_rejected(self):
        with pytest.raises(ValueError):
            partial_trace_pair(np.zeros((3, 8)), (1, 2))
        # one unnormalized state of a stack gives a reduced matrix of trace 4
        states = np.stack([initial_bell_state()] * 3)
        states[1] *= 2.0
        with pytest.raises(ContractViolationError, match="trace"):
            partial_trace_pair(states, (1, 2))


def _small_c12_state():
    """Swapped-control state at t = pi, J = 0.035 (a surface-sweep grid point)
    whose (1,2) concurrence is ~9.25e-7."""
    t = float(np.linspace(0.0, 4 * np.pi, 5)[1])
    J = float(np.linspace(0.0, 2.0, 401)[7])
    H = build_hamiltonian(swapped_control_plaquette(J))
    return evolve_numeric(hermitian_eigendecompose(H), initial_bell_state(), t)


def _matmul_concurrences(psi, pairs=ALL_PAIRS):
    """The grid engine's former formula, kept as its reference: one SVD of
    B^T (sy x sy) B per pair, built by stacked complex matmul, with B the
    pair's block cut from the (..., 2, 2, 2, 2) amplitude tensor."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    psi = np.asarray(psi, dtype=complex)
    lead = psi.shape[:-1]
    tensor = psi.reshape(lead + (2, 2, 2, 2))
    out = []
    for m, n in pairs:
        rest = [k for k in range(4) if k not in (m - 1, n - 1)]
        axes = [len(lead) + k for k in (m - 1, n - 1, *rest)]
        B = np.moveaxis(tensor, axes, range(len(lead), len(lead) + 4)).reshape(lead + (4, 4))
        g = np.linalg.svd(np.swapaxes(B, -1, -2) @ flip @ B, compute_uv=False)
        out.append(np.maximum(0.0, 2.0 * g[..., 0] - g.sum(axis=-1)))
    return np.stack(out, axis=-1)


@st.composite
def _random_state_stacks(draw):
    """Normalized random 16-vectors: one, or a stack of up to three leading
    axes."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lead = tuple(draw(st.lists(st.integers(1, 5), min_size=0, max_size=3)))
    psi = rng.normal(size=lead + (16,)) + 1j * rng.normal(size=lead + (16,))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


@st.composite
def _masked_state_stacks(draw):
    """Normalized random 16-vectors with a random set of amplitudes zeroed
    in each state (at least one kept), so that the stack's union pattern can
    be any nonempty subset of the 16 basis states, not only S^z sectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 6))
    keep = rng.random((n, 16)) < draw(st.floats(0.05, 0.95))
    keep[np.arange(n), rng.integers(0, 16, n)] = True
    psi = np.where(keep, rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16)), 0.0)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


#: Every pair's flat block indices, stacked in ALL_PAIRS order.
_PAIR_INDEX = np.stack([_BLOCK_INDEX[pair] for pair in ALL_PAIRS])

#: Total S^z sector families, by excitation count: each sector alone and
#: three mixtures of two.
_SECTOR_FAMILIES = [(0,), (1,), (2,), (3,), (4,), (1, 3), (0, 2), (1, 2)]


def _sector_states(sectors, rng, n):
    """n normalized random states supported on the basis states whose
    excitation counts lie in ``sectors``."""
    inside = np.isin([bin(b).count("1") for b in range(16)], sectors)
    psi = np.where(inside, rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16)), 0.0)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _counting_svd(monkeypatch):
    """Patch np.linalg.svd to count its calls; returns the call list."""
    calls, svd = [], np.linalg.svd
    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestPairConcurrences:
    @settings(max_examples=60, deadline=None)
    @given(_random_state_stacks())
    def test_matches_matmul_formula_on_random_states(self, psi):
        got = pair_concurrences(psi, ALL_PAIRS)
        assert got.shape == psi.shape[:-1] + (6,)
        np.testing.assert_allclose(got, _matmul_concurrences(psi), rtol=0, atol=1e-14)

    def test_matches_matmul_formula_on_default_grid(self):
        psi = closed_form_state(np.linspace(0.0, 4 * np.pi, 129)[:, None],
                                np.linspace(0.0, 2.0, 65))
        np.testing.assert_allclose(pair_concurrences(psi), _matmul_concurrences(psi),
                                   rtol=0, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(_random_state_stacks(), st.lists(st.integers(0, 3), min_size=1, max_size=4,
                                            unique=True))
    def test_hill_wootters_matrix_is_exactly_symmetric(self, psi, cols):
        idx = np.sort(cols)
        M = _hill_wootters_block(psi[..., _PAIR_INDEX[:, :, idx]])
        assert M.shape == psi.shape[:-1] + (6, idx.size, idx.size)
        assert np.array_equal(M, M.swapaxes(-1, -2))
        # a block of M is M's rows and columns idx: B^T (sy x sy) B cut down
        sy = np.array([[0, -1j], [1j, 0]])
        B = psi[..., _PAIR_INDEX]
        full = np.swapaxes(B, -1, -2) @ np.kron(sy, sy) @ B
        np.testing.assert_allclose(M, full[..., idx[:, None], idx], rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(_masked_state_stacks())
    def test_matches_matmul_formula_on_zero_mask_stacks(self, psi):
        got = pair_concurrences(psi, ALL_PAIRS)
        np.testing.assert_allclose(got, _matmul_concurrences(psi), rtol=0, atol=1e-14)

    def test_matches_scalar_route_on_default_grid(self):
        ts = np.linspace(0.0, 4 * np.pi, 129)
        js = np.linspace(0.0, 2.0, 65)
        worst = 0.0
        for t in ts:
            states = closed_form_state(float(t), js)
            batch = pair_concurrences(states, ALL_PAIRS)
            quartic = np.stack([state_concurrence(states, pair) for pair in ALL_PAIRS],
                               axis=-1)
            worst = max(worst, float(np.abs(batch - quartic).max()))
        assert worst <= 1e-14

    def test_general_pure_states(self):
        rng = np.random.default_rng(12)
        psi = rng.normal(size=(20, 16)) + 1j * rng.normal(size=(20, 16))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        batch = pair_concurrences(psi, ALL_PAIRS)
        assert batch.shape == (20, 6)
        for k, pair in enumerate(ALL_PAIRS):
            expected = [reference_concurrence(partial_trace_pair(p, pair)) for p in psi]
            np.testing.assert_allclose(batch[:, k], expected, atol=1e-10)

    def test_shapes_and_pair_order(self):
        psi = closed_form_state(1.1, 0.3)
        one = pair_concurrences(psi, ((3, 4), (1, 2)))
        assert one.shape == (2,)
        assert one[0] == pytest.approx(state_concurrence(psi, (3, 4)), abs=1e-14)
        assert one[1] == pytest.approx(state_concurrence(psi, (1, 2)), abs=1e-14)
        assert pair_concurrences(np.stack([[psi] * 3] * 2)).shape == (2, 3, 6)

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            pair_concurrences(np.zeros(8))
        with pytest.raises(ValueError):
            pair_concurrences(initial_bell_state(), ((2, 1),))

    @pytest.mark.parametrize("route", [pair_concurrences,
                                       lambda psi: state_concurrence(psi, (1, 2))],
                             ids=["blocks", "quartic"])
    @pytest.mark.parametrize("bad", [np.nan, complex(0, np.inf)])
    @pytest.mark.parametrize("kind", ["single-excitation", "dense"])
    def test_non_finite_amplitude_rejected(self, monkeypatch, route, bad, kind):
        # a 1x1 block's modulus would pass a NaN through silently, so the
        # amplitudes are checked before any block is solved
        if kind == "dense":
            psi = _sector_states(range(5), np.random.default_rng(3), 4)
        else:
            psi = closed_form_state(1.1, np.linspace(0.0, 2.0, 4))
        psi[2, 8] = bad
        calls = _counting_svd(monkeypatch)
        with pytest.raises(ContractViolationError, match=r"1 state amplitude.*psi\[2, 8\]"):
            route(psi)
        assert calls == []

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5))
    @pytest.mark.parametrize("sectors", _SECTOR_FAMILIES, ids=str)
    def test_sector_states_match_full_svd(self, sectors, seed, n):
        psi = _sector_states(sectors, np.random.default_rng(seed), n)
        got = pair_concurrences(psi, ALL_PAIRS)
        np.testing.assert_allclose(got, _matmul_concurrences(psi), rtol=0, atol=1e-14)
        # on these families rho rho_tilde is singular: the eigensolver puts
        # its zeros near 1e-16, and their square roots near sqrt(eps), so the
        # reference resolves no better than a few 1e-8 (1.5e-8 measured over
        # 3000 states of sectors 1 and 3, 9.5e-10 over 200 of the mixture);
        # for one excitation or one hole the sector formula, after a global
        # spin flip for the hole, is the exact oracle
        singular = sectors in ((1,), (3,), (1, 2))
        for k, pair in enumerate(ALL_PAIRS):
            expected = [reference_concurrence(rho) for rho in partial_trace_pair(psi, pair)]
            np.testing.assert_allclose(got[:, k], expected, rtol=0,
                                       atol=1e-7 if singular else 1e-10)
            if sectors in ((1,), (3,)):
                slots = [1, 2, 4, 8] if sectors == (1,) else [14, 13, 11, 7]
                np.testing.assert_allclose(got[:, k], sector_concurrence(psi[:, slots], pair),
                                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("sectors, blocks", [
        ((1,), [[0], [1], [2], [3]]), ((2,), [[0, 3], [1, 2]]), (range(5), [[0, 1, 2, 3]])],
        ids=["single-excitation", "two-excitation", "dense"])
    def test_one_svd_per_block_larger_than_one(self, monkeypatch, sectors, blocks):
        psi = _sector_states(sectors, np.random.default_rng(11), 6)
        pattern = _structural_pattern(psi, _PAIR_INDEX)
        assert [b.tolist() for b in _blocks(pattern[None])] == blocks
        calls = _counting_svd(monkeypatch)
        pair_concurrences(psi, ALL_PAIRS)
        assert calls == [(6, 6, len(b), len(b)) for b in blocks if len(b) > 1]

    def test_structural_block_larger_than_numerical(self, monkeypatch):
        # two-excitation states with psi5 psi10 = -psi6 psi9 exactly: pair
        # (1,2)'s M_12 = b1_1 b2_2 + b1_2 b2_1 cancels to 0 in every state,
        # so M's nonzero entries split {1, 2} into {1} and {2}, while the
        # amplitudes' pattern keeps it whole and it takes an SVD
        rng = np.random.default_rng(5)
        x, y, u, v = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        psi = np.zeros((8, 16), dtype=complex)
        psi[:, 5], psi[:, 10], psi[:, 6], psi[:, 9] = x, y, x, -y
        psi[:, 3], psi[:, 12] = u, v
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        index = np.stack([_BLOCK_INDEX[(1, 2)]])
        M = _hill_wootters_block(psi[..., index])
        assert (M[..., 1, 2] == 0).all() and (M[..., 1, 1] != 0).all()
        assert [b.tolist() for b in _blocks(M.reshape(-1, 4, 4))] == [[0, 3], [1], [2]]
        assert [b.tolist() for b in _blocks(_structural_pattern(psi, index)[None])] == [
            [0, 3], [1, 2]]
        calls = _counting_svd(monkeypatch)
        got = pair_concurrences(psi, ((1, 2),))
        assert calls == [(8, 1, 2, 2), (8, 1, 2, 2)]
        np.testing.assert_allclose(got, _matmul_concurrences(psi, ((1, 2),)),
                                   rtol=0, atol=1e-14)

    def test_memory_on_a_default_grid_block(self):
        # one block of the report's sweep: 7 t-rows of 65 couplings, 455
        # states; M is built only on its one structural entry per pair
        ts, js = np.linspace(0.0, 4 * np.pi, 129), np.linspace(0.0, 2.0, 65)
        psi = closed_form_state(ts[:7, None], js).reshape(-1, 16)
        assert psi.shape == (455, 16)
        tracemalloc.start()
        try:
            pair_concurrences(psi, ALL_PAIRS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * psi.nbytes

    def test_small_concurrence_matches_sector_shortcut(self):
        psi = _small_c12_state()
        shortcut = 2.0 * abs(psi[8]) * abs(psi[4])   # sites 1 and 2
        assert 9.2e-7 < shortcut < 9.3e-7
        assert pair_concurrences(psi, ((1, 2),))[0] == pytest.approx(shortcut, rel=1e-8)

    @pytest.mark.xfail(strict=True, reason="the quartic route deflates roots "
                       "below 1e-12 of the coefficient scale, flushing "
                       "concurrences under ~1e-6 to 0")
    def test_scalar_route_flushes_small_concurrence(self):
        psi = _small_c12_state()
        shortcut = 2.0 * abs(psi[8]) * abs(psi[4])
        assert state_concurrence(psi, (1, 2)) == pytest.approx(shortcut, rel=1e-8)


def _scalar_quartic(rho):
    """The per-matrix quartic route the broadcast one replaced, kept as the
    bit-for-bit reference (guards left out): Faddeev-LeVerrier, deflation of
    one trailing coefficient at a time, closed-form roots up to degree two,
    ``np.roots`` above."""
    sy = np.array([[0, -1j], [1j, 0]])
    flip = np.kron(sy, sy)
    M = rho @ (flip @ rho.conj() @ flip)
    coeffs = np.zeros(5, dtype=complex)
    coeffs[0] = 1.0
    Mk = M.copy()
    for k in range(1, 5):
        coeffs[k] = -np.trace(Mk) / k
        if k < 4:
            Mk = M @ (Mk + coeffs[k] * np.eye(4))
    c = coeffs.real.copy()
    scale = max(1.0, float(np.abs(c).max()))
    while len(c) > 1 and abs(c[-1]) < 1e-12 * scale:
        c = c[:-1]
    lam = np.zeros(4)
    if len(c) == 2:
        lam[0] = -c[1]
    elif len(c) == 3:
        b, q0 = c[1], c[2]
        root = np.sqrt(max(b * b - 4.0 * q0, 0.0))
        q = -0.5 * (b + np.copysign(root, b)) if b != 0.0 else 0.5 * root
        lam[:2] = q, (q0 / q if q != 0.0 else 0.0)
    elif len(c) > 3:
        lam[:len(c) - 1] = np.roots(c).real
    g = np.sort(np.sqrt(np.maximum(lam, 0.0)))[::-1]
    return max(0.0, float(2.0 * g[0] - g.sum()))


@st.composite
def _rank_limited_states(draw):
    """A stack of 16-vectors whose (1,2) reduced matrix has the drawn rank,
    1 to 4: the pair's block is a random 4 x k matrix, zero-padded.  A
    generic rank-k state gives a spin-flip quartic of degree k, so the stack
    runs every degree branch."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ranks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    states = np.zeros((len(ranks), 4, 4), dtype=complex)
    for state, k in zip(states, ranks):
        state[:, :k] = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
    states = states.reshape(-1, 16)     # pair (1, 2): block row = qubits 1, 2
    return states / np.linalg.norm(states, axis=1, keepdims=True)


_rng = np.random.default_rng(9)
_GARBAGE = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_BAD_MATRICES = {
    # (matrix, the guard that rejects it)
    "non-Hermitian": (np.triu(np.ones((4, 4))) / 4.0, _check_density),
    "complex spectrum": (_GARBAGE, wootters_concurrence),
    "negative eigenvalue": (np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex),
                            wootters_concurrence),
}


class TestBroadcastQuartic:
    """The quartic route on a stack is the per-matrix route, and the scalar
    route it replaced, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(states=_rank_limited_states())
    def test_stack_equals_per_state_calls_on_every_degree(self, states):
        for pair in ALL_PAIRS:
            stacked = state_concurrence(states, pair)
            assert stacked.shape == (len(states),)
            assert np.array_equal(stacked, [state_concurrence(p, pair) for p in states])
        rho = partial_trace_pair(states, (1, 2))
        assert np.array_equal(wootters_concurrence(rho), [_scalar_quartic(r) for r in rho])
        assert np.array_equal(wootters_concurrence(rho), [wootters_concurrence(r) for r in rho])
        assert np.array_equal(gap_from_state(states), [gap_from_state(p) for p in states])

    @settings(max_examples=60, deadline=None)
    @given(amps=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 8), min_size=1, max_size=6),
           at=st.integers(0, 6))
    def test_single_excitation_stack_with_the_flushed_point(self, amps, at):
        amps = np.array(amps)
        amps = amps[np.linalg.norm(amps, axis=1) > 1e-3]
        vec = amps[:, :4] + 1j * amps[:, 4:]
        states = list(embed_single_excitation(vec / np.linalg.norm(vec, axis=1, keepdims=True)))
        states.insert(at % (len(states) + 1), _small_c12_state())
        states = np.array(states)
        for pair in ALL_PAIRS:
            stacked = state_concurrence(states, pair)
            assert np.array_equal(stacked, [state_concurrence(p, pair) for p in states])
            assert np.array_equal(stacked, [_scalar_quartic(partial_trace_pair(p, pair))
                                            for p in states])

    @settings(max_examples=30, deadline=None)
    @given(states=_rank_limited_states(), at=st.integers(0, 8),
           kind=st.sampled_from(sorted(_BAD_MATRICES)))
    def test_one_bad_matrix_fails_the_stack_as_alone(self, states, at, kind):
        bad, guard = _BAD_MATRICES[kind]
        rho = list(partial_trace_pair(states, (1, 2)))
        rho.insert(at % (len(rho) + 1), bad)
        with pytest.raises(TriplaqError) as alone:
            guard(bad)
        with pytest.raises(alone.type):
            guard(np.array(rho))

    def test_shapes(self):
        psi = closed_form_state(1.1, 0.3)
        assert isinstance(state_concurrence(psi, (1, 2)), float)
        assert isinstance(gap_from_state(psi), float)
        stack = np.stack([[psi] * 3] * 2)
        assert state_concurrence(stack, (1, 3)).shape == (2, 3)
        assert gap_from_state(stack).shape == (2, 3)
        assert isinstance(wootters_concurrence(BELL_RHO), float)
        assert wootters_concurrence(np.stack([BELL_RHO] * 5)).shape == (5,)
        with pytest.raises(ValueError):
            state_concurrence(np.zeros((3, 8)), (1, 2))
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(2))


class TestWootters:
    def test_bell_state_is_maximal(self):
        assert wootters_concurrence(BELL_RHO) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        assert wootters_concurrence(rho) == 0.0

    def test_w_marginal_is_half(self):
        w = embed_single_excitation((0.5, 0.5, 0.5, 0.5))
        assert wootters_concurrence(partial_trace_pair(w, (1, 2))) == pytest.approx(
            0.5, abs=1e-12)

    def test_against_reference_on_random_mixtures(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            a = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            # both routes lose precision near multiple tiny eigenvalues
            assert wootters_concurrence(rho) == pytest.approx(
                reference_concurrence(rho), abs=2e-4)

    def test_rejects_invalid_density_matrix(self):
        rho = np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex)
        with pytest.raises(NumericalHealthError):
            wootters_concurrence(rho)

    def test_rejects_complex_spectrum(self):
        rng = np.random.default_rng(9)
        garbage = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(NumericalHealthError):
            wootters_concurrence(garbage)

    def test_rdm_construction_rejects_non_hermitian(self):
        # the check partial_trace_pair applies to every matrix it builds
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ContractViolationError, match="Hermitian"):
            _check_density(bad)


class TestSingleExcitationShortcut:
    """The sector shortcut 2|a_m||a_n|, a test-local oracle, against both
    Wootters routes."""

    def test_initial_state_values(self):
        a, psi = amplitudes_closed_form(0.0, 0.0), closed_form_state(0.0, 0.0)
        assert sector_concurrence(a, (1, 2)) == pytest.approx(1.0)
        assert sector_concurrence(a, (3, 4)) == 0.0
        assert state_concurrence(psi, (1, 2)) == pytest.approx(1.0, abs=1e-12)
        assert state_concurrence(psi, (3, 4)) == 0.0

    def test_quarter_period_pair_14(self):
        a = amplitudes_closed_form(np.pi / 2, 0.0)
        assert sector_concurrence(a, (1, 4)) == pytest.approx(1.0, abs=1e-12)
        psi = embed_single_excitation(a)
        assert state_concurrence(psi, (1, 4)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(0.0, 200.0), J=st.floats(-3.0, 3.0))
    def test_matches_wootters_on_trajectories(self, t, J):
        amps, psi = amplitudes_closed_form(t, J), closed_form_state(t, J)
        expected = np.array([sector_concurrence(amps, pair) for pair in ALL_PAIRS])
        svd = pair_concurrences(psi, ALL_PAIRS)
        quartic = np.array([state_concurrence(psi, pair) for pair in ALL_PAIRS])
        assert np.abs(svd - expected).max() <= 1e-12
        # the quartic route flushes concurrences under ~1e-6 to exactly 0
        # (see test_scalar_route_flushes_small_concurrence)
        assert ((np.abs(quartic - expected) <= 1e-12)
                | ((quartic == 0.0) & (expected < 1e-6))).all()


class TestClosedForms:
    def test_values_at_t0(self):
        assert closed_form_c12(0.0, 0.7) == pytest.approx(1.0, abs=1e-14)
        assert closed_form_c34(0.0, 0.7) == pytest.approx(0.0, abs=1e-14)
        # known defect of the reference expression: 0.125 instead of 0
        assert closed_form_c13(0.0, 0.7) == pytest.approx(0.125, abs=1e-14)

    def test_c12_c34_track_squared_wootters(self):
        worst12 = worst34 = 0.0
        for t in np.linspace(0, 4 * np.pi, 65):
            for J in np.linspace(0, 2, 17):
                psi = closed_form_state(float(t), float(J))
                worst12 = max(worst12, abs(
                    state_concurrence(psi, (1, 2)) ** 2 - closed_form_c12(t, J)))
                worst34 = max(worst34, abs(
                    state_concurrence(psi, (3, 4)) ** 2 - closed_form_c34(t, J)))
        assert worst12 < 1e-12 and worst34 < 1e-12

    def test_c13_matches_nothing(self):
        # not the concurrence, not its square, and it even goes negative
        psi = closed_form_state(np.pi / 3, 0.0)
        w13 = state_concurrence(psi, (1, 3))
        v = closed_form_c13(np.pi / 3, 0.0)
        assert abs(v - w13) > 0.1 and abs(v - w13 ** 2) > 0.05
        assert v < 0.0


class TestGap:
    def test_first_transfer(self):
        assert concurrence_gap(np.pi, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_initial_value(self):
        assert concurrence_gap(0.0, 1.23) == pytest.approx(-1.0, abs=1e-14)

    def test_identity_with_closed_forms(self):
        ts = np.linspace(0, 4 * np.pi, 129)
        js = np.linspace(0, 2, 65)
        tt, jj = np.meshgrid(ts, js, indexing="ij")
        defect = np.abs(concurrence_gap(tt, jj)
                        - (closed_form_c34(tt, jj) - closed_form_c12(tt, jj)))
        assert defect.max() < 1e-12

    def test_reduction_at_transfer_times(self):
        for m in (1, 2, 3):
            for J in np.linspace(0, 2, 41):
                expected = (-1.0) ** (m + 1) * np.cos(m * np.pi * J)
                assert concurrence_gap(m * np.pi, J) == pytest.approx(
                    expected, abs=1e-12)

    def test_gap_from_states_consistent_at_events(self):
        # at a complete transfer both routes give exactly 1
        psi = closed_form_state(np.pi, 0.0)
        assert gap_from_state(psi) == pytest.approx(1.0, abs=1e-10)
        assert concurrence_gap(np.pi, 0.0) == pytest.approx(1.0, abs=1e-12)


class TestSymmetryAndMonogamy:
    def test_reflection_symmetry_at_transfer_times(self):
        # all pair signals are invariant under J -> 2-J at t = m*pi
        for m in (1, 2, 3):
            for J in np.linspace(0, 1, 11):
                psi_a = closed_form_state(m * np.pi, float(J))
                psi_b = closed_form_state(m * np.pi, float(2 - J))
                for pair in ((1, 2), (3, 4), (1, 3)):
                    assert state_concurrence(psi_a, pair) == pytest.approx(
                        state_concurrence(psi_b, pair), abs=1e-10)

    def test_monogamy_bound(self):
        rng = np.random.default_rng(8)
        states = [closed_form_state(t, J)
                  for t in np.linspace(0, 4 * np.pi, 17)
                  for J in (0.0, 0.5, 1.0, 2.0)]
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            a /= np.linalg.norm(a)
            states.append(embed_single_excitation(tuple(a)))
        for psi in states:
            c = {pair: state_concurrence(psi, pair) for pair in ALL_PAIRS}
            for site in range(1, 5):
                total = sum(c[p] ** 2 for p in ALL_PAIRS if site in p)
                assert total <= 1.0 + 1e-9

    def test_monogamy_saturation_formula(self):
        # single-excitation states: sum of squared pair concurrences at site m
        # equals 4|a_m|^2 (1 - |a_m|^2)
        a = amplitudes_closed_form(1.1, 0.8)
        psi = embed_single_excitation(a)
        for site in range(1, 5):
            total = sum(state_concurrence(psi, p) ** 2
                        for p in ALL_PAIRS if site in p)
            p = abs(a[4 - site]) ** 2
            assert total == pytest.approx(4 * p * (1 - p), abs=1e-10)
