import functools
import time
import tracemalloc

import numpy as np
import pytest

import oracle
from oracle import (
    controlled_not,
    entropy_bits_direct,
    ghz_cnot_chain_dense,
    haar_unitary_square_qr,
    partial_trace_loops,
    spectral_capacity,
)
from telecap import corpus
from telecap.capacity import analyze
from telecap.corpus import (
    generate_planted,
    ghz_canonical_form,
    ghz_channel,
    ghz_cnot_chain,
    haar_unitary,
    n_bell_channel,
    random_channel,
)
from telecap.linalg import cluster_spectrum, is_unitary
from telecap.states import ChannelState, PureState, fidelity, random_pure_state

S = 1.0 / np.sqrt(2.0)


class TestHaarUnitary:
    def test_unitary_and_deterministic(self):
        u = haar_unitary(8, seed=3)
        assert is_unitary(u)
        assert np.array_equal(u, haar_unitary(8, seed=3))
        assert not np.allclose(u, haar_unitary(8, seed=4))

    @pytest.mark.parametrize("dim,seed", [(2, 0), (8, 3), (64, 11), (256, 5)])
    def test_matches_square_qr_bit_for_bit(self, dim, seed):
        assert np.array_equal(haar_unitary(dim, seed), haar_unitary_square_qr(dim, seed))

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="^dimension must be 2..65536$"):
            haar_unitary(1, 0)

    def test_mean_single_qubit_purity(self):
        # normalized purity 2 tr(rho^2) - 1 of a one-qubit marginal of a
        # Haar two-qubit state averages to 3/5
        total = 0.0
        trials = 3000
        for seed in range(trials):
            psi = random_pure_state(2, seed)
            rho = partial_trace_loops(np.outer(psi.amplitudes, psi.amplitudes.conj()), 2, [1])
            total += 2.0 * float(np.trace(rho @ rho).real) - 1.0
        assert total / trials == pytest.approx(0.6, abs=0.02)


class TestHaarIsometry:
    @pytest.mark.parametrize("rows,cols", [(4, 2), (8, 3), (2, 2)])
    def test_entry_moments(self, rows, cols):
        # Haar isometry entries: E V = 0, E |V|^2 = 1 / rows, E V^2 = 0.  The
        # first moment is the one that sees a missing phase fix: numpy's QR
        # leaves R's diagonal real, which biases the phase of every column.
        v = np.array([corpus._haar_isometry(np.random.default_rng(s), rows, cols)
                      for s in range(4000)])
        assert v.shape == (4000, rows, cols)
        assert np.max(np.abs(v.mean(axis=0))) < 0.04
        assert np.max(np.abs((np.abs(v) ** 2).mean(axis=0) - 1.0 / rows)) < 0.02
        assert np.max(np.abs((v * v).mean(axis=0))) < 0.03

    def test_gram_check_rejects_non_isometry(self, monkeypatch):
        monkeypatch.setattr(corpus, "_haar_isometry",
                            lambda rng, rows, cols: np.ones((rows, cols), dtype=complex))
        with pytest.raises(ArithmeticError, match="isometry"):
            generate_planted(3, 2, 1, seed=7)


class TestControlledNot:
    def test_two_qubit_forms(self):
        want01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        want10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        assert np.array_equal(controlled_not(2, 0, 1), want01)
        assert np.array_equal(controlled_not(2, 1, 0), want10)

    def test_three_qubit_action(self):
        u = controlled_not(3, 0, 2)
        for idx in range(8):
            src = np.zeros(8)
            src[idx] = 1.0
            out = u @ src
            want = idx ^ 1 if idx & 4 else idx
            assert out[want] == 1.0

    def test_guards(self):
        with pytest.raises(ValueError):
            controlled_not(2, 0, 0)
        with pytest.raises(ValueError):
            controlled_not(2, 2, 0)


class TestBellStacks:
    def test_single_pair_is_singlet(self):
        ch = n_bell_channel(1)
        assert np.allclose(ch.state.amplitudes, [0, S, -S, 0])
        assert ch.alice == (0,) and ch.bob == (1,)

    def test_two_pairs_amplitudes(self):
        # amplitude of |a0 a1 b0 b1> is s(a0, b0) * s(a1, b1) with
        # s(0,1) = +1/sqrt2, s(1,0) = -1/sqrt2, else 0
        ch = n_bell_channel(2)
        s = {(0, 1): S, (1, 0): -S}
        v = ch.state.amplitudes
        for idx in range(16):
            a0, a1, b0, b1 = (idx >> 3) & 1, (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
            want = s.get((a0, b0), 0.0) * s.get((a1, b1), 0.0)
            assert v[idx] == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_permuted_product_bit_for_bit(self, n):
        # the outer product of n singlets, qubits moved pair by pair to the
        # sender's and the receiver's side: same products, same bytes
        stack = PureState(functools.reduce(np.multiply.outer, [oracle._BELL_VECTORS[0]] * n))
        order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
        want = oracle.permute_qubits(stack, order).amplitudes
        assert n_bell_channel(n).state.amplitudes.tobytes() == want.tobytes()

    def test_capacity_equals_pair_count(self):
        for n in (1, 2, 3):
            assert spectral_capacity(n_bell_channel(n)) == n

    def test_pair_count_range_ends_at_the_cap(self):
        ch = n_bell_channel(8)
        assert ch.state.n_qubits == 16 and analyze(ch).capacity == 8
        for n in (0, 9):
            with pytest.raises(ValueError, match=r"need 1\.\.8 pairs"):
                n_bell_channel(n)


class TestGhz:
    def test_channel_split(self):
        ch = ghz_channel(4, 1)
        assert ch.alice == (0,) and ch.bob == (1, 2, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_cnot_chain_reaches_canonical_form(self, n):
        identity = np.arange(1 << n)
        for m in range(1, n):
            perm = ghz_cnot_chain(n, m)
            u_a, u_b = ghz_cnot_chain_dense(n, m)
            assert np.array_equal(np.eye(1 << n)[perm], np.kron(u_a, u_b))
            assert np.array_equal(perm[perm], identity)
            out = ghz_channel(n, m).state.amplitudes[perm]
            assert np.max(np.abs(out - ghz_canonical_form(n).amplitudes)) < 1e-12

    def test_guards(self):
        with pytest.raises(ValueError, match="^need 1 <= m < n$"):
            ghz_channel(3, 3)
        with pytest.raises(ValueError, match="^need 1 <= m < n <= 16$"):
            ghz_cnot_chain(3, 3)

    def test_canonical_form_amplitudes(self):
        v = ghz_canonical_form(4).amplitudes
        assert v[0] == pytest.approx(S) and v[9] == pytest.approx(S)
        assert np.count_nonzero(v) == 2


class TestPlanted:
    def test_deterministic(self):
        a = generate_planted(3, 2, 1, seed=7)
        b = generate_planted(3, 2, 1, seed=7)
        assert np.array_equal(a.channel.state.amplitudes, b.channel.state.amplitudes)

    def test_seed_matters(self):
        a = generate_planted(3, 2, 1, seed=7)
        b = generate_planted(3, 2, 1, seed=8)
        assert not np.allclose(a.channel.state.amplitudes, b.channel.state.amplitudes)

    def test_scrambling_is_local(self):
        p = generate_planted(3, 2, 1, seed=9)
        ref = ChannelState(p.reference, p.channel.alice, p.channel.bob)
        entropy = analyze(p.channel).entropy_bits
        rho = np.outer(p.reference.amplitudes, p.reference.amplitudes.conj())
        for traced in (ref.alice, ref.bob):
            own = partial_trace_loops(rho, p.reference.n_qubits, traced)
            assert entropy_bits_direct(np.linalg.eigvalsh(own)) == pytest.approx(
                entropy, abs=1e-10)
        assert spectral_capacity(p.channel) == spectral_capacity(ref) == 1

    def test_reference_layout(self):
        # pre-scramble state: singlets across (i, m + i), residual after
        p = generate_planted(2, 2, 2, seed=10)
        want = n_bell_channel(2).state
        assert fidelity(p.reference, want) > 1 - 1e-12

    @pytest.mark.parametrize("m,n,d", [(3, 2, 1), (2, 3, 2), (4, 4, 2), (1, 3, 1)])
    def test_reference_pairs_are_singlets(self, m, n, d):
        # pair i is a singlet on (sender qubit i, receiver qubit m + i), so
        # the residual takes the sender's and the receiver's last qubits
        ref = generate_planted(m, n, d, seed=10).reference
        rho = np.outer(ref.amplitudes, ref.amplitudes.conj())
        singlet = np.outer(oracle._BELL_VECTORS[0], oracle._BELL_VECTORS[0].conj())
        for i in range(d):
            traced = [q for q in range(m + n) if q not in (i, m + i)]
            pair = partial_trace_loops(rho, m + n, traced)
            assert np.max(np.abs(pair - singlet)) < 1e-12

    def test_capacity_grid(self):
        for seed, (m, n, d) in enumerate(
                [(1, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 0),
                 (2, 2, 2), (3, 2, 2), (2, 3, 0), (4, 1, 1), (3, 3, 1)]):
            p = generate_planted(m, n, d, seed)
            assert p.capacity == d
            assert spectral_capacity(p.channel) == d

    def test_guards(self):
        with pytest.raises(ValueError, match="0..min"):
            generate_planted(2, 1, 2, seed=0)
        with pytest.raises(ValueError, match="positive"):
            generate_planted(0, 1, 0, seed=0)

    def test_gap_test_keeps_the_first_gapped_candidate(self, monkeypatch):
        # at d = 1 and eps = 1e-9 the margin is 2e-8: the first candidate's
        # smaller weight lies under it, the second's gap does, the third
        # passes; each candidate is drawn from its own next child seed
        weights = [(1 - 1e-9, 1e-9), (0.5 + 5e-9, 0.5 - 5e-9), (0.7, 0.3)]
        candidates = iter(PureState(np.diag(np.sqrt(w)).ravel()) for w in weights)
        keys = []

        def drawn(n, seed):
            keys.append(seed.spawn_key)
            return next(candidates)

        monkeypatch.setattr(corpus, "random_pure_state", drawn)
        seq = np.random.SeedSequence(5)
        got = corpus._gapped_residual(1, 1, 1, 1e-9, seq)
        assert np.array_equal(got, np.diag(np.sqrt([0.7, 0.3])))
        assert keys == [(0,), (1,), (2,)] and seq.n_children_spawned == 3

    def test_no_gapped_residual_at_a_coarse_eps(self):
        # at eps 0.1 a 2|2 channel's residual needs its weights and gap above 2
        with pytest.raises(ArithmeticError,
                           match="^could not draw a gapped residual spectrum$"):
            generate_planted(2, 2, 1, 3, eps=0.1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1.0, 0.0])
    def test_rejects_eps_outside_unit_interval(self, eps):
        # a nan margin fails no gap test, so the residual was never checked
        with pytest.raises(ValueError, match="eps"):
            generate_planted(2, 2, 1, seed=3, eps=eps)


def _schmidt(channel: ChannelState, m: int, n: int) -> np.ndarray:
    return np.linalg.svd(channel.state.amplitudes.reshape(1 << m, 1 << n),
                         compute_uv=False)


class TestPlantedAtCap:
    @pytest.mark.parametrize("m,n,d", [(14, 1, 1), (1, 14, 1), (13, 2, 2), (2, 13, 1)])
    def test_lopsided_split_at_the_cap(self, m, n, d):
        tracemalloc.start()
        try:
            start = time.process_time()
            p = generate_planted(m, n, d, seed=3)
            seconds = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 1.0
        assert peak < 64 << 20
        ref = ChannelState(p.reference, p.channel.alice, p.channel.bob)
        got, want = _schmidt(p.channel, m, n), _schmidt(ref, m, n)
        assert np.max(np.abs(got - want)) < 1e-12
        # the smaller side's spectrum is the squared Schmidt coefficients
        got_c = cluster_spectrum(got ** 2)
        want_c = cluster_spectrum(want ** 2)
        assert [c.multiplicity for c in got_c] == [c.multiplicity for c in want_c]
        assert {c.multiplicity for c in got_c} == {1 << d}
        assert max(abs(a.value - b.value) for a, b in zip(got_c, want_c)) < 1e-12
        again = generate_planted(m, n, d, seed=3)
        assert np.array_equal(p.channel.state.amplitudes, again.channel.state.amplitudes)


class TestRandomChannel:
    def test_split_layout(self):
        ch = random_channel(2, 3, seed=1)
        assert ch.alice == (0, 1) and ch.bob == (2, 3, 4)
        assert ch.state.n_qubits == 5
