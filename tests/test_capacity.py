import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    entropy_bits_direct,
    basis_state,
    partial_trace_loops,
    permute_qubits,
    receiver_clusters,
    spectral_capacity,
    two_adic_division,
)
from telecap import linalg
from telecap.capacity import (
    analyze,
    bipartition_matrix,
    canonical_state,
    certify,
    max_capacity,
    reduced_density,
    synthesize_u_a,
    synthesize_u_b,
    verify_condition,
)
from telecap.corpus import generate_planted, ghz_channel, n_bell_channel, random_channel
from telecap.states import (
    ChannelState,
    PureState,
    apply_unitary,
    bell_state,
    fidelity,
    ghz_state,
    random_pure_state,
    tensor,
)


def singlet_with_spectator() -> ChannelState:
    """Singlet between qubits 0 and 2, sender also holds |0> on qubit 1."""
    state = tensor([bell_state(1), PureState(np.array([1.0, 0.0]))])
    state = permute_qubits(state, (0, 2, 1))
    return ChannelState(state, (0, 1), (2,))


class TestReducedDensity:
    def test_sides_share_nonzero_spectrum(self):
        ch = random_channel(2, 3, seed=1)
        wa = np.linalg.eigvalsh(reduced_density(ch, "alice"))
        wb = np.linalg.eigvalsh(reduced_density(ch, "bob"))
        wa = np.sort(wa)[::-1][:4]
        wb = np.sort(wb)[::-1][:4]
        assert np.max(np.abs(wa - wb)) < 1e-12

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side must be 'alice' or 'bob'"):
            reduced_density(random_channel(1, 1, seed=1), "carol")

    def test_bipartition_matrix_respects_list_order(self):
        ch = ChannelState(ghz_state(3), (2, 0), (1,))
        m = bipartition_matrix(ch)
        # row index runs over (q2, q0) big-endian, column over q1
        v = ghz_state(3).amplitudes
        assert m[0, 0] == v[0]          # q2=0,q0=0,q1=0 -> |000>
        assert m[3, 1] == v[7]          # q2=1,q0=1,q1=1 -> |111>
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12

    def test_bob_density_is_partial_trace(self):
        ch = random_channel(2, 2, seed=2)
        rho = np.outer(ch.state.amplitudes, ch.state.amplitudes.conj())
        want = partial_trace_loops(rho, 4, ch.alice)
        got = reduced_density(ch, "bob")
        assert np.max(np.abs(got - want)) < 1e-12


class TestEntropy:
    def test_hand_values(self):
        assert analyze(n_bell_channel(1)).entropy_bits == pytest.approx(1.0)
        assert abs(analyze(n_bell_channel(2)).entropy_bits - 2.0) < 1e-12
        assert abs(analyze(ghz_channel(5, 2)).entropy_bits - 1.0) < 1e-12
        product = ChannelState(tensor([random_pure_state(1, 3), random_pure_state(1, 4)]),
                               (0,), (1,))
        assert analyze(product).entropy_bits < 1e-12

    def test_product_state_entropy_is_positive_zero(self):
        ch = ChannelState(basis_state((0, 0)), (0,), (1,))
        rep = analyze(ch)
        assert rep.entropy_bits == 0.0 and math.copysign(1.0, rep.entropy_bits) == 1.0

    def test_w_state_split(self):
        v = np.zeros(8, dtype=complex)
        v[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
        ch = ChannelState(PureState(v), (0,), (1, 2))
        want = entropy_bits_direct([2.0 / 3.0, 1.0 / 3.0])
        assert abs(analyze(ch).entropy_bits - want) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
    def test_symmetric_under_swap(self, seed, m, n):
        # analyze decomposes the smaller party only; both parties' own
        # densities must give its entropy
        ch = random_channel(m, n, seed)
        rho = np.outer(ch.state.amplitudes, ch.state.amplitudes.conj())
        got = analyze(ch).entropy_bits
        for traced in (ch.alice, ch.bob):
            own = partial_trace_loops(rho, m + n, traced)
            assert got == pytest.approx(entropy_bits_direct(np.linalg.eigvalsh(own)), abs=1e-10)


class TestMaxCapacity:
    def test_two_adic_against_division(self):
        from telecap.capacity import _two_adic
        for k in range(1, 257):
            assert _two_adic(k) == two_adic_division(k)

    def test_hand_spectra(self):
        c = linalg.cluster_spectrum([0.25] * 4, 1e-9)
        assert max_capacity(c, 2, 2) == 2
        assert max_capacity(c, 1, 2) == 1    # capped by the smaller side
        c = linalg.cluster_spectrum([0.5, 0.5, 0.0, 0.0], 1e-9)
        assert max_capacity(c, 2, 2) == 1
        c = linalg.cluster_spectrum([0.4, 0.3, 0.3], 1e-9)
        assert max_capacity(c, 2, 2) == 0


class TestSynthesis:
    def test_u_b_rejects_an_inadmissible_d(self):
        # planted 2|2 at capacity 1: multiplicities 2, 2, so d = 2 fails
        ch = generate_planted(2, 2, 1, seed=3).channel
        w, v = linalg.hermitian_eig(reduced_density(ch, "bob"))
        clusters = linalg.cluster_spectrum(w, 1e-9)
        assert synthesize_u_b(ch, clusters, v, 1)[0].shape == (4, 4)
        for d in (-1, 2):
            with pytest.raises(ValueError, match="d is not admissible for this spectrum"):
                synthesize_u_b(ch, clusters, v, d)

    def test_u_b_factors_bell_stack(self):
        for n in (1, 2):
            ch = n_bell_channel(n)
            w, v = linalg.hermitian_eig(reduced_density(ch, "bob"))
            clusters = linalg.cluster_spectrum(w, 1e-9)
            u_b, eta = synthesize_u_b(ch, clusters, v, n)
            assert eta is None                      # whole side is Bell halves
            assert verify_condition(ch, u_b, n)

    @pytest.mark.parametrize("m,n,d", [(3, 3, 1), (2, 4, 1), (5, 2, 1)])
    def test_u_b_is_v_dagger_of_the_one_eigh(self, m, n, d):
        ch = generate_planted(m, n, d, seed=7).channel
        oriented = ch.swapped() if m < n else ch
        w, v = linalg.hermitian_eig(reduced_density(oriented, "bob"))
        u_b, eta = synthesize_u_b(oriented, linalg.cluster_spectrum(w, 1e-9), v, d)
        assert np.array_equal(u_b, v.conj().T)
        with pytest.raises(ValueError, match="2\\*\\*n x 2\\*\\*n"):
            synthesize_u_b(oriented, linalg.cluster_spectrum(w, 1e-9), v[:, :-1], d)
        rep = analyze(ch)
        assert np.array_equal(rep.u_a if rep.swapped else rep.u_b, u_b)
        assert np.array_equal(rep.eta, eta)

    def test_eta_shape_and_trace(self):
        p = generate_planted(3, 3, 1, seed=5)
        rep = analyze(p.channel)
        assert rep.eta is not None
        assert rep.eta.shape == (4, 4)
        assert abs(np.trace(rep.eta).real - 1.0) < 1e-9
        diag = np.diag(rep.eta).real
        assert np.all(np.diff(diag) <= 1e-12)
        off = rep.eta - np.diag(diag)
        assert np.max(np.abs(off)) < 1e-12

    def test_entropy_decomposes_as_residual_plus_capacity(self):
        p = generate_planted(3, 3, 1, seed=6)
        rep = analyze(p.channel)
        h_eta = entropy_bits_direct(np.diag(rep.eta).real)
        assert rep.entropy_bits == pytest.approx(h_eta + rep.capacity, abs=1e-9)

    def test_u_a_identity_for_prealigned_channel(self):
        ch = singlet_with_spectator()
        rep = analyze(ch)
        assert rep.capacity == 1
        # channel already sits in canonical form, so u_a must act as the
        # identity on the support of the state
        src = bipartition_matrix(ch) @ rep.u_b.T
        assert np.max(np.abs(rep.u_a @ src - src)) < 1e-9

    def test_verify_rejects_higher_capacity(self):
        ch = ghz_channel(4, 2)
        rep = analyze(ch)
        assert rep.capacity == 1
        assert verify_condition(ch, rep.u_b, 1)
        assert not verify_condition(ch, rep.u_b, 2)

    def test_verify_d_zero_always_holds(self):
        ch = random_channel(2, 2, seed=9)
        assert verify_condition(ch, np.eye(4), 0)

    def test_verify_rejects_non_unitary(self):
        ch = n_bell_channel(1)
        with pytest.raises(ValueError, match="unitary"):
            verify_condition(ch, np.ones((2, 2)), 1)

    def test_d_is_capped_by_the_smaller_party(self):
        # a 1|2 channel: eps = 0.3 is loose enough for its receiver density
        # to pass a d = 2 test, but the sender has no room for two Bell halves
        ch = generate_planted(1, 2, 1, seed=3).channel
        u_b = analyze(ch).u_b
        assert verify_condition(ch, u_b, 1, eps=0.3)
        message = r"d = 2 outside 0\.\.min\(m, n\) = 0\.\.min\(1, 2\)"
        for call in (verify_condition, synthesize_u_a):
            with pytest.raises(ValueError, match=message):
                call(ch, u_b, 2, 0.3)

    def test_u_a_requires_valid_condition(self):
        ch = ghz_channel(4, 2)
        rep = analyze(ch)
        with pytest.raises(ValueError, match="condition"):
            synthesize_u_a(ch, rep.u_b, 2)


def schmidt_channel(m: int, n: int, weights, seed: int) -> ChannelState:
    """m|n channel with the given Schmidt weights behind random local
    unitaries."""
    rng = np.random.default_rng(seed)

    def frame(dim):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.linalg.qr(z)[0]

    k = len(weights)
    mat = frame(1 << m)[:, :k] @ np.diag(np.sqrt(weights)) @ frame(1 << n)[:, :k].T
    return ChannelState(PureState(mat.reshape(-1) / np.linalg.norm(mat)),
                        tuple(range(m)), tuple(range(m, m + n)))


# rank 3 of 4.  Before normalizing: a pair 4e-10 apart clusters at both
# eps, a pair 3e-9 apart only at 1e-6, and a 5e-10 weight joins the zeros.
RANK_DEFICIENT = [0.4, 0.4, 0.2]
NEAR_DEGENERATE = [0.25, 0.25 - 4e-10, 0.2, 0.2 - 3e-9, 0.1, 0.1, 0.1 - 3e-9 + 4e-10, 5e-10]


class TestCertify:
    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    @pytest.mark.parametrize("case", [
        ("planted", 1, 8, 1), ("planted", 8, 1, 1), ("planted", 2, 7, 1), ("planted", 7, 2, 2),
        ("planted", 3, 6, 2), ("planted", 6, 3, 0), ("planted", 4, 5, 2), ("planted", 5, 4, 3),
        ("planted", 3, 3, 1), ("rank", 2, 5, RANK_DEFICIENT), ("rank", 5, 2, RANK_DEFICIENT),
        ("near", 3, 6, NEAR_DEGENERATE), ("near", 6, 3, NEAR_DEGENERATE),
    ], ids=lambda c: f"{c[0]}-{c[1]}x{c[2]}")
    def test_receiver_clusters_match_its_own_density(self, case, eps):
        kind, m, n, arg = case
        if kind == "planted":
            ch = generate_planted(m, n, arg, seed=10 * m + n).channel
        else:
            ch = schmidt_channel(m, n, np.asarray(arg) / np.sum(arg), seed=m + n)
        want = receiver_clusters(ch, eps)
        top = min(min(two_adic_division(k) for _, k in want), m, n)
        for d in range(min(m, n) + 2):
            clusters, holds = certify(ch, d, eps)
            assert [c.multiplicity for c in clusters] == [k for _, k in want]
            values = [c.value for c in clusters]
            assert np.max(np.abs(np.subtract(values, [v for v, _ in want]))) < 1e-12
            assert holds is (True if d <= top else None)


class TestAnalyze:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_single_bell_any_flavour(self, k):
        ch = ChannelState(bell_state(k), (0,), (1,))
        rep = analyze(ch)
        assert rep.capacity == 1
        assert rep.entropy_bits == pytest.approx(1.0)
        assert rep.pairs == ((0, 1),)
        assert rep.eta is None
        out = apply_unitary(apply_unitary(ch.state, rep.u_a, ch.alice),
                            rep.u_b, ch.bob)
        assert fidelity(out, bell_state(1)) > 1 - 1e-12

    def test_product_state_capacity_zero(self):
        ch = ChannelState(tensor([random_pure_state(2, 7), random_pure_state(1, 8)]),
                          (0, 1), (2,))
        rep = analyze(ch)
        assert rep.capacity == 0
        assert rep.entropy_bits < 1e-9
        assert rep.pairs == ()

    def test_certificate_failure_raises(self):
        # at eps = 1e-18 the 4-pair stack's spectrum stays one 16-fold
        # cluster, but rho - I/16 is off by about 4e-17 in max norm, so the
        # certificate fails at the capacity the spectrum admits
        ch = n_bell_channel(4)
        clusters, holds = certify(ch, 4, 1e-18)
        assert [c.multiplicity for c in clusters] == [16] and holds is False
        with pytest.raises(ArithmeticError,
                           match="^factorization condition failed after synthesis$"):
            analyze(ch, 1e-18)

    def test_w_state_blocked_despite_entanglement(self):
        v = np.zeros(8, dtype=complex)
        v[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
        ch = ChannelState(PureState(v), (0, 1), (2,))
        rep = analyze(ch)
        assert rep.entropy_bits > 0.9
        assert rep.capacity == 0

    def test_matches_spectral_oracle_on_random_states(self):
        for seed in range(40):
            m = 1 + seed % 3
            n = 1 + (seed // 3) % 3
            ch = random_channel(m, n, seed)
            assert analyze(ch).capacity == spectral_capacity(ch)

    def test_matches_spectral_oracle_on_planted(self):
        grid = [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 2), (3, 3, 3), (4, 2, 2)]
        for seed, (m, n, d) in enumerate(grid):
            ch = generate_planted(m, n, d, seed).channel
            rep = analyze(ch)
            assert rep.capacity == d
            assert spectral_capacity(ch) == d

    def test_canonical_state_reached(self):
        for seed, (m, n, d) in enumerate([(2, 2, 1), (3, 2, 2), (2, 3, 1), (3, 3, 2)]):
            ch = generate_planted(m, n, d, seed + 50).channel
            rep = analyze(ch)
            out = apply_unitary(apply_unitary(ch.state, rep.u_a, ch.alice),
                                rep.u_b, ch.bob)
            assert fidelity(out, canonical_state(ch, rep)) > 1 - 1e-10

    def test_swapped_orientation(self):
        p = generate_planted(1, 3, 1, seed=12)
        rep = analyze(p.channel)
        assert rep.swapped
        assert rep.capacity == 1
        assert rep.pairs == ((0, 3),)
        assert rep.bob_relabeling == (2, 0, 1)
        assert verify_condition(p.channel, rep.u_b, 1)

    def test_pairs_and_relabeling_layout(self):
        p = generate_planted(3, 2, 2, seed=13)
        rep = analyze(p.channel)
        assert not rep.swapped
        assert rep.pairs == ((0, 3), (1, 4))
        assert rep.bob_relabeling == (0, 1)

    @pytest.mark.parametrize("m,n,d", [(3, 2, 2), (4, 2, 1), (5, 3, 3), (2, 4, 2),
                                       (1, 3, 1), (3, 5, 2)])
    def test_pairs_follow_relabeling(self, m, n, d):
        ch = generate_planted(m, n, d, seed=40 + m).channel
        rep = analyze(ch)
        assert rep.swapped == (m < n) and rep.capacity == d
        assert [b for _, b in rep.pairs] == [ch.bob[i] for i in rep.bob_relabeling[:d]]

    def test_unitaries_act_locally(self):
        p = generate_planted(2, 2, 1, seed=14)
        rep = analyze(p.channel)
        assert rep.u_a.shape == (4, 4) and rep.u_b.shape == (4, 4)
        assert linalg.is_unitary(rep.u_a) and linalg.is_unitary(rep.u_b)

    def test_capacity_bounded_by_entropy(self):
        for seed in range(12):
            ch = random_channel(2, 2, seed + 100)
            rep = analyze(ch)
            assert rep.capacity <= rep.entropy_bits + 1e-9

    def test_scrambled_labels(self):
        # qubit lists need not be sorted or contiguous
        p = generate_planted(2, 2, 1, seed=15)
        shuffled = ChannelState(p.channel.state, (3, 0), (1, 2))
        rep = analyze(shuffled)
        assert verify_condition(shuffled, rep.u_b, rep.capacity)

    def test_eps_widening_merges_clusters(self):
        # two slightly split halves merge into one degenerate pair at loose eps
        v = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        ch = ChannelState(PureState(v), (0,), (1,))
        assert analyze(ch, eps=1e-9).capacity == 0
        loose = analyze(ch, eps=0.5)
        assert loose.capacity == 1

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError, match="eps"):
            analyze(n_bell_channel(1), eps=0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 1.0, 1e300, -1.0])
    def test_rejects_eps_outside_unit_interval(self, eps):
        # eps >= 1 admits every trace-one density, and nan compares false
        # everywhere; both used to pass the positivity check
        ch = generate_planted(2, 2, 1, seed=3).channel
        rep = analyze(ch)
        with pytest.raises(ValueError, match="eps"):
            analyze(ch, eps)
        for d in (1, 2):
            with pytest.raises(ValueError, match="eps"):
                certify(ch, d, eps)
        with pytest.raises(ValueError, match="eps"):
            verify_condition(ch, rep.u_b, 1, eps)
        with pytest.raises(ValueError, match="eps"):
            linalg.cluster_spectrum([0.5, 0.5], eps)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_verify_always_passes_at_reported_capacity(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, min(m, n) + 1))
        ch = generate_planted(m, n, d, seed).channel
        rep = analyze(ch)
        assert rep.capacity == d
        assert verify_condition(ch, rep.u_b, rep.capacity)

    def test_completeness_certificate(self):
        # at capacity + 1 some cluster multiplicity must break divisibility
        for seed in range(20):
            ch = random_channel(2, 2, seed + 300)
            rep = analyze(ch)
            if rep.capacity >= 2:
                continue
            block = 1 << (rep.capacity + 1)
            assert any(c.multiplicity % block for c in rep.clusters)

    def test_arrays_holders_compare_by_identity(self):
        # states, channels, planted channels and reports hold arrays, so
        # == is identity and hash the object's, never an elementwise test
        planted = generate_planted(2, 2, 1, seed=3)
        ch = planted.channel
        rep = analyze(ch)
        for a, b in [(bell_state(1), bell_state(1)), (ch, ch.swapped().swapped()),
                     (planted, generate_planted(2, 2, 1, seed=3)), (rep, analyze(ch))]:
            assert a == a and a != b
            assert len({a, b, a}) == 2 and hash(a) == hash(a)
        assert rep.clusters == analyze(ch).clusters  # spectra still compare by value


class TestGhzFamily:
    def test_every_bipartition_of_six(self):
        n = 6
        for r in range(1, n):
            for alice in itertools.combinations(range(n), r):
                bob = tuple(q for q in range(n) if q not in alice)
                ch = ChannelState(ghz_state(n), alice, bob)
                rep = analyze(ch)
                assert rep.capacity == 1
                assert rep.entropy_bits == pytest.approx(1.0, abs=1e-10)
                assert verify_condition(ch, rep.u_b, 1)
