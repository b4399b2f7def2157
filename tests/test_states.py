import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import basis_state, embed_operator
from telecap.states import (
    ChannelState,
    PureState,
    apply_unitary,
    bell_state,
    fidelity,
    ghz_state,
    project_and_collapse,
    random_pure_state,
    tensor,
)

S = 1.0 / np.sqrt(2.0)


class TestConstruction:
    def test_bell_amplitudes_frozen(self):
        assert np.allclose(bell_state(1).amplitudes, [0, S, -S, 0])
        assert np.allclose(bell_state(2).amplitudes, [0, S, S, 0])
        assert np.allclose(bell_state(3).amplitudes, [S, 0, 0, -S])
        assert np.allclose(bell_state(4).amplitudes, [S, 0, 0, S])

    def test_bell_orthonormal(self):
        mat = np.column_stack([bell_state(k).amplitudes for k in (1, 2, 3, 4)])
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-15

    def test_ghz(self):
        v = ghz_state(3).amplitudes
        assert abs(v[0] - S) < 1e-15 and abs(v[7] - S) < 1e-15
        assert np.all(v[1:7] == 0)

    def test_family_guards(self):
        with pytest.raises(ValueError, match="^Bell index must be 1..4$"):
            bell_state(5)
        with pytest.raises(ValueError, match="^ghz_state needs 2..16 qubits$"):
            ghz_state(1)
        with pytest.raises(ValueError, match="^need 1..16 qubits$"):
            random_pure_state(0, 0)

    def test_norm_guard(self):
        with pytest.raises(ValueError, match="unit norm"):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_guard(self, bad):
        with pytest.raises(ValueError, match="^amplitudes contain non-finite entries$"):
            PureState(np.array([bad, 1.0]))

    def test_size_guards(self):
        with pytest.raises(ValueError, match="2\\*\\*n"):
            PureState(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="capped"):
            PureState(np.zeros(1 << 17))

    def test_amplitudes_frozen(self):
        st_ = bell_state(1)
        with pytest.raises(ValueError):
            st_.amplitudes[0] = 1.0

    def test_channel_partition_guards(self):
        ghz = ghz_state(3)
        with pytest.raises(ValueError, match="cover"):
            ChannelState(ghz, (0,), (1,))
        with pytest.raises(ValueError, match="cover"):
            ChannelState(ghz, (0, 1), (1, 2))
        with pytest.raises(ValueError, match="at least one"):
            ChannelState(ghz, (), (0, 1, 2))

    def test_channel_swap(self):
        ch = ChannelState(ghz_state(3), (2,), (0, 1))
        sw = ch.swapped()
        assert sw.alice == (0, 1) and sw.bob == (2,)


class TestApplyUnitary:
    @pytest.mark.parametrize("targets", [[0], [2], [0, 1], [2, 0], [1, 3], [3, 1, 0]])
    def test_matches_embedding_oracle(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0])
        k = len(targets)
        z = rng.standard_normal((1 << k, 1 << k)) + 1j * rng.standard_normal((1 << k, 1 << k))
        u, _ = np.linalg.qr(z)
        psi = random_pure_state(4, 99)
        got = apply_unitary(psi, u, targets).amplitudes
        want = embed_operator(u, targets, 4) @ psi.amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    def test_target_order_matters(self):
        # CNOT with control on targets[0]: swapping the target list swaps roles
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        psi = basis_state((1, 0))
        assert np.allclose(apply_unitary(psi, cnot, [0, 1]).amplitudes,
                           basis_state((1, 1)).amplitudes)
        assert np.allclose(apply_unitary(psi, cnot, [1, 0]).amplitudes,
                           basis_state((1, 0)).amplitudes)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(bell_state(1), np.ones((2, 2)), [0])

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            apply_unitary(bell_state(1), np.eye(2), [2])
        with pytest.raises(ValueError):
            apply_unitary(bell_state(1), np.eye(4), [0, 0])

    def test_rejects_operator_of_another_size(self):
        with pytest.raises(ValueError, match="^operator dimension does not match target count$"):
            apply_unitary(bell_state(1), np.eye(4), [0])


class TestPermuteAndTensor:
    def test_tensor_is_kron(self):
        # one product per entry, so equal to kron bit for bit
        for sizes in [(1, 2), (1, 1), (8, 8), (1, 8), (8, 1), (3, 5),
                      (1, 1, 1), (1, 2, 3), (8, 1, 7), (2, 8, 6), (5, 5, 5)]:
            factors = [random_pure_state(n, seed=10 * i + n) for i, n in enumerate(sizes)]
            want = factors[0].amplitudes
            for f in factors[1:]:
                want = np.kron(want, f.amplitudes)
            assert np.array_equal(tensor(factors).amplitudes, want), sizes

    def test_tensor_at_the_norm_edge(self):
        # each factor is 0.9e-9 over unit norm, which PureState accepts;
        # their product, 1.8e-9 over, is renormalized
        grow = 1 + 0.9e-9
        payload = PureState(random_pure_state(1, 3).amplitudes * grow)
        singlet = PureState(bell_state(1).amplitudes * grow)
        got = tensor([payload, singlet]).amplitudes
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-15
        want = np.kron(payload.amplitudes, singlet.amplitudes) / grow ** 2
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_tensor_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            tensor([random_pure_state(9, 0), random_pure_state(8, 1)])

    def test_tensor_of_nothing(self):
        with pytest.raises(ValueError, match="^tensor needs at least one state$"):
            tensor([])


class TestProjection:
    def test_probabilities_sum_to_one(self):
        psi = random_pure_state(3, 17)
        basis = [bell_state(k) for k in (1, 2, 3, 4)]
        probs = [project_and_collapse(psi, (0, 2), basis, r)[0] for r in range(4)]
        assert abs(sum(probs) - 1.0) < 1e-12

    def test_collapse_is_normalized_and_consistent(self):
        psi = random_pure_state(3, 18)
        basis = [bell_state(k) for k in (1, 2, 3, 4)]
        p, out = project_and_collapse(psi, (1, 2), basis, 2)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
        # measured qubits really are in bell 3 afterwards
        p2, out2 = project_and_collapse(out, (1, 2), basis, 2)
        assert abs(p2 - 1.0) < 1e-12
        assert fidelity(out, out2) > 1 - 1e-12

    def test_unreachable_outcome_collapses_to_none(self):
        psi = basis_state((0, 0))
        basis = [bell_state(k) for k in (1, 2, 3, 4)]
        p, out = project_and_collapse(psi, (0, 1), basis, 0)
        assert p < 1e-12 and out is None

    def test_rejects_skew_basis(self):
        skew = [basis_state((0,)), PureState(np.array([S, S]))]
        with pytest.raises(ValueError, match="orthonormal"):
            project_and_collapse(bell_state(1), (0,), skew, 0)

    def test_rejects_basis_of_another_size(self):
        basis = [bell_state(k) for k in (1, 2, 3, 4)]
        with pytest.raises(ValueError, match="^basis states do not match target count$"):
            project_and_collapse(random_pure_state(3, 5), (0,), basis, 0)

    def test_rejects_outcome_outside_basis(self):
        basis = [bell_state(k) for k in (1, 2, 3, 4)]
        with pytest.raises(ValueError, match="^outcome index outside basis$"):
            project_and_collapse(random_pure_state(3, 5), (0, 1), basis, 4)


class TestFidelity:
    def test_phase_invariant(self):
        psi = random_pure_state(2, 4)
        rotated = PureState(np.exp(0.7j) * psi.amplitudes)
        assert abs(fidelity(psi, rotated) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert fidelity(basis_state((0,)), basis_state((1,))) == 0.0

    def test_rejects_states_of_another_size(self):
        with pytest.raises(ValueError, match="^states differ in qubit count$"):
            fidelity(basis_state((0,)), bell_state(1))

    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_random_states_normalized(self, seed, n):
        psi = random_pure_state(n, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        assert psi.n_qubits == n

    def test_random_states_deterministic(self):
        a = random_pure_state(3, 42)
        b = random_pure_state(3, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)
