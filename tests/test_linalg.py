import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import phase_fixed_eigh
from telecap import linalg


def random_density(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dim = 1 << n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestHermitianEig:
    def test_descending_and_reconstructs(self):
        h = random_density(3, 11)
        w, v = linalg.hermitian_eig(h)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-12
        assert linalg.is_unitary(v)

    def test_phase_convention(self):
        h = random_density(3, 12)
        _, v = linalg.hermitian_eig(h)
        for k in range(v.shape[1]):
            lead = v[np.flatnonzero(np.abs(v[:, k]) > 1e-12)[0], k]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_deterministic(self):
        h = random_density(2, 13)
        w1, v1 = linalg.hermitian_eig(h)
        w2, v2 = linalg.hermitian_eig(h.copy())
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)

    @pytest.mark.parametrize("dim,seed", [(2, 1), (3, 2), (5, 3), (16, 4), (64, 5), (256, 6)])
    def test_matches_loop_oracle(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self.assert_matches_oracle(a + a.conj().T)

    def test_matches_loop_oracle_with_zero_leading_components(self):
        # block diagonal: the second block's eigenvectors are exactly zero on
        # the first block's coordinates, and the diagonal part's are unit vectors
        h = np.zeros((8, 8), dtype=complex)
        h[:3, :3] = random_density(2, 21)[:3, :3]
        h[3:, 3:] = np.diag([0.5, -1.0, 2.0, 0.25, 3.0])
        self.assert_matches_oracle(h)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_matches_loop_oracle_on_degenerate_blocks(self, seed):
        # every eigenvalue four times over, as in a factored receiver density
        self.assert_matches_oracle(np.kron(random_density(3, seed), np.eye(4)))

    @staticmethod
    def assert_matches_oracle(h):
        w, v = linalg.hermitian_eig(h)
        w_ref, v_ref = phase_fixed_eigh(h)
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


class TestClusterSpectrum:
    def test_hand_case(self):
        s = linalg.cluster_spectrum([0.5, 0.5, 0.25, 0.25], eps=1e-9)
        assert [c.multiplicity for c in s] == [2, 2]
        assert [c.value for c in s] == [0.5, 0.25]
        assert sum(c.multiplicity for c in s) == 4

    def test_eps_boundary(self):
        w = [0.5, 0.5 - 1e-10, 0.25]
        s = linalg.cluster_spectrum(w, eps=1e-9)
        assert [c.multiplicity for c in s] == [2, 1]
        s = linalg.cluster_spectrum(w, eps=1e-11)
        assert [c.multiplicity for c in s] == [1, 1, 1]

    def test_chained_drift_splits_on_anchor(self):
        # each neighbour is within eps of the last, but only membership
        # against the anchor counts
        w = [0.5, 0.5 - 0.8e-9, 0.5 - 1.6e-9]
        s = linalg.cluster_spectrum(w, eps=1e-9)
        assert [c.multiplicity for c in s] == [2, 1]

    @pytest.mark.parametrize("w", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]])
    def test_rejects_non_finite(self, w):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.cluster_spectrum(w)

    def test_rejects_ascending(self):
        with pytest.raises(ValueError, match="descending"):
            linalg.cluster_spectrum([0.1, 0.9])

    @settings(max_examples=50)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32),
           st.floats(1e-12, 1e-2))
    def test_multiplicities_cover_dimension(self, values, eps):
        w = np.sort(np.asarray(values))[::-1]
        s = linalg.cluster_spectrum(w, eps)
        assert sum(c.multiplicity for c in s) == w.size
        assert all(c.multiplicity >= 1 for c in s)
        # consecutive anchors must be separated by more than eps
        anchors = [c.value for c in s]
        assert all(a - b > eps for a, b in zip(anchors, anchors[1:]))


class TestGuards:
    def test_is_unitary(self):
        assert linalg.is_unitary(np.eye(4))
        assert not linalg.is_unitary(np.eye(4) * 1.0001)

    def test_unitarity_defect(self, monkeypatch):
        # one measure for square matrices and column sets, compared with UNITARY_TOL
        u = np.eye(3) * 1.0001
        defect = linalg._unitarity_defect(u)
        assert type(defect) is float and defect == pytest.approx(2.0001e-4, rel=1e-12)
        monkeypatch.setattr(linalg, "UNITARY_TOL", defect)
        assert linalg.is_unitary(u) is True
        monkeypatch.setattr(linalg, "UNITARY_TOL", float(np.nextafter(defect, 0)))
        assert linalg.is_unitary(u) is False
        cols = np.linalg.qr(random_density(3, 13))[0][:, :3]
        assert linalg._unitarity_defect(cols) < 1e-14
        assert linalg._unitarity_defect(2.0 * cols) == pytest.approx(3.0, abs=1e-14)
