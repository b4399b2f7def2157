"""Multi-qubit pure states with explicit big-endian qubit labels.

Qubit 0 is the most significant bit of a basis index: |q0 q1 ... q_{n-1}>
sits at index sum_q bit_q * 2**(n-1-q).  Every routine in the package,
including the file format, sticks to this convention.  _grouped and
_ungrouped are the only place where a list of qubits becomes matrix axes:
every routine that acts on some qubits reads the amplitudes as a matrix
whose rows run over those qubits, and maps the result back through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import ABSENT_WEIGHT, NORM_TOL, UNITARY_TOL, _unitarity_defect

__all__ = [
    "MAX_QUBITS",
    "PureState",
    "ChannelState",
    "bell_state",
    "ghz_state",
    "apply_unitary",
    "tensor",
    "project_and_collapse",
    "fidelity",
    "random_pure_state",
]

MAX_QUBITS = 16


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _grouped(psi: np.ndarray, first, labels=None) -> np.ndarray:
    """Amplitudes psi (2**n of them) as a (2**len(first), -1) matrix: rows
    run over the listed qubits in list order, columns over the others in
    ascending order.

    psi's axes, read big-endian, hold the qubits listed in labels (by
    default 0 .. n-1 in order), so an array built in another order needs
    no PureState first.
    """
    n = psi.size.bit_length() - 1
    rest = sorted(set(range(n)).difference(first))
    order = [*first, *rest]
    if labels is not None:
        order = np.argsort(labels)[order]
    return psi.reshape((2,) * n).transpose(order).reshape(1 << len(first), -1)


def _ungrouped(mat: np.ndarray, first) -> PureState:
    """The state whose _grouped(state.amplitudes, first) is mat (any shape
    of that size)."""
    n = mat.size.bit_length() - 1
    rest = sorted(set(range(n)).difference(first))
    return PureState(mat.reshape((2,) * n).transpose(np.argsort([*first, *rest])).reshape(-1))


def _check_unit(v: np.ndarray) -> None:
    """Raise unless amplitudes v pass the checks every PureState makes:
    finite entries, unit norm within NORM_TOL."""
    if not np.isfinite(v).all():
        raise ValueError("amplitudes contain non-finite entries")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError("state is not unit norm within 1e-9")


def _check_targets(targets, n: int) -> list[int]:
    """targets as ints: distinct, non-empty and within the n qubits."""
    targets = [int(q) for q in targets]
    if len(set(targets)) != len(targets) or not targets:
        raise ValueError("targets must be distinct and non-empty")
    if min(targets) < 0 or max(targets) >= n:
        raise ValueError("target qubit outside range")
    return targets


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector over 2**n_qubits big-endian amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        n = v.size.bit_length() - 1
        if v.size < 2 or v.size != 1 << n:
            raise ValueError("amplitude count must be 2**n for n >= 1")
        if n > MAX_QUBITS:
            raise ValueError(f"states are capped at {MAX_QUBITS} qubits")
        _check_unit(v)
        object.__setattr__(self, "amplitudes", _read_only(v.copy()))

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


@dataclass(frozen=True, eq=False)
class ChannelState:
    """A pure state split between a sending party (alice) and a receiving
    party (bob).

    The two ordered, disjoint qubit lists must cover every qubit of the
    state; the order inside each list fixes how that party's local space is
    enumerated (big-endian over the list).
    """

    state: PureState
    alice: tuple[int, ...]
    bob: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(q) for q in self.alice)
        b = tuple(int(q) for q in self.bob)
        object.__setattr__(self, "alice", a)
        object.__setattr__(self, "bob", b)
        if not a or not b:
            raise ValueError("both parties must hold at least one qubit")
        n = self.state.n_qubits
        if sorted(a + b) != list(range(n)):
            raise ValueError("alice and bob must disjointly cover all qubits")

    def swapped(self) -> "ChannelState":
        """Same state with the party roles exchanged."""
        return ChannelState(self.state, self.bob, self.alice)


_SQRT_HALF = 1.0 / np.sqrt(2.0)
_BELL_AMPLITUDES = {
    1: np.array([0, 1, -1, 0], dtype=complex) * _SQRT_HALF,
    2: np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    3: np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
    4: np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
}


def bell_state(k: int) -> PureState:
    """The four Bell states; k=1 is the singlet (|01> - |10>)/sqrt(2),
    k=2 is (|01> + |10>)/sqrt(2), k=3 is (|00> - |11>)/sqrt(2) and
    k=4 is (|00> + |11>)/sqrt(2)."""
    if k not in _BELL_AMPLITUDES:
        raise ValueError("Bell index must be 1..4")
    return PureState(_BELL_AMPLITUDES[k])


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"ghz_state needs 2..{MAX_QUBITS} qubits")
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = _SQRT_HALF
    return PureState(v)


def apply_unitary(state: PureState, u, targets) -> PureState:
    """Apply a unitary to the listed target qubits.

    The operator's own big-endian qubit order matches the order of targets:
    its most significant qubit acts on targets[0].
    """
    if not linalg.is_unitary(u):
        raise ValueError("operator is not unitary within 1e-9")
    targets = _check_targets(targets, state.n_qubits)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (1 << len(targets),) * 2:
        raise ValueError("operator dimension does not match target count")
    return _ungrouped(u @ _grouped(state.amplitudes, targets), targets)


def tensor(states) -> PureState:
    """Tensor product; qubit labels of each factor shift by a running offset.
    A product whose norm is off by more than NORM_TOL, as factors each
    within it can make, is renormalized; any other keeps its bytes."""
    states = list(states)
    if not states:
        raise ValueError("tensor needs at least one state")
    total = sum(s.n_qubits for s in states)
    if total > MAX_QUBITS:
        raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
    v = states[0].amplitudes
    for s in states[1:]:
        v = np.multiply.outer(v, s.amplitudes).reshape(-1)
    scale = np.prod([np.linalg.norm(s.amplitudes) for s in states])
    if abs(scale - 1.0) > NORM_TOL:
        v = v / scale
    return PureState(v)


def project_and_collapse(state: PureState, targets, basis, outcome: int):
    """Project the target qubits onto one member of an orthonormal basis.

    basis is a sequence of PureStates on len(targets) qubits, orthonormal
    within 1e-9.  Returns (probability, collapsed PureState); the measured
    qubits stay in the measured basis state.  Outcomes with probability
    at or below 1e-12 are unreachable and collapse to None.
    """
    targets = _check_targets(targets, state.n_qubits)
    mat = np.column_stack([b.amplitudes for b in basis])
    if mat.shape[0] != 1 << len(targets):
        raise ValueError("basis states do not match target count")
    if _unitarity_defect(mat) > UNITARY_TOL:
        raise ValueError("projector basis is not orthonormal within 1e-9")
    if not 0 <= outcome < mat.shape[1]:
        raise ValueError("outcome index outside basis")
    b = mat[:, outcome]
    coeffs = b.conj() @ _grouped(state.amplitudes, targets)
    probability = float(np.real(np.vdot(coeffs, coeffs)))
    if probability <= ABSENT_WEIGHT:
        return probability, None
    return probability, _ungrouped(np.outer(b, coeffs / np.sqrt(probability)), targets)


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|**2 for same-size pure states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states differ in qubit count")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def random_pure_state(n: int, seed) -> PureState:
    """Haar-random n-qubit state from normalized complex Gaussians."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} qubits")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return PureState(v / np.linalg.norm(v))
