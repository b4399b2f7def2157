"""Reference channels and generators used by the experiments and tests.

Three families matter:

* stacks of Bell pairs, the exactly canonical channels;
* GHZ states under arbitrary bipartitions, the classic capacity-one family
  whose canonicalizing unitaries are plain CNOT chains, which permute
  basis indices, so both chains come as one index permutation and never
  as a dense operator;
* planted channels: a Bell stack times a generic residual, scrambled by
  local Haar unitaries so nothing about the construction is visible in the
  amplitudes, while the capacity stays exactly the planted d.

A local Haar unitary never has to be formed to scramble a channel.  Write
the 2**m x 2**n amplitude matrix as M = Q R, a reduced QR with Q of shape
2**m x k, k = min(2**m, 2**n).  For Haar U_a the isometry U_a Q is Haar on
the 2**m x k isometries whatever the fixed Q, and so is the phase-fixed QR
factor V of a 2**m x k complex Gaussian (Mezzadri, "How to generate random
matrices from the classical compact groups", Notices AMS 2007).  So V R has
exactly the law of U_a M, at O(2**m k**2) cost instead of O(8**m); the
receiver's side is the same step on the transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import _check_budget
from .linalg import DEFAULT_EPS, UNITARY_TOL, _check_eps, _unitarity_defect
from .states import MAX_QUBITS, ChannelState, PureState, bell_state, ghz_state, random_pure_state

__all__ = [
    "haar_unitary",
    "n_bell_channel",
    "ghz_channel",
    "ghz_cnot_chain",
    "ghz_canonical_form",
    "random_channel",
    "PlantedChannel",
    "generate_planted",
]


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix; a
    dim x dim matrix above DENSE_BUDGET_BYTES is refused before any draw."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    _check_budget(dim * dim * np.dtype(np.complex128).itemsize, f"a {dim} x {dim} unitary")
    return _haar_isometry(np.random.default_rng(seed), dim, dim)


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed rows x cols isometry (cols <= rows): the first cols
    columns of a Haar unitary.

    QR of a complex Gaussian matrix, with the R factor's diagonal phases
    absorbed into Q, which removes the QR gauge and makes the distribution
    exactly Haar.
    """
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _scramble_rows(mat: np.ndarray, seed) -> np.ndarray:
    """U mat for a Haar unitary U on the row space, in law, without forming
    U: the reduced QR mat = Q R with Q's columns swapped for a Haar
    isometry V of the same shape, whose k x k Gram matrix is checked."""
    q, r = np.linalg.qr(mat)
    v = _haar_isometry(np.random.default_rng(seed), *q.shape)
    if _unitarity_defect(v) > UNITARY_TOL:
        raise ArithmeticError("drawn isometry is not orthonormal within 1e-9")
    return v @ r


def _singlets(d: int) -> np.ndarray:
    """The (2**d x 2**d) amplitude matrix of d singlets, pair i joining
    sender qubit i to receiver qubit i: the Kronecker power of the
    singlet's 2 x 2 matrix, each factor taken as one broadcast product
    (np.kron's own overhead would double n_bell_channel's cost)."""
    s = bell_state(1).amplitudes.reshape(2, 2)
    out = np.ones((1, 1), dtype=complex)
    for _ in range(d):
        out = (out[:, None, :, None] * s[None, :, None, :]).reshape(2 * len(out), -1)
    return out


def n_bell_channel(n: int) -> ChannelState:
    """n Bell pairs; pair i joins sender qubit i to receiver qubit n + i."""
    if not 1 <= n <= MAX_QUBITS // 2:
        raise ValueError(f"need 1..{MAX_QUBITS // 2} pairs")
    state = PureState(_singlets(n).reshape(-1))
    return ChannelState(state, tuple(range(n)), tuple(range(n, 2 * n)))


def ghz_channel(n: int, m: int) -> ChannelState:
    """GHZ state of n qubits, the first m held by the sender."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    return ChannelState(ghz_state(n), tuple(range(m)), tuple(range(m, n)))


def ghz_cnot_chain(n: int, m: int) -> np.ndarray:
    """Local CNOT chains carrying the m|n-m GHZ split to a Bell pair, as
    one basis-index permutation perm of length 2**n.

    The sender's CNOTs have control qubit 0 and targets 1..m-1; the
    receiver's have control n-1 and targets m..n-2.  Together they leave
    (|00> + |11>)/sqrt(2) between qubits 0 and n-1 with |0> everywhere
    else.  Every CNOT in a chain shares a control that none of them
    targets, so perm flips the target bits of x exactly when x's control
    bit is set, perm[perm] is the identity (perm is an involution), and
    the chained state is amplitudes[perm], at O(2**n) cost.
    """
    if not 1 <= m < n <= MAX_QUBITS:
        raise ValueError(f"need 1 <= m < n <= {MAX_QUBITS}")
    idx = np.arange(1 << n)
    mask_a = (1 << (n - 1)) - (1 << (n - m))  # qubits 1..m-1
    mask_b = (1 << (n - m)) - 2  # qubits m..n-2
    return idx ^ ((idx >> (n - 1)) * mask_a) ^ ((idx & 1) * mask_b)


def ghz_canonical_form(n: int) -> PureState:
    """(|00> + |11>)/sqrt(2) between qubits 0 and n-1, |0> in between."""
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[(1 << (n - 1)) + 1] = 1.0 / np.sqrt(2.0)
    return PureState(v)


def random_channel(m: int, n: int, seed) -> ChannelState:
    """Haar-random pure state split m | n in label order."""
    state = random_pure_state(m + n, seed)
    return ChannelState(state, tuple(range(m)), tuple(range(m, m + n)))


@dataclass(frozen=True, eq=False)
class PlantedChannel:
    """A scrambled channel with known ground truth.

    reference is the pre-scramble state: d singlets on (sender qubit i,
    receiver qubit m + i) times the residual factor on the leftover qubits.
    The scrambling is local, so capacity and entropy match the reference.
    """

    channel: ChannelState
    capacity: int
    seed: int
    reference: PureState


def generate_planted(m: int, n: int, d: int, seed: int,
                     eps: float = DEFAULT_EPS) -> PlantedChannel:
    """Channel of known capacity d: Bell stack times generic residual,
    hidden behind independent Haar unitaries on each side.

    Each side's unitary is drawn only as a Haar isometry on the reference's
    support (see the module docstring).  The channel has the law of
    (U_a x U_b) reference, at O(2**max(m, n) 4**min(m, n)) cost.

    The residual is redrawn until its receiver-side spectrum is simple with
    gaps above 10 * eps * 2**d and no weight within that margin of zero, so
    clustering at eps recovers multiplicities of exactly 2**d and analysis
    must report exactly d.
    """
    if not (1 <= m <= MAX_QUBITS and 1 <= n <= MAX_QUBITS and m + n <= MAX_QUBITS):
        raise ValueError("party sizes must be positive with at most 16 qubits total")
    if not 0 <= d <= min(m, n):
        raise ValueError("planted capacity must lie in 0..min(m, n)")
    _check_eps(eps)
    root = np.random.SeedSequence(seed)
    residual_seq, scramble_a, scramble_b = root.spawn(3)

    ra, rb = m - d, n - d
    mat = _singlets(d)
    if ra + rb:
        mat = np.kron(mat, _gapped_residual(ra, rb, d, eps, residual_seq))
    reference = PureState(mat.reshape(-1))

    mat = _scramble_rows(mat, scramble_a)
    mat = _scramble_rows(mat.T, scramble_b).T
    channel = ChannelState(PureState(mat.reshape(-1)), range(m), range(m, m + n))
    return PlantedChannel(channel, d, seed, reference)


def _gapped_residual(ra: int, rb: int, d: int, eps: float, seq) -> np.ndarray:
    """The residual factor's (2**ra x 2**rb) amplitude matrix, with an
    eps-simple receiver-side spectrum.

    Up to 256 candidates are drawn, each from seq's next child, and the
    first is kept whose descending Schmidt weights have every gap and the
    smallest weight above the margin.  When either side is empty the
    residual is the other side's |0...0>, which needs no gap condition: it
    contributes a single weight-one value.
    """
    if ra == 0 or rb == 0:
        return np.eye(1 << ra, 1 << rb)
    margin = 10.0 * eps * (1 << d)
    for _ in range(256):
        candidate = random_pure_state(ra + rb, seq.spawn(1)[0]).amplitudes.reshape(1 << ra, -1)
        p = np.linalg.svd(candidate, compute_uv=False) ** 2
        if np.min(np.append(-np.diff(p), p[-1])) > margin:
            return candidate
    raise ArithmeticError("could not draw a gapped residual spectrum")
