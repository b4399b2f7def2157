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

from .linalg import DEFAULT_EPS, UNITARY_TOL, _check_eps, _unitarity_defect
from .states import (
    MAX_QUBITS,
    ChannelState,
    PureState,
    basis_state,
    bell_state,
    ghz_state,
    permute_qubits,
    random_pure_state,
    tensor,
)

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
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if not 2 <= dim <= 1 << MAX_QUBITS:
        raise ValueError(f"dimension must be 2..{1 << MAX_QUBITS}")
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


def n_bell_channel(n: int, k: int = 1) -> ChannelState:
    """n Bell pairs; pair i joins sender qubit i to receiver qubit n + i."""
    if not 1 <= n <= MAX_QUBITS // 2:
        raise ValueError(f"need 1..{MAX_QUBITS // 2} pairs")
    state = tensor([bell_state(k)] * n)
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    state = permute_qubits(state, order)
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


@dataclass(frozen=True)
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

    factors = [bell_state(1)] * d
    ra, rb = m - d, n - d
    if ra + rb:
        factors.append(_gapped_residual(ra, rb, d, eps, residual_seq))
    reference = tensor(factors)
    order = tuple(range(0, 2 * d, 2)) + tuple(2 * d + j for j in range(ra)) \
        + tuple(range(1, 2 * d, 2)) + tuple(2 * d + ra + j for j in range(rb))
    reference = permute_qubits(reference, order)

    mat = _scramble_rows(reference.amplitudes.reshape(1 << m, 1 << n), scramble_a)
    mat = _scramble_rows(mat.T, scramble_b).T
    channel = ChannelState(PureState(mat.reshape(-1)), range(m), range(m, m + n))
    return PlantedChannel(channel, d, seed, reference)


def _gapped_residual(ra: int, rb: int, d: int, eps: float, seq) -> PureState:
    """Residual factor whose receiver-side spectrum is eps-simple.

    When either side is empty the residual is the other side's |0...0>,
    which needs no gap condition: it contributes a single weight-one value.
    """
    if ra == 0 or rb == 0:
        return basis_state((0,) * (ra + rb))
    margin = 10.0 * eps * (1 << d)
    for child in seq.spawn(256):
        candidate = random_pure_state(ra + rb, child)
        s = np.linalg.svd(
            candidate.amplitudes.reshape(1 << ra, 1 << rb), compute_uv=False
        )
        p = np.sort(s * s)[::-1]
        if p[-1] <= margin:
            continue
        if p.size > 1 and np.min(-np.diff(p)) <= margin:
            continue
        return candidate
    raise ArithmeticError("could not draw a gapped residual spectrum")
