"""End-to-end teleportation over an analyzed channel, with exact branch
accounting.

Both protocol flavours consume a channel together with its analysis report:
the report first canonicalizes the channel alone, before the payload
joins, turning it into singlet pairs plus a residual factor; then each
payload qubit is pushed through one pair.  The report checks its
unitaries against the channel and applies its purifier in the form
analyze built it, so where that is the identity plus a rank-2r
correction, a teleport neither assembles nor multiplies by the dense
2**m x 2**m matrix.  The Bell flavour measures
(payload qubit, sender half) directly in the Bell basis; the circuit
flavour first applies the standard two-qubit measurement circuit and reads
both qubits in the computational basis.  The two differ only in how the
classical two-bit message is labeled.

Every branch comes from one table.  The joint state is built straight in
the layout the walk needs: one outer product of the payload with the
canonicalized (sender x receiver) matrix, and one copying transpose that
groups it by pair, each pair's (message, sender half, receiver half) axes
side by side; no intermediate state is built.  Per used pair, one batched
matmul with an 8 x 8 operator then turns that triple, where it sits, into
an outcome and the corrected receiver half.  So after k pairs the
unnormalized amplitudes of all 4**k branches sit in an array no larger
than the joint state.  Branch probabilities are the squared norms of its
rows and fidelities their overlaps with the payload; exhaustive mode still
reports all 4**k branches, and sample mode draws each round's outcome from
the table's conditional probabilities.  Each record takes its outcome and
correction tuples from a table indexed by branch number, built once per
run, so records of the same branch share them.  bell_round and
circuit_round read one round off the same walk, run for a single pair of
an arbitrary state.

Outcome index conventions, per pair:

* Bell method: raw outcome r in 0..3 means Bell state r+1 was found, and
  the receiver corrects with operator r+1.
* Circuit method: raw outcome r packs the two measured bits (payload bit
  high), and the receiver corrects with operator 4 - r.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .capacity import AnalysisReport, _check_budget, bipartition_matrix
from .linalg import ABSENT_WEIGHT
from .states import (
    MAX_QUBITS,
    ChannelState,
    PureState,
    _grouped,
    _tensor_grouped,
    _ungrouped,
    basis_state,
    bell_state,
)

__all__ = [
    "CapacityShortfall",
    "BranchOutcome",
    "TeleportResult",
    "correction_operator",
    "circuit_unitary",
    "bell_round",
    "circuit_round",
    "teleport_bell",
    "teleport_circuit",
]


class CapacityShortfall(ValueError):
    """Payload needs more faithful qubits than the channel provides."""


_CORRECTIONS = (
    np.array([[1, 0], [0, 1]], dtype=complex),    # 1: identity
    np.array([[1, 0], [0, -1]], dtype=complex),   # 2: sigma_z
    np.array([[0, -1], [-1, 0]], dtype=complex),  # 3: -sigma_x
    np.array([[0, 1], [-1, 0]], dtype=complex),   # 4: i sigma_y
)
for _c in _CORRECTIONS:
    _c.setflags(write=False)


def correction_operator(i: int) -> np.ndarray:
    """Receiver correction for Bell outcome i in 1..4.

    Each operator squares to a sign, so it undoes itself up to global
    phase; the receiver applies it as-is.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("correction index must be 1..4")
    return _CORRECTIONS[i - 1].copy()


def circuit_unitary() -> np.ndarray:
    """Two-qubit measurement circuit: CNOT (control = second qubit,
    target = first), then H on the second qubit.

    It carries Bell state i to the computational state with index 4 - i,
    with a factor -1 on the singlet branch only; reading both qubits in
    the computational basis is therefore a relabeled Bell measurement.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    cnot = np.zeros((4, 4), dtype=complex)
    for a, b in ((0, 0), (1, 3), (2, 2), (3, 1)):
        cnot[b, a] = 1.0
    return np.kron(np.eye(2, dtype=complex), h) @ cnot


@dataclass(frozen=True)
class _Protocol:
    """How one flavour reads a pair: apply pre_unitary (if any) to
    (message, sender half), project onto basis[r] for raw outcome r, and
    correct the receiver half with operator corrections[r]."""

    basis: tuple[PureState, ...]
    pre_unitary: np.ndarray | None
    corrections: tuple[int, ...]

    @cached_property
    def pair_operator(self) -> np.ndarray:
        """(4, 2, 4, 2) map from (message and sender half, receiver half) to
        (raw outcome, corrected receiver half), unnormalized.

        Row r of the covector matrix reads outcome r off the two measured
        qubits: conj(basis[r]) after pre_unitary.
        """
        covectors = np.array([b.amplitudes for b in self.basis]).conj()
        if self.pre_unitary is not None:
            covectors = covectors @ self.pre_unitary
        fixes = np.array([_CORRECTIONS[c - 1] for c in self.corrections])
        return np.einsum("rx,rcb->rcxb", covectors, fixes)


_PROTOCOLS = {
    "bell": _Protocol(tuple(bell_state(i) for i in (1, 2, 3, 4)), None, (1, 2, 3, 4)),
    "circuit": _Protocol(tuple(basis_state(((r >> 1) & 1, r & 1)) for r in range(4)),
                         circuit_unitary(), (4, 3, 2, 1)),
}


_PAIR_BITS = ("00", "01", "10", "11")


@dataclass(frozen=True)
class BranchOutcome:
    """One classical branch of a protocol run.

    outcomes holds the raw per-pair measurement results (0..3), corrections
    the matching correction indices (1..4); probability is the joint branch
    probability and fidelity compares the receiver's qubits against the
    payload.
    """

    outcomes: tuple[int, ...]
    corrections: tuple[int, ...]
    probability: float
    fidelity: float

    @property
    def bits(self) -> str:
        """Classical message: two bits per pair, in measurement order."""
        return "".join(map(_PAIR_BITS.__getitem__, self.outcomes))


@dataclass(frozen=True)
class TeleportResult:
    method: str
    capacity: int
    payload_qubits: int
    branches: tuple[BranchOutcome, ...]

    @property
    def min_fidelity(self) -> float:
        return min(b.fidelity for b in self.branches)

    @property
    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def bell_round(state: PureState, message_qubit: int, alice_qubit: int,
               bob_qubit: int, outcome: int | None = None, rng=None):
    """One Bell-measurement round: measure (message, sender half) in the
    Bell basis, correct the receiver half.

    outcome forces raw result 0..3; otherwise it is sampled from rng.
    Returns (raw outcome, probability, state after correction); the state
    is None when the forced outcome is unreachable.
    """
    return _round(state, (message_qubit, alice_qubit, bob_qubit), "bell", outcome, rng)


def circuit_round(state: PureState, message_qubit: int, alice_qubit: int,
                  bob_qubit: int, outcome: int | None = None, rng=None):
    """One circuit round: run the measurement circuit on (message, sender
    half), read both in the computational basis, correct the receiver."""
    return _round(state, (message_qubit, alice_qubit, bob_qubit), "circuit", outcome, rng)


def _round(state: PureState, qubits, method: str, outcome, rng):
    """A round on qubits = (message, sender half, receiver half), read off
    that pair's branch table: row norms are the outcome probabilities, and
    the chosen row, normalized, is the corrected rest of the state."""
    triple = [int(q) for q in qubits]
    if len(set(triple)) != 3 or min(triple) < 0 or max(triple) >= state.n_qubits:
        raise ValueError("round qubits must be distinct and within the state")
    table = _branch_table(_grouped(state.amplitudes, triple), _PROTOCOLS[method].pair_operator)
    probs = np.einsum("rjs,rjs->r", table.conj(), table).real
    if outcome is None:
        if rng is None:
            raise ValueError("sampling a round needs an rng")
        outcome = int(rng.choice(4, p=probs / probs.sum()))
    elif outcome not in (0, 1, 2, 3):
        raise ValueError("raw outcome must be 0..3")
    probability = float(probs[outcome])
    if probability < ABSENT_WEIGHT:
        return outcome, probability, None
    row = table[outcome] / np.sqrt(probability)
    psi = np.multiply.outer(_PROTOCOLS[method].basis[outcome].amplitudes, row)
    return outcome, probability, _ungrouped(psi, triple)


def _prepare(channel: ChannelState, payload: PureState, report: AnalysisReport) -> np.ndarray:
    """The canonicalized joint state (payload qubits first), grouped by
    used pair as _branch_table walks it: shape (8**k, rest).

    The report canonicalizes the channel's (sender x receiver) amplitude
    matrix before the payload joins, so the cost of the local unitaries
    does not grow with the payload; it raises ValueError when they are not
    unitary or do not match the channel's parties.  The payload then joins
    that matrix in one outer product, and one copying transpose groups the
    product: pair t's (message t, sender half, receiver half) axes side by
    side, pair 0 first, then the qubits no pair uses, in ascending order.
    """
    k = payload.n_qubits
    if k > report.capacity:
        raise CapacityShortfall(
            f"payload has {k} qubits but the channel teleports {report.capacity}"
        )
    canonical = report._canonicalize(bipartition_matrix(channel))
    first = [q for t, (a, b) in enumerate(report.pairs[:k]) for q in (t, a + k, b + k)]
    return _tensor_grouped(payload, canonical, channel.alice + channel.bob, first)


def _branch_table(psi: np.ndarray, pair_operator: np.ndarray) -> np.ndarray:
    """Unnormalized amplitudes of every branch, shape (4**k, 2**k, rest),
    from a state grouped by pair as _prepare returns it: shape (8**k,
    rest), each pair's (message, sender half, receiver half) axes side by
    side, pair 0 first.

    Axis 0 packs the raw outcomes, pair 0 most significant; axis 1 holds
    the receiver halves in pair order, already corrected; axis 2 runs over
    the qubits the protocol leaves alone, in the input's order.  Pair t is
    one batched matmul of the protocol's 8 x 8 pair operator with the state
    viewed as (8**t, 8, -1), which turns its triple, where it sits, into an
    (outcome, corrected receiver half) pair; one transpose at the end
    gathers the outcomes ahead of the receiver halves.  So no pair moves an
    axis, and the table is the same size as the joint state.
    """
    k = (len(psi).bit_length() - 1) // 3
    op = pair_operator.reshape(8, 8)
    for t in range(k):
        psi = op @ psi.reshape(8 ** t, 8, -1)
    psi = psi.reshape((4, 2) * k + (-1,))
    order = [*range(0, 2 * k, 2), *range(1, 2 * k, 2), 2 * k]
    return psi.transpose(order).reshape(1 << (2 * k), 1 << k, -1)


def _branch_labels(method: str, k: int) -> tuple[list[tuple[int, ...]], ...]:
    """(outcomes, corrections) of every branch of a k-pair run, indexed by
    branch number (pair 0 most significant), as the tuples BranchOutcome
    holds.  Built once per run, so the records of one branch share them;
    the qubit cap bounds k, hence the tables at 4**5 rows."""
    fixes = _PROTOCOLS[method].corrections
    return (list(itertools.product(range(4), repeat=k)),
            list(itertools.product(fixes, repeat=k)))


# numpy's SeedSequence hash (bit_generator.pyx) and PCG64 multiplier
# (pcg64.h); numpy's stream-compatibility policy (NEP 19) keeps them fixed.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_keys(init: int, mult: int, first: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per call index c = first .. first + calls - 1 of a SeedSequence
    hash, as (calls, 1) uint32 columns: the constant it xors in,
    init * mult**c, and the one it then multiplies by, init * mult**(c+1),
    both mod 2**32."""
    keys = [init * pow(mult, first, 1 << 32) & _MASK32]
    for _ in range(calls):
        keys.append(keys[-1] * mult & _MASK32)
    keys = np.array(keys, dtype=np.uint32)[:, None]
    return keys[:-1], keys[1:]


def _pcg_jumps(rounds: int) -> tuple[np.ndarray, ...]:
    """PCG64's t-th output, t < rounds, reads the state
    M**(t+2) s + (1 + M + ... + M**(t+2)) inc mod 2**128 for seed s and
    increment inc.  Returns those two coefficients (axis 0) per t (axis 1)
    as uint64 arrays of shape (2, rounds, 1): high limbs, low limbs, and
    the low limbs' two 32-bit halves."""
    power, series, m_t, sum_t = [], [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(rounds):
        m_t = m_t * _PCG_MULT % (1 << 128)
        sum_t = (sum_t + m_t) % (1 << 128)
        power.append(m_t)
        series.append(sum_t)
    hi = np.array([[c >> 64 for c in row] for row in (power, series)], dtype=np.uint64)
    lo = np.array([[c % (1 << 64) for c in row] for row in (power, series)], dtype=np.uint64)
    hi, lo = hi[:, :, None], lo[:, :, None]
    return hi, lo, lo & _MASK32, lo >> 32


# a payload has at most MAX_QUBITS // 2 qubits, so a trial at most as many rounds
_GENERATE_KEYS = _hash_keys(_INIT_B, _MULT_B, 0, 8)
_PCG_JUMPS = _pcg_jumps(MAX_QUBITS // 2)
_INC_SHIFT = np.array([[0], [1]], dtype=np.uint64)  # row 1: inc = 2 * stream + 1


def _trial_uniforms(seed: np.random.SeedSequence, trials: int, k: int) -> np.ndarray:
    """The (trials, k) variates np.random.default_rng(child).random(k)
    draws from each of the next `trials` children seed.spawn would hand
    out, bit for bit, computed as arrays with no generator per child.

    A child's entropy is the parent's, padded to the pool size, then the
    parent's spawn key and one word of its own, so the parent's pool is
    the child's mixer after all words but the last: the child's pool is
    that one word mixed in at hash call index pool_size * L, where L
    counts the words before it.  generate_state(4, uint64) hashes eight
    words cycled over that pool and pairs them little-endian into PCG64's
    seed s and stream; inc = 2 * stream + 1.  Each output is the XSL-RR
    of the state _pcg_jumps gives, and random() keeps its top 53 bits.
    Trials run along the last axis throughout.  The seed is read, not
    advanced.
    """
    first = seed.n_children_spawned
    if first + trials >= 1 << 32:
        raise ValueError("trials would take the seed's spawn count to 2**32")
    # L, counted the way numpy assembles a SeedSequence's entropy words
    coerce = np.random.bit_generator._coerce_to_uint32_array
    size = seed.pool_size
    ahead = max(size, len(coerce(seed.entropy))) + len(coerce(seed.spawn_key))
    xor, mult = _hash_keys(_INIT_A, _MULT_A, size * ahead, size)
    own = (np.arange(first, first + trials, dtype=np.uint32) ^ xor) * mult
    pool = _MIX_L * seed.pool[:, None] - _MIX_R * (own ^ own >> 16)
    pool ^= pool >> 16
    xor, mult = _GENERATE_KEYS
    state = (pool[np.arange(8) % size] ^ xor) * mult
    state ^= state >> 16
    state = state.astype(np.uint64)
    words = state[0::2] | state[1::2] << 32  # seed high, seed low, stream high, stream low
    high, low = words[0::2], words[1::2]  # row 0 the seed, row 1 the stream
    x_hi = (high << _INC_SHIFT | (low >> 63) * _INC_SHIFT)[:, None]
    x_lo = (low << _INC_SHIFT | _INC_SHIFT)[:, None]
    # (x_hi, x_lo) * (c_hi, c_lo) mod 2**128, for s and inc at once, with
    # the high half of x_lo * c_lo assembled from 32-bit pieces
    c_hi, c_lo, c0, c1 = (c[:, :k] for c in _PCG_JUMPS)
    lo0, lo1 = x_lo & _MASK32, x_lo >> 32
    mid = lo1 * c0 + (lo0 * c0 >> 32)
    cross = (mid & _MASK32) + lo0 * c1
    hi = lo1 * c1 + (mid >> 32) + (cross >> 32) + x_hi * c_lo + x_lo * c_hi
    lo = x_lo * c_lo
    out = lo[0] + lo[1]
    hi = hi[0] + hi[1] + (out < lo[0])
    out ^= hi
    rot = hi >> 58
    out = out >> rot | out << (-rot & 63)
    return ((out >> 11) * 2.0 ** -53).T


def _sampled_indices(probabilities: np.ndarray, k: int, seed, trials: int) -> np.ndarray:
    """Branch index of each trial: trial i draws the pairs' outcomes in
    order, each from its conditional given the earlier ones (prefix
    marginals of the branch probabilities), with the generator of the
    child seed.spawn would hand out i-th next.

    Each draw is rng.choice(4, p=cond / cond.sum()) written out as choice
    computes it: the number of normalized cumulative probabilities at or
    below one uniform variate.  So a trial's k variates are its child
    generator's random(k), which _trial_uniforms derives for all trials at
    once from the seed's pool, and each round is drawn for all trials at
    once.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    uniforms = _trial_uniforms(seed, trials, k)
    index = np.zeros(trials, dtype=np.intp)
    for t in range(k):
        cond = probabilities.reshape(4 ** (t + 1), -1).sum(axis=1).reshape(-1, 4)[index]
        cdf = np.cumsum(cond / cond.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        index = 4 * index + np.count_nonzero(cdf <= uniforms[:, t, None], axis=1)
    return index


# Peak bytes of a sampled run, measured under tracemalloc over Bell stacks
# and planted channels up to the qubit cap.  Per trial, the generator
# streams _trial_uniforms derives outweigh the record the trial leaves (160
# bytes): 288 bytes with a 1-qubit payload, 96 more per payload qubit, so
# 672 with 5 qubits, the most that fit the cap beside their pairs.  Per
# run: the walk's two copies of the joint state, plus the channel's matrix
# and its canonical form while the payload joins (at most half a copy
# each, with a 1-qubit payload), plus at most 32 KiB of small arrays and
# objects.  The run's branch labels (4**k rows of about 180 bytes) are
# built after the walk, beside the one copy left: about 9 KiB at k = 3,
# under one copy for k >= 4.  A joint state over the qubit cap is sized
# at the cap, so the checks that refuse it still decide.
_TRIAL_BYTES = 680
_JOINT_COPIES = 3
_RUN_BYTES = 1 << 15


def _check_trials(trials, qubits: int) -> int:
    """trials as an int of at least 1 whose run, over a joint state of
    that many qubits (at most MAX_QUBITS), fits the memory budget."""
    try:
        count = operator.index(trials)
    except TypeError:
        count = 0
    if isinstance(trials, bool) or count < 1:
        raise ValueError(f"trials must be an integer of at least 1, not {trials!r}")
    joint = np.dtype(np.complex128).itemsize << min(qubits, MAX_QUBITS)
    need = count * _TRIAL_BYTES + _JOINT_COPIES * joint + _RUN_BYTES
    _check_budget(need, f"the run of {count:,} sampled trials")
    return count


def _teleport(channel, payload, report, method, mode, seed, trials):
    if mode not in ("exhaustive", "sample"):
        raise ValueError("mode must be 'exhaustive' or 'sample'")
    if mode == "sample":
        trials = _check_trials(trials, channel.state.n_qubits + payload.n_qubits)
    k = payload.n_qubits
    table = _branch_table(_prepare(channel, payload, report), _PROTOCOLS[method].pair_operator)
    probabilities = np.einsum("rjs,rjs->r", table.conj(), table).real
    if mode == "exhaustive":
        indices = np.flatnonzero(probabilities > ABSENT_WEIGHT)
    else:
        indices = _sampled_indices(probabilities, k, seed, trials)
    # fidelity <payload| rho_r |payload> of the receiver's normalized marginal
    overlaps = np.einsum("j,rjs->rs", payload.amplitudes.conj(), table)
    captured = np.einsum("rs,rs->r", overlaps.conj(), overlaps).real
    fidelities = captured[indices] / probabilities[indices]
    outcomes, corrections = _branch_labels(method, k)
    rows = indices.tolist()
    branches = tuple(map(BranchOutcome, map(outcomes.__getitem__, rows),
                         map(corrections.__getitem__, rows),
                         probabilities[indices].tolist(), fidelities.tolist()))
    return TeleportResult(method, report.capacity, payload.n_qubits, branches)


def teleport_bell(channel: ChannelState, payload: PureState, report: AnalysisReport,
                  mode: str = "exhaustive", seed=None, trials: int = 1) -> TeleportResult:
    """Teleport the payload with per-pair Bell measurements over the
    channel as report, its analysis, canonicalizes it (ValueError unless
    the report's unitaries pass the unitary check and fit the channel).

    Exhaustive mode lists all 4**k classical branches (omitting those with
    probability below 1e-12); sample mode draws `trials` runs, one branch
    record per run.  Run i draws its rounds from the generator
    np.random.default_rng(child), where child is the SeedSequence
    seed.spawn would hand out i-th next (seed is an int, None or entropy
    list is first made a SeedSequence).  A SeedSequence seed is read, not
    advanced, so the runs are a pure function of it, as default_rng(seed)
    is; runs that would take its spawn count to 2**32 raise ValueError.
    trials must be an integer of at least 1, and the sampled run (the
    walk's copies of the joint state plus each trial's streams and record)
    must fit the memory budget, else ValueError is raised before any work.
    The payload may use any number of qubits up to the channel capacity;
    an oversized payload raises CapacityShortfall.
    """
    return _teleport(channel, payload, report, "bell", mode, seed, trials)


def teleport_circuit(channel: ChannelState, payload: PureState, report: AnalysisReport,
                     mode: str = "exhaustive", seed=None, trials: int = 1) -> TeleportResult:
    """Teleport the payload with the measurement circuit on each pair.

    Equivalent to teleport_bell branch by branch under the raw-outcome
    relabeling r -> 3 - r (multi-qubit payloads go through one pair at a
    time, so the relabeling applies per pair).
    """
    return _teleport(channel, payload, report, "circuit", mode, seed, trials)

