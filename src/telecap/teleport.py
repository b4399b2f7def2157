"""End-to-end teleportation over an analyzed channel, with exact branch
accounting.

Both protocol flavours consume a channel together with its analysis
report, which turns the channel into singlet pairs times a residual
factor; each payload qubit is then pushed through one pair.  The Bell
flavour measures (payload qubit, sender half) in the Bell basis; the
circuit flavour runs the CNOT + H measurement circuit, then reads both
qubits in the computational basis.  The two differ only in how the
two-bit message is labeled; each is one constant table, built at import.

Every branch, and each single round, comes from one table no larger than
the joint state (_prepare, _branch_table).  Branch probabilities are the
squared norms of its rows and fidelities their overlaps with the payload;
exhaustive mode reports all 4**k branches, and sample mode draws each
round's outcome from the table's conditional probabilities.

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
from typing import NamedTuple

import numpy as np

from .capacity import AnalysisReport, _check_budget
from .linalg import ABSENT_WEIGHT
from .states import (
    MAX_QUBITS,
    ChannelState,
    PureState,
    _grouped,
    _read_only,
    _ungrouped,
    bell_state,
)

__all__ = [
    "CapacityShortfall",
    "BranchOutcome",
    "TeleportResult",
    "bell_round",
    "circuit_round",
    "teleport_bell",
    "teleport_circuit",
]


class CapacityShortfall(ValueError):
    """Payload needs more faithful qubits than the channel provides."""


_CORRECTIONS = _read_only(np.array([
    [[1, 0], [0, 1]],    # 1: identity
    [[1, 0], [0, -1]],   # 2: sigma_z
    [[0, -1], [-1, 0]],  # 3: -sigma_x
    [[0, 1], [-1, 0]],   # 4: i sigma_y
], dtype=complex))

# CNOT (control = second qubit, target = first), then H on the second qubit:
# Bell state i goes to computational state 4 - i, with -1 on the singlet only.
_CIRCUIT = _read_only(np.kron(np.eye(2, dtype=complex), np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
                      @ np.eye(4, dtype=complex)[[0, 3, 2, 1]])


class _Flavour(NamedTuple):
    """Raw outcome r projects (message, sender half) onto basis row r, after
    the circuit if the flavour runs it, then corrects the receiver half with
    operator corrections[r]; pair_operator does both, unnormalized, as a
    (4, 2, 4, 2) map from (message, sender, receiver) to (r, receiver)."""

    basis: np.ndarray
    pair_operator: np.ndarray
    corrections: tuple[int, ...]


def _flavour(basis: np.ndarray, circuit: np.ndarray | None, corrections) -> _Flavour:
    covectors = basis.conj() if circuit is None else basis.conj() @ circuit
    pair = np.einsum("rx,rcb->rcxb", covectors, _CORRECTIONS[[c - 1 for c in corrections]])
    return _Flavour(_read_only(basis), _read_only(pair), corrections)


_PROTOCOLS = {
    "bell": _flavour(np.array([bell_state(i).amplitudes for i in (1, 2, 3, 4)]), None, (1, 2, 3, 4)),
    "circuit": _flavour(np.eye(4, dtype=complex), _CIRCUIT, (4, 3, 2, 1)),
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
    if probability <= ABSENT_WEIGHT:
        return outcome, probability, None
    row = table[outcome] / np.sqrt(probability)
    psi = np.multiply.outer(_PROTOCOLS[method].basis[outcome], row)
    return outcome, probability, _ungrouped(psi, triple)


def _prepare(channel: ChannelState, payload: PureState, report: AnalysisReport) -> np.ndarray:
    """The canonicalized joint state (payload qubits first), grouped by
    used pair as _branch_table walks it: shape (8**k, rest).

    The report canonicalizes the channel's (sender x receiver) amplitude
    matrix before the payload joins, so the cost of the local unitaries
    does not grow with the payload.  The payload, checked as a PureState,
    then joins that matrix in one outer product, unless that exceeds the
    qubit cap, and one copying transpose groups it: pair t's (message t,
    sender half, receiver half) axes side by side, pair 0 first, then the
    qubits no pair uses, in ascending order; no intermediate state is built.
    """
    k = payload.n_qubits
    if k > report.capacity:
        raise CapacityShortfall(
            f"payload has {k} qubits but the channel teleports {report.capacity}"
        )
    canonical = report._canonicalize(channel)
    if k + channel.state.n_qubits > MAX_QUBITS:
        raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
    first = [q for t, (a, b) in enumerate(report.pairs[:k]) for q in (t, a + k, b + k)]
    psi = np.multiply.outer(payload.amplitudes, canonical)
    return _grouped(psi, first, [*range(k), *(q + k for q in channel.alice + channel.bob)])


def _branch_table(psi: np.ndarray, pair_operator: np.ndarray) -> np.ndarray:
    """Unnormalized amplitudes of every branch, shape (4**k, 2**k, rest),
    from a state grouped by pair as _prepare returns it.

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


def _entropy_words(x) -> int:
    """How many 32-bit words a SeedSequence packs entropy or a spawn key
    x into: an integer takes max(1, ceil(bits / 32)) words, little end
    first, and a sequence or array the sum over its items."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(map(_entropy_words, x))


def _trial_uniforms(seed: np.random.SeedSequence, trials: int, k: int) -> np.ndarray:
    """The (trials, k) variates np.random.default_rng(child).random(k)
    draws from each of the next `trials` children seed.spawn would hand
    out, bit for bit, computed as arrays with no generator per child.

    A child's entropy is the parent's, padded to the pool size, then the
    parent's spawn key and one word of its own, so the parent's pool is
    the child's mixer after all words but the last: the child's pool is
    that one word mixed in at hash call index pool_size * L, where L
    counts the words before it (_entropy_words).  generate_state(4,
    uint64) hashes eight words cycled over that pool and pairs them
    little-endian into PCG64's seed s and stream; inc = 2 * stream + 1.
    Each output is the XSL-RR of the state _pcg_jumps gives, and random()
    keeps its top 53 bits.  Trials run along the last axis throughout.
    The seed is read, not advanced.
    """
    first = seed.n_children_spawned
    if first + trials >= 1 << 32:
        raise ValueError("trials would take the seed's spawn count to 2**32")
    size = seed.pool_size
    ahead = max(size, _entropy_words(seed.entropy)) + _entropy_words(seed.spawn_key)
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
# run: the walk's two copies of the joint state, plus the channel's
# canonical form, which the report keeps through the walk and after it
# (half a copy with a 1-qubit payload, 2**-k of one with k qubits), plus at
# most 32 KiB of small arrays and objects.  The channel's matrix and the
# intermediate product are freed before the payload joins.  At the cap,
# 7|8 with a 1-qubit payload peaks at 2.50 copies and 6|6 with a 4-qubit
# payload at 2.07, kept form included, whether the run canonicalizes the
# channel or reuses the form kept by an earlier run.  The run's branch
# labels (4**k rows of about 180 bytes) are built after the walk, beside
# the one copy left: about 9 KiB at k = 3, under one copy for k >= 4.  A
# joint state over the qubit cap is sized at the cap, so _prepare's
# capacity and cap checks, not the budget, refuse it.
_TRIAL_BYTES = 680
_JOINT_COPIES = 3
_RUN_BYTES = 1 << 15


def _check_trials(trials, qubits: int) -> int:
    """trials as an int of at least 1 whose run, over a joint state of
    that many qubits (taken as MAX_QUBITS above it), fits the memory budget."""
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
    # fidelity of the receiver's normalized marginal rho_r: <p| rho_r |p> / <p|p>, p the payload
    overlaps = np.einsum("j,rjs->rs", payload.amplitudes.conj(), table)
    captured = np.einsum("rs,rs->r", overlaps.conj(), overlaps).real
    captured /= np.vdot(payload.amplitudes, payload.amplitudes).real
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
    probability at or below 1e-12); sample mode draws `trials` runs, one
    branch record per run.  Run i draws its rounds from the generator
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

