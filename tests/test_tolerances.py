"""Every tolerance pinned on both sides of its boundary: for each named
value and each place that treats a weight at or below ABSENT_WEIGHT as
absent, one input just inside the bound and one just outside it.  Where
no valid input reaches a bound, a test injects the defect or builds the
report by hand.  scripts/mutants.py runs these tests against one-line
mutants of the values and comparisons."""

import numpy as np
import pytest

from oracle import (
    basis_state,
    canonical_target_columns,
    entropy_bits_direct,
    partial_trace_loops,
)
from telecap import capacity, cli, linalg, states, teleport
from telecap.capacity import (
    AnalysisReport,
    analyze,
    bipartition_matrix,
    canonical_state,
    reduced_density,
    synthesize_u_a,
    verify_condition,
)
from telecap.corpus import generate_planted, ghz_canonical_form, ghz_cnot_chain, ghz_channel
from telecap.linalg import EigenvalueCluster, cluster_spectrum, hermitian_eig, is_unitary
from telecap.states import (
    ChannelState,
    PureState,
    project_and_collapse,
    tensor,
)
from telecap.teleport import BranchOutcome, TeleportResult, bell_round, teleport_bell

INSIDE, OUTSIDE = 0.5, 2.0  # a defect at half its bound, and at twice it


def scrambled_channel(m: int, n: int, weights, seed: int) -> ChannelState:
    """m|n channel with the given Schmidt weights (summing to 1) behind
    Haar-random local unitaries on both sides."""
    rng = np.random.default_rng(seed)

    def frame(dim):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.linalg.qr(z)[0]

    k = len(weights)
    mat = frame(1 << m)[:, :k] @ np.diag(np.sqrt(weights)) @ frame(1 << n)[:, :k].T
    return ChannelState(PureState(mat.reshape(-1)), tuple(range(m)), tuple(range(m, m + n)))


def tilted(weight: float) -> PureState:
    """cos|0> + sin|1> with sin**2 = weight."""
    return PureState(np.array([np.sqrt(1.0 - weight), np.sqrt(weight)], dtype=complex))


def test_derived_values():
    assert capacity._GS_ACCEPT == 1e-7
    assert capacity._FACTOR_TOL == 1e-10


# ------------------------------------------------------------------ DEFAULT_EPS

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_default_eps_clusters(side):
    # a gap within eps joins the anchor's cluster, a larger one opens a new one
    assert len(cluster_spectrum([0.5, 0.5 - side * 1e-9])) == (1 if side < 1 else 2)


def test_cluster_rule_admits_a_gap_of_exactly_eps():
    eps = 2.0 ** -30
    assert cluster_spectrum([0.5, 0.5 - eps], eps) == (EigenvalueCluster(0.5, 2),)
    assert len(cluster_spectrum([0.5, 0.5 - 2 * eps], eps)) == 2


@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_default_eps_decides_capacity(side):
    # a 1|1 channel whose two Schmidt weights are side * 1e-9 apart: one
    # cluster of two (capacity 1) within eps, two of one beyond it
    gap = side * 1e-9
    channel = scrambled_channel(1, 1, [0.5 + gap / 2, 0.5 - gap / 2], seed=3)
    assert analyze(channel).capacity == (1 if side < 1 else 0)


@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_certificate_at_eps(side):
    # a 2|2 channel of capacity 1; its u_b rotated between two clusters by
    # the angle that leaves a max-norm defect of side * eps
    channel = scrambled_channel(2, 2, [0.35, 0.35, 0.15, 0.15], seed=5)
    u_b = analyze(channel).u_b
    eps = linalg.DEFAULT_EPS
    theta = np.arcsin(20 * side * eps) / 2  # defect 0.05 sin(2 theta)
    rot = np.eye(4, dtype=complex)
    rot[np.ix_([0, 2], [0, 2])] = [[np.cos(theta), -np.sin(theta)],
                                   [np.sin(theta), np.cos(theta)]]
    u_b = rot @ u_b
    rho = u_b @ reduced_density(channel, "bob") @ u_b.conj().T
    eta = partial_trace_loops(rho, 2, [1])
    defect = np.max(np.abs(rho - np.kron(eta, np.eye(2) / 2)))
    assert 0.9 * side * eps < defect < 1.1 * side * eps
    assert verify_condition(channel, u_b, 1) == (side < 1)


# ----------------------------------------------------------------- UNITARY_TOL

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_unitary_tol(side):
    u = np.diag([np.sqrt(1.0 + side * 1e-9), 1.0])  # U†U - I has one entry side * 1e-9
    assert is_unitary(u) == (side < 1)


# -------------------------------------------------------------------- NORM_TOL

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_norm_tol(side, capsys):
    amplitudes = np.array([1.0 + side * 1e-9, 0.0])
    if side < 1:
        assert PureState(amplitudes).amplitudes[0] == amplitudes[0]
    else:
        with pytest.raises(ValueError, match="unit norm within 1e-9"):
            PureState(amplitudes)
    # a loaded file is renormalized, with a warning, beyond NORM_TOL
    doc = {"format": "telecap-state", "qubits": 1,
           "amplitudes": [[float(amplitudes[0]), 0.0], [0.0, 0.0]]}
    state, _, _ = cli.decode_state(doc)
    warned = "renormalizing" in capsys.readouterr().err
    assert warned == (side > 1)
    assert state.amplitudes[0] == (1.0 if side > 1 else amplitudes[0])


# --------------------------------------------------------------- _RENORM_REJECT

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_renorm_reject(side, capsys):
    # README: off unit norm by more than 1e-6 is rejected with exit 3
    doc = {"format": "telecap-state", "qubits": 1,
           "amplitudes": [[1.0 + side * 1e-6, 0.0], [0.0, 0.0]]}
    if side < 1:
        state, _, _ = cli.decode_state(doc)
        assert state.amplitudes[0] == 1.0 and "renormalizing" in capsys.readouterr().err
    else:
        with pytest.raises(cli.CliFailure, match="off by more than 1e-6") as err:
            cli.decode_state(doc)
        assert err.value.code == cli.EXIT_NORM


# -------------------------------------------------------------- FIDELITY_FLOOR

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_fidelity_floor(side):
    branch = BranchOutcome((0,), (1,), 1.0, 1.0 - side * 1e-6)
    result = TeleportResult("bell", 1, 1, (branch,))
    if side < 1:
        cli._check_fidelity(result)
    else:
        with pytest.raises(cli.CliFailure) as err:
            cli._check_fidelity(result)
        assert err.value.code == cli.EXIT_FIDELITY


# --------------------------------------------------------------- _HERMITIAN_TOL

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_hermitian_tol(side):
    # an anti-Hermitian part a leaves max|h - h†| = 2a
    a = side * 1e-9 / 2
    h = np.array([[2.0, a], [-a, 1.0]], dtype=complex)
    if side < 1:
        assert hermitian_eig(h)[0].tolist() == pytest.approx([2.0, 1.0])
    else:
        with pytest.raises(ValueError, match="not Hermitian within 1e-9"):
            hermitian_eig(h)


# ------------------------------------------------------------------- _PHASE_TOL

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_phase_tol(side):
    # the top eigenvector's first component has magnitude side * 1e-12: it
    # fixes the column's phase only above the bound, else the second does
    t = side * 1e-12
    a = t * np.exp(0.7j)
    b = np.sqrt(1.0 - t * t)
    v = np.array([[a, -b], [b, np.conj(a)]])
    _, vecs = hermitian_eig(v @ np.diag([1.0, 0.0]) @ v.conj().T)
    first, second = vecs[:, 0]
    assert abs(abs(first) - t) < 1e-15
    if side > 1:  # first real positive, second keeps the relative phase
        assert first.imag == 0.0 and first.real > 0
        assert abs(np.angle(second) + 0.7) < 1e-3
    else:
        assert abs(second.imag) < 1e-15 and second.real > 0
        assert abs(np.angle(first) - 0.7) < 1e-3


# ------------------------------------------------------- ABSENT_WEIGHT, spectra

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_descending_check_slack(side):
    w = [0.5, 0.5 + side * 1e-12]
    if side < 1:
        assert cluster_spectrum(w) == (EigenvalueCluster(0.5, 2),)
    else:
        with pytest.raises(ValueError, match="sorted descending"):
            cluster_spectrum(w)


TINY = [(INSIDE, 0.5e-12), (OUTSIDE, 2e-12), ("mid", 1e-10)]


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (2, 4)])
@pytest.mark.parametrize("side,tiny", TINY, ids=["inside", "outside", "mid"])
def test_tiny_schmidt_weight(m, n, side, tiny):
    """A channel with a Schmidt weight near ABSENT_WEIGHT.  Above it, the
    weight is a residual label (a nonzero amplitude of the canonical
    state), its column is kept by the sender unitary, which then carries
    the channel onto the canonical state, and it adds to the entropy; at
    or below it, none of these."""
    weights = [0.6, 0.4 - tiny, tiny]
    channel = scrambled_channel(m, n, weights, seed=7 + m)
    present = side != INSIDE
    rep = analyze(channel)
    assert rep.capacity == 0
    want = entropy_bits_direct(weights if present else weights[:2])
    assert abs(rep.entropy_bits - want) < 1e-13
    canonical = canonical_state(channel, rep)
    assert np.count_nonzero(canonical.amplitudes) == (3 if present else 2)
    cols = bipartition_matrix(ChannelState(canonical, channel.alice, channel.bob))
    reached = rep.u_a @ bipartition_matrix(channel) @ rep.u_b.T
    assert np.max(np.abs(reached - cols)) <= (1e-10 if present else 2 * np.sqrt(tiny))


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (2, 4)])
@pytest.mark.parametrize("tail", [(0.8e-12, 0.8e-12), (1.5e-12, 1.5e-12), (1.5e-12, 0.3e-12),
                                  (1.9e-12, 0.5e-12), (2.4e-12, 0.0)],
                         ids=["equal-inside", "equal-outside", "unequal-inside", "unequal-outside",
                              "zero-column"])
def test_residual_label_in_column_weight(m, n, tail):
    """A channel of capacity 1 whose residual value mu = sum(tail) spreads
    over two clustered columns of the weights in tail.  Only when their
    mean mu / 2, not mu, is above ABSENT_WEIGHT is it a residual label.
    The sender unitary keeps a column only when it and its label both
    weigh more than ABSENT_WEIGHT, so each kept column has a target and a
    norm above _GS_ACCEPT; on the low-rank splits W has two columns per
    kept one.  Equal weights land on the canonical state; otherwise a
    column is off it by at most its own or its label's norm."""
    mean = sum(tail) / 2
    channel = scrambled_channel(m, n, [0.5 - mean, 0.5 - mean, *tail], seed=3)
    rep = analyze(channel)
    assert rep.capacity == 1
    labelled = mean > 1e-12
    kept = 2 + (sum(w > 1e-12 for w in tail) if labelled else 0)
    factors = rep.purifier_factors
    assert factors is None if m == n else factors[0].shape[1] == 2 * kept
    canonical = canonical_state(channel, rep)
    assert np.count_nonzero(canonical.amplitudes) == (4 if labelled else 2)
    cols = bipartition_matrix(ChannelState(canonical, channel.alice, channel.bob))
    reached = rep.u_a @ bipartition_matrix(channel) @ rep.u_b.T
    exact = labelled and tail[0] == tail[1]
    assert np.max(np.abs(reached - cols)) <= (1e-10 if exact else 2 * np.sqrt(max(tail)))


# ------------------------------------------------- ABSENT_WEIGHT, residual mixing

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_residual_mixing_threshold(monkeypatch, side):
    """u_b rotated on the residual by the small angle that leaves an
    off-diagonal entry of side * ABSENT_WEIGHT in the residual density:
    only above the bound does the residual get its own eigensystem, and
    both ways u_a carries the support onto the canonical targets."""
    m, n, d = 3, 3, 1
    channel = generate_planted(m, n, d, seed=21).channel
    rep = analyze(channel)
    rho = reduced_density(channel, "bob")
    eta = partial_trace_loops(rep.u_b @ rho @ rep.u_b.conj().T, n, range(n - d, n))
    mu = np.diagonal(eta).real
    # rotating residual labels 0 and -1 by theta leaves an off-diagonal
    # entry of (mu[0] - mu[-1]) sin(2 theta) / 2
    theta = np.arcsin(2 * side * 1e-12 / (mu[0] - mu[-1])) / 2
    rot = np.eye(1 << (n - d), dtype=complex)
    rot[np.ix_([0, -1], [0, -1])] = [[np.cos(theta), -np.sin(theta)],
                                     [np.sin(theta), np.cos(theta)]]
    u_b = np.kron(rot, np.eye(1 << d)) @ rep.u_b
    eta = partial_trace_loops(u_b @ rho @ u_b.conj().T, n, range(n - d, n))
    off = np.abs(eta - np.diag(np.diagonal(eta)))
    assert 0.9 * side * 1e-12 < np.max(off) < 1.1 * side * 1e-12
    calls = []
    monkeypatch.setattr(capacity, "hermitian_eig", lambda h: calls.append(1) or hermitian_eig(h))
    u_a = synthesize_u_a(channel, u_b, d)
    assert len(calls) == (1 if side > 1 else 0)
    source = bipartition_matrix(channel) @ u_b.T
    targets = canonical_target_columns(eta, m, n, d)
    assert np.max(np.abs(u_a @ source - targets)) <= 1e-12


# -------------------------------------------------------------- _FACTOR_TOL

@pytest.mark.parametrize("side", [INSIDE, OUTSIDE])
def test_factor_tol(monkeypatch, side):
    """Both small frames scaled by s put s**4 - 1 = side * tol on C†C - I,
    tol = _FACTOR_TOL / 2r, on a 6|1 channel whose sender unitary is kept
    as low-rank factors."""
    channel = generate_planted(6, 1, 1, seed=8).channel
    k = 4  # C is 2r x 2r, r = 2 kept columns
    scale = (1.0 + side * capacity._FACTOR_TOL / k) ** 0.25
    frame = capacity._completed_frame
    monkeypatch.setattr(capacity, "_completed_frame", lambda cols: scale * frame(cols))
    if side < 1:
        assert analyze(channel).purifier_factors is not None
    else:
        with pytest.raises(ArithmeticError, match="unitarity check"):
            analyze(channel)


# ---------------------------------------------- ABSENT_WEIGHT, branches and rounds

def product_report() -> AnalysisReport:
    """A hand-built capacity-1 report with identity unitaries for the
    product channel |00>, split 0|1: its branches are not all 1/4."""
    eye = np.eye(2, dtype=complex)
    return AnalysisReport(entropy_bits=0.0, capacity=1, u_a=eye, u_b=eye, eta=None,
                          clusters=(EigenvalueCluster(0.5, 2),), bob_relabeling=(0,),
                          pairs=((0, 1),), swapped=False)


PRODUCT = ChannelState(basis_state((0, 0)), (0,), (1,))


@pytest.mark.parametrize("side", [INSIDE, OUTSIDE, None])
def test_exhaustive_cutoff(side):
    # payload cos|0> + sin|1>: the singlet and its sibling each take
    # sin**2 / 2; README: branches of probability at or below 1e-12 are omitted
    payload = basis_state((0,)) if side is None else tilted(2 * side * 1e-12)
    result = teleport_bell(PRODUCT, payload, product_report())
    assert [b.outcomes for b in result.branches] == ([(0,), (1,), (2,), (3,)] if side == OUTSIDE
                                                     else [(2,), (3,)])


def test_exhaustive_cutoff_omits_a_branch_at_the_bound(monkeypatch):
    payload = tilted(4e-12)
    low = teleport_bell(PRODUCT, payload, product_report()).branches[0].probability
    monkeypatch.setattr(teleport, "ABSENT_WEIGHT", low)
    assert len(teleport_bell(PRODUCT, payload, product_report()).branches) == 2
    monkeypatch.setattr(teleport, "ABSENT_WEIGHT", np.nextafter(low, 0.0))
    assert len(teleport_bell(PRODUCT, payload, product_report()).branches) == 4


@pytest.mark.parametrize("weight", [INSIDE * 1e-12, OUTSIDE * 1e-12, 1e-8])
def test_round_cutoff(monkeypatch, weight):
    # (payload, sender half) = cos|00> + sin|10>: the singlet outcome takes sin**2 / 2
    state = tensor([tilted(2 * weight), basis_state((0, 0))])
    outcome, probability, after = bell_round(state, 0, 1, 2, outcome=0)
    assert abs(probability - weight) < 1e-3 * weight
    assert (after is None) == (weight < 1e-12)
    monkeypatch.setattr(teleport, "ABSENT_WEIGHT", probability)
    assert bell_round(state, 0, 1, 2, outcome=0)[2] is None
    monkeypatch.setattr(teleport, "ABSENT_WEIGHT", np.nextafter(probability, 0.0))
    assert bell_round(state, 0, 1, 2, outcome=0)[2] is not None


@pytest.mark.parametrize("weight", [INSIDE * 1e-12, OUTSIDE * 1e-12])
def test_projection_cutoff(monkeypatch, weight):
    state = tensor([tilted(weight), basis_state((0,))])
    basis = [basis_state((0,)), basis_state((1,))]
    probability, after = project_and_collapse(state, [0], basis, 1)
    assert abs(probability - weight) < 1e-3 * weight
    assert (after is None) == (weight < 1e-12)
    monkeypatch.setattr(states, "ABSENT_WEIGHT", probability)
    assert project_and_collapse(state, [0], basis, 1)[1] is None
    monkeypatch.setattr(states, "ABSENT_WEIGHT", np.nextafter(probability, 0.0))
    assert project_and_collapse(state, [0], basis, 1)[1] is not None


# ------------------------------------------------------------------- demo-ghz

def test_ghz_cnot_chain_is_exact_on_every_split():
    # demo-ghz compares the chained amplitudes with the canonical form
    # exactly: they are equal bit for bit on every split the CLI accepts
    # (ghz_channel(n, m) holds the same n-qubit GHZ state for every m)
    for n in range(2, 17):
        amplitudes = ghz_channel(n, 1).state.amplitudes
        want = ghz_canonical_form(n).amplitudes
        for m in range(1, n):
            assert np.array_equal(amplitudes[ghz_cnot_chain(n, m)], want)

