"""The QR-built sender unitary against the Gram-Schmidt oracle, and the
one-pass analysis that feeds it."""

import dataclasses

import numpy as np
import pytest

from oracle import canonical_target_columns, gram_schmidt_unitary, partial_trace_loops
from telecap import capacity, linalg
from telecap.capacity import (
    analyze,
    bipartition_matrix,
    canonical_state,
    reduced_density,
    synthesize_u_a,
    verify_condition,
)
from telecap.corpus import generate_planted, ghz_channel, n_bell_channel
from telecap.linalg import hermitian_eig
from telecap.states import ChannelState, random_pure_state
from telecap.teleport import teleport_bell

PLANTED_SMALL = [(m, n, d) for m in range(1, 8) for n in range(1, 9 - m)
                 for d in range(min(m, n) + 1)]


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def check_against_oracle(channel: ChannelState) -> bool:
    """u_a's action on the support, its unitarity and the certificate; where
    the kept columns S and T span less than the sender's space (2r < 2**m),
    also that u_a is the identity on the complement of span[S, T].  Returns
    whether that low-rank check ran."""
    rep = analyze(channel)
    oriented = channel.swapped() if rep.swapped else channel
    u_struct, u_purif = (rep.u_a, rep.u_b) if rep.swapped else (rep.u_b, rep.u_a)
    canonical = ChannelState(canonical_state(channel, rep), oriented.alice, oriented.bob)
    source = bipartition_matrix(oriented) @ u_struct.T
    targets = bipartition_matrix(canonical)
    kept = np.einsum("ak,ak->k", source.conj(), source).real > 1e-12
    support = source[:, kept]
    oracle = gram_schmidt_unitary(source, targets)
    assert np.max(np.abs(u_purif @ support - oracle @ support)) <= 1e-12
    assert unitarity_defect(rep.u_a) <= 1e-12
    assert unitarity_defect(rep.u_b) <= 1e-12
    assert verify_condition(oriented, u_struct, rep.capacity)
    low_rank = 2 * support.shape[1] < source.shape[0]
    if low_rank:
        span = np.concatenate([support, targets[:, kept]], axis=1)
        frame, sv, _ = np.linalg.svd(span)
        complement = frame[:, np.count_nonzero(sv > 1e-10):]
        assert complement.shape[1] > 0
        assert np.max(np.abs(u_purif @ complement - complement)) <= 1e-12
    return low_rank


@pytest.mark.parametrize("m,n,d", PLANTED_SMALL)
def test_planted_matches_gram_schmidt(m, n, d):
    check_against_oracle(generate_planted(m, n, d, seed=1000 + 64 * m + 8 * n + d).channel)


@pytest.mark.parametrize("size,m", [(3, 1), (4, 2), (5, 3), (6, 1), (7, 5), (8, 4)])
def test_ghz_matches_gram_schmidt(size, m):
    check_against_oracle(ghz_channel(size, m))


@pytest.mark.parametrize("pairs", [1, 2, 3, 4])
def test_bell_stack_matches_gram_schmidt(pairs):
    check_against_oracle(n_bell_channel(pairs, k=1 + pairs % 4))


@pytest.mark.parametrize("m,n", [(10, 2), (2, 10)])
def test_lopsided_twelve_qubits_teleport_faithfully(m, n):
    channel = generate_planted(m, n, 2, seed=10 * m + n).channel
    rep = analyze(channel)
    assert rep.capacity == 2
    res = teleport_bell(channel, random_pure_state(2, seed=m), rep)
    assert len(res.branches) == 16
    assert res.min_fidelity >= 1 - 1e-9


def test_planted_grid_reaches_both_constructions():
    sides = {check_against_oracle(generate_planted(m, n, d, seed=1000 + 64 * m + 8 * n + d)
                                  .channel) for m, n, d in [(3, 3, 3), (5, 1, 1), (1, 5, 1)]}
    assert sides == {False, True}


def test_lopsided_analysis_checks_only_small_matrices(monkeypatch):
    channel = generate_planted(10, 1, 1, seed=101).channel
    shapes = []
    defect = linalg._unitarity_defect

    def recorded(m):
        shapes.append(np.shape(m))
        return defect(m)

    monkeypatch.setattr(linalg, "_unitarity_defect", recorded)
    rep = analyze(channel)
    res = teleport_bell(channel, random_pure_state(1, seed=2), rep)
    assert res.min_fidelity >= 1 - 1e-9
    # each check forms M†M over M's columns: C and W's are 2r with r <= 2,
    # u_b's 2; u_a itself (1024 wide) is never checked
    assert {s[1] for s in shapes} <= {2, 4} and (1024, 4) in shapes


def test_non_unitary_small_factor_rejected(monkeypatch):
    channel = generate_planted(6, 1, 1, seed=8).channel
    frame = capacity._completed_frame
    monkeypatch.setattr(capacity, "_completed_frame", lambda cols: 1.001 * frame(cols))
    with pytest.raises(ArithmeticError, match="unitarity check"):
        analyze(channel)


def test_non_orthonormal_span_rejected(monkeypatch):
    channel = generate_planted(6, 1, 1, seed=8).channel
    qr = np.linalg.qr

    def skewed(a, mode="reduced"):
        q, r = qr(a, mode=mode)
        return (1.001 * q, r) if mode == "reduced" else (q, r)

    monkeypatch.setattr(np.linalg, "qr", skewed)
    with pytest.raises(ArithmeticError, match="unitarity check"):
        analyze(channel)


def test_frame_rejects_dependent_columns():
    v = np.arange(1, 9, dtype=complex)
    with pytest.raises(ArithmeticError, match="rank deficient"):
        capacity._completed_frame(np.column_stack([v, 2 * v]))
    with pytest.raises(ArithmeticError, match="rank deficient"):
        capacity._completed_frame(np.eye(2, 3, dtype=complex))


def test_public_u_a_matches_analyze(monkeypatch):
    channel = generate_planted(4, 3, 2, seed=77).channel
    rep = analyze(channel)
    calls = []
    for name in ("reduced_density", "_transformed"):
        fn = getattr(capacity, name)
        monkeypatch.setattr(capacity, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    assert np.array_equal(synthesize_u_a(channel, rep.u_b, 2), rep.u_a)
    # the certificate and the target columns share one rho_B and one transform
    assert calls == ["reduced_density", "_transformed"]


@pytest.mark.parametrize("m,n,d", [(3, 3, 1), (4, 2, 2), (2, 4, 1)])
def test_analyze_decomposes_once(monkeypatch, m, n, d):
    calls = {"reduced_density": 0, "hermitian_eig": 0}

    def counted(name):
        fn = getattr(capacity, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(capacity, name, counted(name))
    analyze(generate_planted(m, n, d, seed=5).channel)
    # rho_B is formed once and decomposed once; the residual after u_b is
    # diagonal, so its eigensystem is read off without a second eigh
    assert calls == {"reduced_density": 1, "hermitian_eig": 1}


@pytest.mark.parametrize("m,n,d", [(3, 3, 0), (4, 4, 2)])
def test_dense_analysis_runs_one_qr(monkeypatch, m, n, d):
    channel = generate_planted(m, n, d, seed=9).channel
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    rep = analyze(channel)
    assert isinstance(rep._purifier, np.ndarray)  # the dense sender unitary
    # the source frame's complete QR; the target frame is a phased permutation
    assert len(calls) == 1


ROTATED_GRID = [(3, 3, 1), (4, 4, 2), (4, 2, 1), (5, 2, 1), (3, 2, 0)]


def residual_rotated(m, n, d):
    """A planted channel, its report, a receiver unitary (R (x) I) u_b
    rotated on the residual by a random unitary R, and the canonical
    targets of the residual it leaves, from the oracle."""
    channel = generate_planted(m, n, d, seed=40 + 8 * m + n).channel
    rep = analyze(channel)
    dr = 1 << (n - d)
    rng = np.random.default_rng(m + n + d)
    rot, _ = np.linalg.qr(rng.standard_normal((dr, dr)) + 1j * rng.standard_normal((dr, dr)))
    u_b = np.kron(rot, np.eye(1 << d)) @ rep.u_b
    rho = u_b @ reduced_density(channel, "bob") @ u_b.conj().T
    eta = partial_trace_loops(rho, n, range(n - d, n))
    assert np.max(np.abs(eta - np.diag(np.diagonal(eta)))) > 1e-6
    return channel, rep, u_b, canonical_target_columns(eta, m, n, d)


@pytest.mark.parametrize("m,n,d", ROTATED_GRID)
def test_rotated_residual_basis(monkeypatch, m, n, d):
    """A receiver unitary rotated on the residual, (R (x) I) u_b, still
    factors the density, but leaves a non-diagonal residual: its
    eigensystem comes from an eigh, and u_a must still carry the support
    onto the canonical targets of that residual, by the construction
    analyze's own u_b takes."""
    channel, rep, u_b, targets = residual_rotated(m, n, d)
    assert verify_condition(channel, u_b, d)
    eigs, qrs = [], []
    monkeypatch.setattr(capacity, "hermitian_eig",
                        lambda h, _eig=hermitian_eig: eigs.append(1) or _eig(h))
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qrs.append(1) or qr(*a, **k))
    synthesize_u_a(channel, rep.u_b, d)
    assert not eigs
    own_qrs, qrs[:] = len(qrs), []
    u_a = synthesize_u_a(channel, u_b, d)
    assert len(eigs) == 1  # the residual's eigensystem, not read off its diagonal
    # the source's complete QR on the dense branch; the span's reduced QR
    # and the two small frames' complete QRs on the factored one
    assert len(qrs) == own_qrs == (3 if isinstance(rep._purifier, capacity._LowRank) else 1)

    source = bipartition_matrix(channel) @ u_b.T
    kept = np.einsum("ak,ak->k", source.conj(), source).real > 1e-12
    support = source[:, kept]
    assert np.max(np.abs(u_a @ support - targets[:, kept])) <= 1e-12
    oracle = gram_schmidt_unitary(source, targets)
    assert np.max(np.abs(u_a @ support - oracle @ support)) <= 1e-12
    assert unitarity_defect(u_a) <= 1e-12

    if d:
        rotated = dataclasses.replace(rep, u_a=u_a, u_b=u_b)
        res = teleport_bell(channel, random_pure_state(d, seed=d), rotated)
        assert res.min_fidelity >= 1 - 1e-9


@pytest.mark.parametrize("m,n,d", ROTATED_GRID)
def test_canonical_state_for_residual_mixing_u_b(m, n, d):
    channel, rep, u_b, targets = residual_rotated(m, n, d)
    mixed = dataclasses.replace(rep, u_a=synthesize_u_a(channel, u_b, d), u_b=u_b)
    canonical = canonical_state(channel, mixed)
    cols = bipartition_matrix(ChannelState(canonical, channel.alice, channel.bob))
    assert np.max(np.abs(cols - targets / np.linalg.norm(targets))) <= 1e-12
    reached = mixed.u_a @ bipartition_matrix(channel) @ mixed.u_b.T
    assert abs(np.vdot(cols, reached)) ** 2 >= 1 - 1e-12


def test_permuted_frame_rejects_missing_targets():
    q_s = np.eye(4, dtype=complex)
    with pytest.raises(ArithmeticError, match="rank deficient"):
        capacity._permuted_frame(q_s, np.array([2, 0]), np.array([-0.5, 1e-8], dtype=complex))
    entries = np.array([-0.5, 0.5], dtype=complex)
    with pytest.raises(ArithmeticError, match="rank deficient"):
        capacity._permuted_frame(q_s, np.array([2, -1]), entries)
    u_a = capacity._permuted_frame(q_s, np.array([2, 0]), entries)
    assert np.array_equal(u_a, [[0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0], [0, 0, 0, 1]])
