import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import basis_state, dominant_factor, expansion_identity_defect
from telecap import capacity, linalg, teleport
from telecap.capacity import analyze, canonical_state
from telecap.corpus import generate_planted, ghz_channel, n_bell_channel
from telecap.states import (
    ChannelState,
    PureState,
    apply_unitary,
    bell_state,
    fidelity,
    project_and_collapse,
    random_pure_state,
    tensor,
)
from telecap.teleport import (
    CapacityShortfall,
    bell_round,
    circuit_round,
    teleport_bell,
    teleport_circuit,
)


class TestCircuitUnitary:
    def test_maps_bell_to_computational_with_frozen_signs(self):
        u = teleport._CIRCUIT
        signs = {1: -1.0, 2: 1.0, 3: 1.0, 4: 1.0}
        for i in (1, 2, 3, 4):
            got = u @ bell_state(i).amplitudes
            want = np.zeros(4)
            want[4 - i] = signs[i]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_unitary(self):
        u = teleport._CIRCUIT
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestFlavourTables:
    """Each flavour's basis and pair operator, rebuilt from the oracle's
    Bell vectors, circuit and corrections: equal bit for bit, and frozen."""

    @pytest.mark.parametrize("method, corrections", [("bell", (1, 2, 3, 4)),
                                                     ("circuit", (4, 3, 2, 1))])
    def test_tables_match_the_oracle(self, method, corrections):
        if method == "bell":
            basis = np.array(oracle._BELL_VECTORS)
            covectors = basis.conj()
        else:
            basis = np.eye(4, dtype=complex)
            covectors = basis.conj() @ oracle._MEASUREMENT_CIRCUIT
        fixes = np.array([oracle._FIXES[c - 1] for c in corrections])
        pair_operator = np.einsum("rx,rcb->rcxb", covectors, fixes)
        flavour = teleport._PROTOCOLS[method]
        assert flavour.corrections == corrections
        for got, want in ((flavour.basis, basis), (flavour.pair_operator, pair_operator)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0


class TestExpansionIdentity:
    def test_basis_payloads_exact(self):
        assert expansion_identity_defect(basis_state((0,))) == 0.0
        assert expansion_identity_defect(basis_state((1,))) == 0.0

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_random_single_qubit(self, seed):
        assert expansion_identity_defect(random_pure_state(1, seed)) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_entangled_message_leg(self, seed, n):
        # the identity holds with spectators hanging off the message qubit
        assert expansion_identity_defect(random_pure_state(n, seed)) < 1e-12


class TestRounds:
    def test_bell_round_outcomes_uniform_on_singlet(self):
        joint = tensor([random_pure_state(1, 3), bell_state(1)])
        for raw in range(4):
            _, p, out = bell_round(joint, 0, 1, 2, outcome=raw)
            assert p == pytest.approx(0.25, abs=1e-12)
            got, _ = dominant_factor(out, [2])
            assert fidelity(got, random_pure_state(1, 3)) > 1 - 1e-12

    def test_unreachable_outcome_returns_none(self):
        joint = tensor([basis_state((0,)), basis_state((0,)), basis_state((0,))])
        raw, p, out = bell_round(joint, 0, 1, 2, outcome=0)
        assert p < 1e-12 and out is None

    @pytest.mark.parametrize("round_", [bell_round, circuit_round])
    def test_outcome_out_of_range_rejected(self, round_):
        joint = tensor([random_pure_state(1, 3), bell_state(1)])
        for raw in (-1, 4):
            with pytest.raises(ValueError, match=r"raw outcome must be 0\.\.3"):
                round_(joint, 0, 1, 2, outcome=raw)

    def test_sampling_needs_rng(self):
        joint = tensor([random_pure_state(1, 3), bell_state(1)])
        with pytest.raises(ValueError, match="rng"):
            bell_round(joint, 0, 1, 2)

    def test_circuit_round_matches_bell_round(self):
        payload = random_pure_state(1, 8)
        joint = tensor([payload, bell_state(1)])
        for raw in range(4):
            _, pb, outb = bell_round(joint, 0, 1, 2, outcome=3 - raw)
            _, pc, outc = circuit_round(joint, 0, 1, 2, outcome=raw)
            assert pb == pytest.approx(pc, abs=1e-12)
            sb, _ = dominant_factor(outb, [2])
            sc, _ = dominant_factor(outc, [2])
            assert fidelity(sb, sc) > 1 - 1e-12


# (pre-measurement unitary, measured basis, correction per raw outcome),
# from the oracle's own tables
_REFERENCE = {
    "bell": (None, [PureState(v) for v in oracle._BELL_VECTORS], (1, 2, 3, 4)),
    "circuit": (oracle._MEASUREMENT_CIRCUIT,
                [basis_state(((r >> 1) & 1, r & 1)) for r in range(4)], (4, 3, 2, 1)),
}
_ROUNDS = {"bell": bell_round, "circuit": circuit_round}


def reference_round(state, message, alice, bob, method, outcome=None, rng=None):
    """A round the long way: the measurement circuit (if any) through
    apply_unitary, projective collapse onto the measured basis, then the
    correction on the receiver half; a sampled outcome is drawn as the
    rounds draw it, from the four collapse probabilities."""
    pre, basis, fixes = _REFERENCE[method]
    targets = [message, alice]
    if pre is not None:
        state = apply_unitary(state, pre, targets)
    if outcome is None:
        probs = np.array([project_and_collapse(state, targets, basis, r)[0] for r in range(4)])
        outcome = int(rng.choice(4, p=probs / probs.sum()))
    probability, collapsed = project_and_collapse(state, targets, basis, outcome)
    if collapsed is not None:
        collapsed = apply_unitary(collapsed, oracle._FIXES[fixes[outcome] - 1], [bob])
    return outcome, probability, collapsed


# (qubit count, (message, sender half, receiver half), state seed): targets
# out of order and apart, with spectator qubits between and around them
_ROUND_CASES = [(3, (2, 0, 1), 40), (4, (3, 0, 2), 41), (5, (4, 1, 3), 42),
                (6, (5, 2, 0), 43), (6, (0, 4, 2), 44)]


class TestRoundsMatchReference:
    @pytest.mark.parametrize("method", ["bell", "circuit"])
    @pytest.mark.parametrize("n, qubits, seed", _ROUND_CASES)
    def test_every_forced_outcome(self, method, n, qubits, seed):
        state = random_pure_state(n, seed)
        for raw in range(4):
            got = _ROUNDS[method](state, *qubits, outcome=raw)
            want = reference_round(state, *qubits, method, outcome=raw)
            assert got[0] == want[0] == raw
            assert abs(got[1] - want[1]) < 1e-12
            assert np.max(np.abs(got[2].amplitudes - want[2].amplitudes)) < 1e-12

    @pytest.mark.parametrize("method", ["bell", "circuit"])
    @pytest.mark.parametrize("n, qubits, seed", _ROUND_CASES)
    def test_sampled_outcomes(self, method, n, qubits, seed):
        state = random_pure_state(n, seed)
        for draw in range(20):
            got = _ROUNDS[method](state, *qubits, rng=np.random.default_rng(draw))
            want = reference_round(state, *qubits, method, rng=np.random.default_rng(draw))
            assert got[0] == want[0]
            assert abs(got[1] - want[1]) < 1e-12

    @pytest.mark.parametrize("method", ["bell", "circuit"])
    @pytest.mark.parametrize("qubits", [(0, 0, 1), (0, 2, 2), (3, 1, 3), (-1, 1, 2),
                                        (0, -1, 2), (0, 1, -4), (0, 1, 4), (4, 1, 2)])
    def test_bad_qubits_rejected(self, method, qubits):
        state = random_pure_state(4, 45)
        with pytest.raises(ValueError, match="round qubits"):
            _ROUNDS[method](state, *qubits, outcome=0)
        with pytest.raises(ValueError, match="round qubits"):
            _ROUNDS[method](state, *qubits, rng=np.random.default_rng(0))


class TestTeleportBell:
    def test_single_pair_all_branches_faithful(self):
        ch = n_bell_channel(1)
        payload = random_pure_state(1, 11)
        res = teleport_bell(ch, payload, analyze(ch))
        assert res.capacity == 1 and res.payload_qubits == 1
        assert len(res.branches) == 4
        for b in res.branches:
            assert b.probability == pytest.approx(0.25, abs=1e-12)
            assert b.fidelity > 1 - 1e-12
        assert res.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_message_bits_enumerate_branches(self):
        ch = n_bell_channel(1)
        res = teleport_bell(ch, random_pure_state(1, 12), analyze(ch))
        assert sorted(b.bits for b in res.branches) == ["00", "01", "10", "11"]
        for b in res.branches:
            assert b.corrections == (b.outcomes[0] + 1,)

    def test_entangled_payload_two_pairs(self):
        ch = n_bell_channel(2)
        payload = random_pure_state(2, 13)   # generically entangled
        res = teleport_bell(ch, payload, analyze(ch))
        assert len(res.branches) == 16
        assert res.min_fidelity > 1 - 1e-12
        assert res.total_probability == pytest.approx(1.0, abs=1e-12)

    def test_payload_smaller_than_capacity(self):
        ch = n_bell_channel(2)
        res = teleport_bell(ch, random_pure_state(1, 14), analyze(ch))
        assert res.payload_qubits == 1 and len(res.branches) == 4
        assert res.min_fidelity > 1 - 1e-12

    def test_payload_larger_than_capacity_raises(self):
        ch = n_bell_channel(1)
        with pytest.raises(CapacityShortfall):
            teleport_bell(ch, random_pure_state(2, 15), analyze(ch))

    def test_over_planted_channel(self):
        p = generate_planted(3, 3, 2, seed=16)
        rep = analyze(p.channel)
        res = teleport_bell(p.channel, random_pure_state(2, 17), rep)
        assert res.min_fidelity > 1 - 1e-9
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)

    def test_over_swapped_channel(self):
        p = generate_planted(1, 2, 1, seed=18)
        rep = analyze(p.channel)
        assert rep.swapped
        res = teleport_bell(p.channel, random_pure_state(1, 19), rep)
        assert res.min_fidelity > 1 - 1e-9

    def test_ghz_teleports_one_qubit(self):
        ch = ghz_channel(5, 2)
        res = teleport_bell(ch, random_pure_state(1, 20), analyze(ch))
        assert res.capacity == 1
        assert res.min_fidelity > 1 - 1e-10

    def test_received_state_is_payload(self):
        payload = random_pure_state(1, 21)
        joint = tensor([payload, bell_state(1)])
        _, _, out = bell_round(joint, 0, 1, 2, outcome=2)
        got, weight = dominant_factor(out, [2])
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert fidelity(got, payload) > 1 - 1e-12


class TestNormEdge:
    """A channel and a payload each 0.9e-9 over unit norm pass PureState's
    check; so they teleport, though their product is 1.8e-9 over."""

    @staticmethod
    def edge_states():
        grow = 1 + 0.9e-9
        ch = n_bell_channel(1)
        channel = ChannelState(PureState(ch.state.amplitudes * grow), ch.alice, ch.bob)
        return channel, PureState(random_pure_state(1, 3).amplitudes * grow)

    @pytest.mark.parametrize("run", [teleport_bell, teleport_circuit])
    @pytest.mark.parametrize("kwargs", [{}, {"mode": "sample", "seed": 4, "trials": 16}],
                             ids=["exhaustive", "sample"])
    def test_every_branch_faithful(self, run, kwargs):
        channel, payload = self.edge_states()
        assert abs(np.linalg.norm(payload.amplitudes) - 1 - 0.9e-9) <= 1e-15
        res = run(channel, payload, analyze(channel), **kwargs)
        assert len(res.branches) == (16 if kwargs else 4)
        for b in res.branches:
            assert abs(b.fidelity - 1.0) <= 1e-12


class TestSampling:
    def test_deterministic_per_seed(self):
        ch = n_bell_channel(1)
        payload = random_pure_state(1, 22)
        rep = analyze(ch)
        a = teleport_bell(ch, payload, rep, mode="sample", seed=5, trials=6)
        b = teleport_bell(ch, payload, rep, mode="sample", seed=5, trials=6)
        assert [x.outcomes for x in a.branches] == [x.outcomes for x in b.branches]

    def test_seed_changes_outcomes(self):
        ch = n_bell_channel(1)
        payload, rep = random_pure_state(1, 22), analyze(ch)
        runs = {
            tuple(x.outcomes for x in
                  teleport_bell(ch, payload, rep, mode="sample", seed=s, trials=8).branches)
            for s in range(4)
        }
        assert len(runs) > 1

    def test_sampled_branches_faithful(self):
        p = generate_planted(2, 2, 1, seed=23)
        res = teleport_bell(p.channel, random_pure_state(1, 24), analyze(p.channel),
                            mode="sample", seed=1, trials=5)
        assert len(res.branches) == 5
        assert res.min_fidelity > 1 - 1e-9
        for b in res.branches:
            assert b.probability == pytest.approx(0.25, abs=1e-9)

    def test_bad_mode_rejected(self):
        ch = n_bell_channel(1)
        with pytest.raises(ValueError, match="mode"):
            teleport_bell(ch, random_pure_state(1, 1), analyze(ch), mode="blend")

    def test_bad_trials_rejected(self):
        ch = n_bell_channel(1)
        with pytest.raises(ValueError, match="trials"):
            teleport_bell(ch, random_pure_state(1, 1), analyze(ch), mode="sample", trials=0)

    @staticmethod
    def _count_work(monkeypatch):
        calls = []
        fn = teleport._prepare
        monkeypatch.setattr(teleport, "_prepare", lambda *a: calls.append("_prepare") or fn(*a))
        return calls

    @pytest.mark.parametrize("kwargs", [{"mode": "smaple"}]
                             + [{"mode": "sample", "trials": t} for t in (0, 2.5, True, "3")])
    def test_bad_request_rejected_before_any_work(self, monkeypatch, kwargs):
        calls = self._count_work(monkeypatch)
        ch = n_bell_channel(1)
        rep = analyze(ch)
        for run in (teleport_bell, teleport_circuit):
            with pytest.raises(ValueError, match="mode|trials"):
                run(ch, random_pure_state(1, 1), rep, **kwargs)
        assert calls == []
        teleport_bell(ch, random_pure_state(1, 1), rep)
        assert calls == ["_prepare"]

    def test_trials_refused_above_budget_before_any_work(self, monkeypatch):
        calls = self._count_work(monkeypatch)
        monkeypatch.setattr(capacity, "DENSE_BUDGET_BYTES", 1 << 19)
        ch, payload = n_bell_channel(1), random_pure_state(1, 1)
        rep = analyze(ch)
        # 1000 trials at _TRIAL_BYTES, _JOINT_COPIES 3-qubit joint states
        # and _RUN_BYTES: 680,000 + 384 + 32,768 bytes
        for run in (teleport_bell, teleport_circuit):
            with pytest.raises(ValueError, match="^the run of 1,000 sampled trials needs "
                                                 "713,152 bytes, above the 524,288-byte budget$"):
                run(ch, payload, rep, mode="sample", seed=1, trials=1000)
        assert calls == []
        assert len(teleport_bell(ch, payload, rep, mode="sample", seed=1,
                                 trials=700).branches) == 700


class TestMethodEquivalence:
    @pytest.mark.parametrize("case", [(1, 1, 1, 30), (2, 2, 1, 31), (3, 2, 2, 32)])
    def test_branch_bijection(self, case):
        m, n, d, seed = case
        ch = generate_planted(m, n, d, seed).channel
        rep = analyze(ch)
        payload = random_pure_state(d, seed + 1)
        rb = teleport_bell(ch, payload, rep)
        rc = teleport_circuit(ch, payload, rep)
        by_outcome = {b.outcomes: b for b in rb.branches}
        assert len(rc.branches) == len(rb.branches)
        for cb in rc.branches:
            twin = by_outcome[tuple(3 - r for r in cb.outcomes)]
            assert twin.corrections == cb.corrections
            assert cb.probability == pytest.approx(twin.probability, abs=1e-10)
            assert cb.fidelity == pytest.approx(twin.fidelity, abs=1e-10)


class TestReportChecks:
    def _planted(self):
        ch = generate_planted(2, 2, 1, seed=14).channel
        return ch, analyze(ch), random_pure_state(1, 3)

    @pytest.mark.parametrize("name", ["u_a", "u_b"])
    def test_non_unitary_report_rejected(self, name):
        ch, rep, payload = self._planted()
        bad = dataclasses.replace(rep, **{name: 2 * getattr(rep, name)})
        for run in (teleport_bell, teleport_circuit):
            for mode in ("exhaustive", "sample"):
                with pytest.raises(ValueError, match="unitary"):
                    run(ch, payload, bad, mode=mode, seed=1, trials=2)
        with pytest.raises(ValueError, match="^report's u_a or u_b is not unitary within 1e-9$"):
            canonical_state(ch, bad)

    def test_caller_writes_do_not_reach_report(self):
        ch, rep, payload = self._planted()
        u_a = rep.u_a.copy()
        own = dataclasses.replace(rep, u_a=u_a)
        assert teleport_bell(ch, payload, own).min_fidelity > 1 - 1e-9
        u_a[:] = 0.0
        assert np.array_equal(own.u_a, rep.u_a) and not own.u_a.flags.writeable
        assert teleport_circuit(ch, payload, own).min_fidelity > 1 - 1e-9

    def _count_checks(self, monkeypatch, ch, rep, payload):
        calls = []
        check = linalg.is_unitary

        def counted(u):
            calls.append(u)
            return check(u)

        monkeypatch.setattr(linalg, "is_unitary", counted)
        for run in (teleport_bell, teleport_circuit):
            run(ch, payload, rep)
            run(ch, payload, rep, mode="sample", seed=1, trials=3)
        return calls

    def test_unitarity_checked_once_per_report(self, monkeypatch):
        # analyze has checked u_a, so only the structural u_b is left
        ch, rep, payload = self._planted()
        calls = self._count_checks(monkeypatch, ch, rep, payload)
        assert len(calls) == 1 and calls[0] is rep.u_b

    def test_channel_and_payload_over_the_cap_rejected(self):
        # a 16-qubit channel leaves no room for even a 1-qubit payload
        ch = generate_planted(8, 8, 1, seed=88).channel
        rep = analyze(ch)
        assert rep.capacity == 1
        sample = {"mode": "sample", "seed": 1, "trials": 1}
        for run in (teleport_bell, teleport_circuit):
            for kwargs in ({}, sample):
                with pytest.raises(ValueError, match="^tensor product exceeds 16 qubits$"):
                    run(ch, random_pure_state(1, 3), rep, **kwargs)
            # 26 qubits in all, whose joint state alone would outweigh the
            # budget: the capacity check, not the trial budget, refuses it
            with pytest.raises(CapacityShortfall, match="^payload has 10 qubits but the "
                                                        "channel teleports 1$"):
                run(ch, random_pure_state(10, 3), rep, **sample)

    def test_report_that_stretches_the_channel_rejected(self):
        # 4|4 channel sum_i sqrt(w_i) |i> |h_i>, h_i the Hadamard-basis
        # states, h_0 spread evenly over the computational basis
        weights = (0.3, 0.3, 0.2, 0.2)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        h4 = hadamard
        for _ in range(3):
            h4 = np.kron(h4, hadamard)
        mat = np.zeros((16, 16), dtype=complex)
        for i, w in enumerate(weights):
            mat[i] = np.sqrt(w) * h4[:, i]
        ch = ChannelState(PureState(mat.reshape(-1)), (0, 1, 2, 3), (4, 5, 6, 7))
        rep = analyze(ch)
        assert rep.capacity == 1
        # u_b (I + eps N v v†) with v = h_0 passes the unitarity check but
        # stretches h_0, which carries weight 0.3, by 1 + 16 eps, so the
        # canonicalized channel's norm is off by about 2.4e-9
        eps = 4.9e-10
        stretched = rep.u_b @ (np.eye(16) + eps * np.ones((16, 16)))
        assert linalg.is_unitary(stretched)
        bad = dataclasses.replace(rep, u_b=stretched)
        for run in (teleport_bell, teleport_circuit):
            with pytest.raises(ValueError, match="^state is not unit norm within 1e-9$"):
                run(ch, random_pure_state(1, 3), bad)

    def test_stretched_report_at_the_cap_fails_the_norm_check_first(self):
        # 8|8 singlet (x) |+...+>|+...+>: Bob's support vectors spread over
        # 128 entries, so a stretch along one of them (weight 1/2) moves the
        # norm by about 3e-8 within the unitary check's max-norm 1e-9
        plus = np.full(128, 128 ** -0.5)
        mat = np.kron(np.array([[0, 1], [-1, 0]]) / np.sqrt(2), np.outer(plus, plus))
        ch = ChannelState(PureState(mat.reshape(-1)), tuple(range(8)), tuple(range(8, 16)))
        rep = analyze(ch)
        v = np.linalg.svd(mat)[2][0].conj()
        stretch = np.eye(256) + 0.9e-9 / (2 * np.max(np.abs(v)) ** 2) * np.outer(v, v.conj())
        bad = dataclasses.replace(rep, u_b=rep.u_b @ stretch.T)
        assert rep.capacity == 1 and linalg.is_unitary(bad.u_b)
        for run in (teleport_bell, teleport_circuit):
            with pytest.raises(ValueError, match="^tensor product exceeds 16 qubits$"):
                run(ch, random_pure_state(1, 3), rep)
            with pytest.raises(ValueError, match="^state is not unit norm within 1e-9$"):
                run(ch, random_pure_state(1, 3), bad)
            with pytest.raises(CapacityShortfall):
                run(ch, random_pure_state(2, 3), bad)

    def test_replaced_report_checks_both_sides(self, monkeypatch):
        ch, rep, payload = self._planted()
        own = dataclasses.replace(rep, u_a=rep.u_a.copy())
        calls = self._count_checks(monkeypatch, ch, own, payload)
        assert len(calls) == 2
        assert {id(u) for u in calls} == {id(own.u_a), id(own.u_b)}
