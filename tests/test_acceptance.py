"""End-to-end acceptance checks, one test per criterion.

Each test covers one externally pinned requirement with its tolerance and,
where stated, its wall-clock budget:

1. Bell stacks of n = 1..4 pairs analyze to capacity n and teleport any
   n-qubit payload with every branch at fidelity 1 (within 1e-10), in
   under 30 s.
2. The singlet expansion identity holds to better than 1e-10 for random
   message states, with and without spectators.
3. GHZ states up to N = 10 report entropy 1 and capacity 1 for every one
   of the 2**N - 2 bipartitions, with full canonicalization and a faithful
   one-qubit run on every contiguous split, in under 10 s.
4. Over at least 200 channels with each side up to 3 qubits, the reported
   capacity is sound (the factorization certificate verifies and planted
   ground truth is recovered) and complete (the spectrum obstructs every
   higher capacity), in under 60 s.
5. Planted channels over 20 seeds with up to 10 qubits round-trip their
   capacity exactly and teleport faithfully, in under 2 min.
6. Bell-measurement and circuit protocols agree branch for branch under
   the raw-outcome relabeling r -> 3 - r, probabilities and fidelities
   within 1e-10.
7. Entanglement entropy is symmetric between the parties (within 1e-10)
   for random states up to 12 qubits, cross-checked against both reduced
   densities' spectra.
8. Sampled Bell outcomes over 10,000 runs stay within 3 sigma of the
   uniform quarter per outcome.
9. The CLI exit-code contract (0..5) holds and state files are a
   byte-stable save/load fixed point.
10. Every split up to the 16-qubit cap works: a planted m|n channel with
    d in {0, min(m, n)} analyzes to d, is certified at d and not at d + 1,
    and, where a 1-qubit payload fits beside it, teleports it with every
    branch at fidelity 1 (within 1e-12).  Every split runs: 240 cases.
"""

import itertools
import json
import time

import numpy as np
import pytest

from oracle import expansion_identity_defect, spectral_capacity
from telecap.capacity import (
    analyze,
    certify,
    entanglement_entropy,
    max_capacity,
    reduced_density,
    verify_condition,
)
from telecap.cli import load_state_file, main, save_state_file
from telecap.corpus import generate_planted, ghz_channel, n_bell_channel, random_channel
from telecap.linalg import cluster_spectrum, hermitian_eig
from telecap.states import ChannelState, apply_unitary, fidelity, ghz_state, random_pure_state
from telecap.teleport import teleport_bell, teleport_circuit


def _stamp(k: int, message: str, t0: float, budget: float | None = None):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {k} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {k} PASS ({elapsed:.2f}s): {message}")


def test_criterion_1_bell_stack_faithfulness():
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        ch = n_bell_channel(n)
        rep = analyze(ch)
        assert rep.capacity == n
        assert rep.entropy_bits == pytest.approx(float(n), abs=1e-10)
        payload = random_pure_state(n, seed=1000 + n)
        res = teleport_bell(ch, payload, rep)
        assert len(res.branches) == 4 ** n
        assert res.total_probability == pytest.approx(1.0, abs=1e-9)
        for b in res.branches:
            assert b.probability == pytest.approx(0.25 ** n, abs=1e-10)
            assert b.fidelity > 1 - 1e-10
    _stamp(1, "n=1..4 Bell stacks teleport n qubits faithfully", t0, budget=30.0)


def test_criterion_2_expansion_identity():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        worst = max(worst, expansion_identity_defect(random_pure_state(1, seed)))
    for n in (2, 3, 4):
        for seed in range(10):
            worst = max(worst,
                        expansion_identity_defect(random_pure_state(n, 900 + seed)))
    assert worst < 1e-10
    _stamp(2, f"expansion identity defect {worst:.1e} < 1e-10", t0)


def test_criterion_3_ghz_all_bipartitions():
    t0 = time.monotonic()
    checked = 0
    for size in range(3, 11):
        ghz = ghz_state(size)
        for r in range(1, size):
            for alice in itertools.combinations(range(size), r):
                bob = tuple(q for q in range(size) if q not in alice)
                ch = ChannelState(ghz, alice, bob)
                oriented = ch.swapped() if r < size - r else ch
                w, _ = hermitian_eig(reduced_density(oriented, "bob"))
                clusters = cluster_spectrum(w, 1e-9)
                d = max_capacity(clusters, len(oriented.alice), len(oriented.bob))
                assert d == 1 == spectral_capacity(ch)
                assert entanglement_entropy(ch) == pytest.approx(1.0, abs=1e-10)
                checked += 1
    assert checked == sum((1 << size) - 2 for size in range(3, 11))
    # full canonicalization and a faithful run on every contiguous split
    for size in range(3, 11):
        for m in range(1, size):
            ch = ghz_channel(size, m)
            rep = analyze(ch)
            assert rep.capacity == 1
            res = teleport_bell(ch, random_pure_state(1, 40 + m), rep)
            assert res.min_fidelity > 1 - 1e-10
    _stamp(3, f"{checked} GHZ bipartitions at capacity 1, contiguous splits run",
           t0, budget=10.0)


def test_criterion_4_soundness_and_completeness():
    t0 = time.monotonic()
    channels = []
    for seed in range(100):
        m = 1 + seed % 3
        n = 1 + (seed // 3) % 3
        channels.append((random_channel(m, n, seed), None))
    rng = np.random.default_rng(2024)
    while len(channels) < 200:
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, min(m, n) + 1))
        planted = generate_planted(m, n, d, seed=len(channels))
        channels.append((planted.channel, d))
    teleported = 0
    for ch, truth in channels:
        rep = analyze(ch)
        if truth is not None:
            assert rep.capacity == truth
        assert rep.capacity == spectral_capacity(ch)
        assert verify_condition(ch, rep.u_b, rep.capacity)
        m, n = len(ch.alice), len(ch.bob)
        if rep.capacity < min(m, n):
            block = 1 << (rep.capacity + 1)
            assert any(c.multiplicity % block for c in rep.clusters)
        if truth is not None and truth >= 1 and teleported < 12:
            res = teleport_bell(ch, random_pure_state(truth, 700 + teleported), rep)
            assert res.min_fidelity > 1 - 1e-9
            teleported += 1
    assert len(channels) == 200 and teleported == 12
    _stamp(4, "200 channels sound and complete, 12 spot teleports", t0, budget=60.0)


def test_criterion_5_planted_roundtrip():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    for seed in range(20):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 11 - m))
        d = int(rng.integers(0, min(m, n) + 1))
        planted = generate_planted(m, n, d, seed)
        rep = analyze(planted.channel)
        assert rep.capacity == d, (m, n, d, seed)
        assert verify_condition(planted.channel, rep.u_b, d)
        assert entanglement_entropy(planted.channel) == pytest.approx(
            rep.entropy_bits, abs=1e-9)
        if d >= 1:
            k = min(d, 2)
            res = teleport_bell(planted.channel, random_pure_state(k, 500 + seed), rep)
            assert res.min_fidelity > 1 - 1e-9
            assert res.total_probability == pytest.approx(1.0, abs=1e-9)
    _stamp(5, "20 planted channels up to 10 qubits round-trip", t0, budget=120.0)


def test_criterion_6_circuit_matches_bell():
    t0 = time.monotonic()
    cases = [n_bell_channel(1), n_bell_channel(2), ghz_channel(4, 2),
             generate_planted(3, 2, 2, seed=61).channel,
             generate_planted(2, 3, 2, seed=62).channel]
    for ch in cases:
        rep = analyze(ch)
        payload = random_pure_state(rep.capacity, seed=600)
        rb = teleport_bell(ch, payload, rep)
        rc = teleport_circuit(ch, payload, rep)
        assert len(rb.branches) == len(rc.branches)
        by_outcome = {b.outcomes: b for b in rb.branches}
        for cb in rc.branches:
            twin = by_outcome[tuple(3 - r for r in cb.outcomes)]
            assert twin.corrections == cb.corrections
            assert cb.probability == pytest.approx(twin.probability, abs=1e-10)
            assert cb.fidelity == pytest.approx(twin.fidelity, abs=1e-10)
    _stamp(6, "circuit and Bell branches agree under r -> 3 - r", t0)


def test_criterion_7_entropy_symmetry():
    t0 = time.monotonic()
    layouts = [(2, 2), (3, 2), (3, 5), (4, 4), (2, 8), (5, 5), (4, 8), (6, 6), (5, 7)]
    for seed, (m, n) in enumerate(layouts):
        ch = random_channel(m, n, seed=800 + seed)
        e_ab = entanglement_entropy(ch)
        e_ba = entanglement_entropy(ch.swapped())
        assert e_ab == pytest.approx(e_ba, abs=1e-10)
        for side in ("alice", "bob"):
            w, _ = hermitian_eig(reduced_density(ch, side))
            w = np.clip(w, 0.0, None)
            w = w[w > 1e-15]
            assert float(-(w @ np.log2(w))) == pytest.approx(e_ab, abs=1e-9)
    _stamp(7, "entropy symmetric for splits up to 12 qubits", t0)


def test_criterion_8_sampling_statistics():
    t0 = time.monotonic()
    trials = 10_000
    ch = n_bell_channel(1)
    res = teleport_bell(ch, random_pure_state(1, 81), analyze(ch),
                        mode="sample", seed=12345, trials=trials)
    counts = np.bincount([b.outcomes[0] for b in res.branches], minlength=4)
    sigma = np.sqrt(0.25 * 0.75 / trials)
    for r in range(4):
        assert abs(counts[r] / trials - 0.25) <= 3 * sigma, (r, counts[r])
    assert res.min_fidelity > 1 - 1e-10
    _stamp(8, f"outcome frequencies within 3 sigma over {trials} runs", t0)


def test_criterion_9_cli_contract(tmp_path, capsys):
    t0 = time.monotonic()

    def run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    channel = tmp_path / "channel.json"
    assert run("generate", 2, 2, 1, "--seed", 5, "-o", channel)[0] == 0

    # 0: success
    code, out, _ = run("analyze", channel)
    assert code == 0 and "capacity=1" in out
    assert run("teleport", channel)[0] == 0
    assert run("verify", channel, 1)[0] == 0

    # byte-stable save/load fixed point
    first = channel.read_bytes()
    state, alice, bob = load_state_file(str(channel))
    save_state_file(str(channel), state, alice, bob)
    assert channel.read_bytes() == first

    # 1: capacity shortfall
    payload2 = tmp_path / "payload2.json"
    save_state_file(str(payload2), random_pure_state(2, 9))
    assert run("teleport", channel, payload2)[0] == 1

    # 2: malformed file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("analyze", bad)[0] == 2

    # 3: norm invariant
    doc = json.loads(first)
    doc["amplitudes"] = [[2.0 * re, 2.0 * im] for re, im in doc["amplitudes"]]
    fat = tmp_path / "fat.json"
    fat.write_text(json.dumps(doc))
    assert run("analyze", fat)[0] == 3

    # 4: infeasible claim
    assert run("verify", channel, 2)[0] == 4

    # 5: fidelity floor violated on a noisy channel at loose eps
    v = np.array([0.02, 1.0, -1.0, 0.0])
    v = v / np.linalg.norm(v)
    noisy_doc = {"format": "telecap-state", "qubits": 2,
                 "amplitudes": [[float(x), 0.0] for x in v],
                 "alice": [0], "bob": [1]}
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(noisy_doc))
    assert run("teleport", noisy, "--eps", 0.1)[0] == 5

    _stamp(9, "exit codes 0..5 and byte-stable files", t0)


@pytest.mark.parametrize("total", range(2, 17))
def test_criterion_10_every_split_up_to_the_cap(total):
    t0 = time.monotonic()
    splits = [(m, total - m) for m in range(1, total)]
    for m, n in splits:
        for d in sorted({0, min(m, n)}):
            ch = generate_planted(m, n, d, seed=16 * m + n).channel
            rep = analyze(ch)
            assert rep.capacity == d, (m, n, d)
            assert certify(ch, d)[1] is True, (m, n, d)
            assert not certify(ch, d + 1)[1], (m, n, d)
            if d and total < 16:
                res = teleport_bell(ch, random_pure_state(1, seed=m * n), rep)
                assert res.min_fidelity >= 1 - 1e-12, (m, n, d)
    _stamp(10, f"{len(splits)} planted {total}-qubit splits at d = 0 and min(m, n)", t0)
