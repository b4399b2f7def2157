"""The pair-grouped joint state against an index-loop oracle, the
pair-grouped branch table against the sequential oracle, its memory, the types of its records, sampled outcome sequences pinned from
the round-by-round simulator, and the trials' derived generator streams
against numpy's own generators."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracle import grouped_joint_state, sequential_teleport, spawned_uniforms
from telecap.capacity import _LowRank, analyze
from telecap.corpus import generate_planted, ghz_channel, n_bell_channel
from telecap.states import ChannelState, permute_qubits, random_pure_state
from telecap.teleport import (
    _JOINT_COPIES,
    _RUN_BYTES,
    _TRIAL_BYTES,
    _prepare,
    _sampled_indices,
    _trial_uniforms,
    teleport_bell,
    teleport_circuit,
)

TELEPORTS = {"bell": teleport_bell, "circuit": teleport_circuit}

GRID = (
    [(f"bell{n}", lambda n=n: n_bell_channel(n), n) for n in (1, 2, 3, 4)]
    + [(f"planted{m}x{n}", lambda m=m, n=n: generate_planted(m, n, 2, seed=70 + m).channel, 2)
       for m, n in ((3, 3), (2, 4), (4, 2))]
    + [(f"planted5x5.k{k}", lambda: generate_planted(5, 5, 3, seed=75).channel, k)
       for k in (1, 2, 3)]
    + [("planted6x6.k4", lambda: generate_planted(6, 6, 4, seed=76).channel, 4),
       ("ghz5.split2", lambda: ghz_channel(5, 2), 1)]
)


def _skewed(channel, report):
    """The report with both unitaries replaced by the identity: the channel
    is no longer canonical, so branch probabilities and fidelities spread."""
    eye = lambda u: np.eye(u.shape[0])  # noqa: E731
    return dataclasses.replace(report, u_a=eye(report.u_a), u_b=eye(report.u_b))


def _assert_matches_oracle(channel, payload, report, method):
    result = TELEPORTS[method](channel, payload, report)
    want = sequential_teleport(channel, payload.amplitudes, report, method)
    assert [b.outcomes for b in result.branches] == [w[0] for w in want]
    assert [b.corrections for b in result.branches] == [w[1] for w in want]
    for got, (_, _, probability, fidelity) in zip(result.branches, want):
        assert abs(got.probability - probability) <= 1e-12
        assert abs(got.fidelity - fidelity) <= 1e-12


@pytest.mark.parametrize("method", sorted(TELEPORTS))
@pytest.mark.parametrize("label,build,k", GRID, ids=[g[0] for g in GRID])
def test_exhaustive_matches_sequential_oracle(label, build, k, method):
    channel = build()
    report = analyze(channel)
    _assert_matches_oracle(channel, random_pure_state(k, seed=900 + k), report, method)


@pytest.mark.parametrize("method", sorted(TELEPORTS))
def test_non_canonical_report_matches_sequential_oracle(method):
    channel = generate_planted(3, 3, 2, seed=16).channel
    report = _skewed(channel, analyze(channel))
    result = TELEPORTS[method](channel, random_pure_state(2, 17), report)
    assert result.min_fidelity < 0.5
    _assert_matches_oracle(channel, random_pure_state(2, 17), report, method)


@pytest.mark.parametrize("method", sorted(TELEPORTS))
@pytest.mark.parametrize("m,n,d", [(7, 2, 2), (2, 7, 2), (8, 1, 1), (1, 8, 1)])
def test_factored_report_matches_sequential_oracle(m, n, d, method):
    # the oracle applies the dense u_a and u_b; teleport goes through the factors
    channel = generate_planted(m, n, d, seed=80 + m).channel
    report = analyze(channel)
    assert isinstance(report._purifier, _LowRank)
    _assert_matches_oracle(channel, random_pure_state(d, seed=81), report, method)


def _relabelled(channel, alice, bob):
    """The same channel with its qubits moved to the labels alice and bob:
    new qubit alice[i] holds old qubit channel.alice[i], likewise bob."""
    new_from_old = [0] * channel.state.n_qubits
    for new, old in zip(alice + bob, channel.alice + channel.bob):
        new_from_old[new] = old
    return ChannelState(permute_qubits(channel.state, new_from_old), alice, bob)


@pytest.mark.parametrize("method", sorted(TELEPORTS))
@pytest.mark.parametrize("m,n,d,alice,bob", [
    (3, 3, 2, (5, 0, 3), (1, 4, 2)),
    (4, 3, 3, (6, 1, 4, 0), (5, 2, 3)),
], ids=["planted3x3", "planted4x3"])
def test_interleaved_labels_match_sequential_oracle(m, n, d, alice, bob, method):
    # the parties interleave and run out of order, so each pair's triple is
    # non-adjacent in the joint state, with spectators between its qubits
    channel = _relabelled(generate_planted(m, n, d, seed=90 + m).channel, alice, bob)
    report = analyze(channel)
    assert report.capacity == d
    for k in range(1, d + 1):
        _assert_matches_oracle(channel, random_pure_state(k, seed=910 + k), report, method)


@pytest.mark.parametrize("m,n,d,alice,bob,swapped,factored", [
    (3, 3, 3, (3, 0, 5), (1, 4, 2), False, False),
    (3, 3, 2, (5, 4, 3), (2, 1, 0), False, False),
    (2, 3, 2, (4, 0), (3, 1, 2), True, False),
    (2, 4, 2, (5, 1), (0, 3, 4, 2), True, True),
    (4, 2, 2, (2, 5, 0, 3), (4, 1), False, True),
    (1, 5, 1, (3,), (5, 0, 4, 1, 2), True, True),
], ids=["permuted", "reversed", "swapped", "swapped-factored", "factored", "lopsided"])
def test_prepare_matches_grouped_oracle(m, n, d, alice, bob, swapped, factored):
    channel = _relabelled(generate_planted(m, n, d, seed=7 * m + n).channel, alice, bob)
    report = analyze(channel)
    assert (report.capacity, report.swapped) == (d, swapped)
    assert isinstance(report._purifier, _LowRank) == factored
    for k in range(1, d + 1):
        payload = random_pure_state(k, seed=920 + k)
        got = _prepare(channel, payload, report)
        want = grouped_joint_state(channel, payload.amplitudes, report)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12, k


@pytest.mark.parametrize("kwargs", [{}, {"mode": "sample", "seed": 5, "trials": 256}],
                         ids=["exhaustive", "sample"])
def test_branch_walk_memory(kwargs):
    # the walk holds the joint state, its pair-grouped copy and one matmul
    # result; a k-fold operator or one more full copy breaks the bound
    channel = generate_planted(6, 6, 4, seed=76).channel
    report = analyze(channel)
    payload = random_pure_state(4, seed=904)
    joint_bytes = 16 * 2 ** (payload.n_qubits + channel.state.n_qubits)
    teleport_bell(channel, payload, report, **kwargs)
    tracemalloc.start()
    try:
        teleport_bell(channel, payload, report, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * joint_bytes


@pytest.mark.parametrize("method", sorted(TELEPORTS))
@pytest.mark.parametrize("kwargs", [{}, {"mode": "sample", "seed": 5, "trials": 40}],
                         ids=["exhaustive", "sample"])
def test_records_hold_python_scalars(kwargs, method):
    channel = generate_planted(3, 3, 2, seed=16).channel
    result = TELEPORTS[method](channel, random_pure_state(2, 17), analyze(channel), **kwargs)
    assert len(result.branches) == (16 if not kwargs else 40)
    for b in result.branches:
        assert type(b.outcomes) is tuple and type(b.corrections) is tuple
        assert all(type(x) is int for x in b.outcomes + b.corrections)
        assert type(b.probability) is float and type(b.fidelity) is float


# Raw outcomes per trial, 10 trials each, drawn per trial from its own
# SeedSequence.spawn child with one rng.choice per round (the canonical ones
# recorded with the round-by-round simulator, the skewed ones with the
# sampler that test_sampled_indices_follow_rng_choice ties to the same
# draws).  The skewed sequences depend on the planted channel's local frame,
# since an identity report teleports through the scrambling itself.
PINNED = {
    ("canonical", "bell", 3): "21 02 00 12 30 33 11 31 10 03",
    ("canonical", "bell", 5): "13 10 21 22 00 03 10 10 20 31",
    ("canonical", "bell", 8): "21 11 00 03 12 03 20 00 10 02",
    ("canonical", "circuit", 3): "21 02 00 12 30 33 11 31 10 03",
    ("canonical", "circuit", 5): "13 10 21 22 00 03 10 10 20 31",
    ("canonical", "circuit", 8): "21 11 00 03 12 03 20 00 10 02",
    ("skewed", "bell", 3): "21 02 00 11 30 33 11 31 10 03",
    ("skewed", "bell", 5): "13 10 21 22 00 03 10 10 21 31",
    ("skewed", "bell", 8): "21 11 00 03 12 03 10 00 10 02",
    ("skewed", "circuit", 3): "21 02 00 11 30 33 11 31 10 12",
    ("skewed", "circuit", 5): "12 10 21 22 00 03 10 10 20 31",
    ("skewed", "circuit", 8): "21 11 00 03 12 03 20 00 10 12",
}


@pytest.mark.parametrize("kind,method,seed", sorted(PINNED))
def test_sampled_sequences_are_pinned(kind, method, seed):
    channel = generate_planted(3, 3, 2, seed=16).channel
    report = analyze(channel)
    if kind == "skewed":
        report = _skewed(channel, report)
    result = TELEPORTS[method](channel, random_pure_state(2, 17), report,
                               mode="sample", seed=seed, trials=10)
    got = " ".join("".join(map(str, b.outcomes)) for b in result.branches)
    assert got == PINNED[kind, method, seed]


def _choice_indices(probabilities, k, seed, trials):
    """Reference sampler: each trial's own generator draws every round with
    rng.choice from the conditional given the earlier rounds."""
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        index = 0
        for t in range(k):
            cond = probabilities.reshape(4 ** (t + 1), -1).sum(axis=1)[4 * index:4 * index + 4]
            index = 4 * index + int(rng.choice(4, p=cond / cond.sum()))
        yield index


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sampled_indices_follow_rng_choice(k):
    rng = np.random.default_rng(k)
    for draw in range(20):
        probabilities = rng.random(4 ** k) ** rng.integers(1, 6)
        probabilities[rng.random(4 ** k) < 0.3] = 0.0  # unreachable branches
        probabilities[-1] += 1e-3
        probabilities /= probabilities.sum()
        seed = 1000 * k + draw
        assert (_sampled_indices(probabilities, k, seed, 25).tolist()
                == list(_choice_indices(probabilities, k, seed, 25)))


ENTROPIES = [0, 5, 2**32 - 1, 2**32, 2**100 + 7, None, [1, 2, 3], [9, 8, 7, 6, 5, 4]]


@pytest.mark.parametrize("spawn_key", [(), (1,), (3, 2**40)])
@pytest.mark.parametrize("entropy", ENTROPIES)
def test_trial_uniforms_match_spawned_generators(entropy, spawn_key):
    # spawn_key (1,) is the CLI's sampling seed, SeedSequence(seed).spawn(2)[1]
    seed = np.random.SeedSequence(entropy, spawn_key=spawn_key)

    def fresh():
        return np.random.SeedSequence(seed.entropy, spawn_key=spawn_key)

    # at 1000 trials one k = 8 draw stands for every k: a generator's
    # random(k) is the first k variates of its random(8)
    full = spawned_uniforms(fresh(), 1000, 8)
    for trials in (1, 10, 1000):
        for k in range(1, 9):
            want = full[:, :k] if trials == 1000 else spawned_uniforms(fresh(), trials, k)
            assert np.array_equal(_trial_uniforms(seed, trials, k), want), (trials, k)


@pytest.mark.parametrize("pool_size", [5, 11])
def test_trial_uniforms_follow_pool_size(pool_size):
    seed = np.random.SeedSequence(2**70 + 3, spawn_key=(4,), pool_size=pool_size)
    want = spawned_uniforms(np.random.SeedSequence(2**70 + 3, spawn_key=(4,),
                                                   pool_size=pool_size), 10, 3)
    assert np.array_equal(_trial_uniforms(seed, 10, 3), want)


def _sample(seed, method="bell", trials=30, channel=None, payload=None):
    if channel is None:
        channel, payload = generate_planted(3, 3, 2, seed=16).channel, random_pure_state(2, 17)
    result = TELEPORTS[method](channel, payload, analyze(channel), mode="sample", seed=seed,
                               trials=trials)
    return [b.outcomes for b in result.branches]


def test_seed_sequence_is_read_not_advanced():
    seed = np.random.SeedSequence(11)
    seed.spawn(7)
    first = _sample(seed)
    assert seed.n_children_spawned == 7
    assert _sample(seed) == first
    # trial i uses the child the next spawn would hand out i-th
    reference = np.random.SeedSequence(11)
    reference.spawn(7)
    assert np.array_equal(_trial_uniforms(seed, 30, 2), spawned_uniforms(reference, 30, 2))
    assert first != _sample(np.random.SeedSequence(11))


def test_spawn_count_stays_below_2_32():
    def near_end():
        return np.random.SeedSequence(5, n_children_spawned=2**32 - 3)

    assert np.array_equal(_trial_uniforms(near_end(), 2, 3), spawned_uniforms(near_end(), 2, 3))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _trial_uniforms(near_end(), 3, 3)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _sample(near_end(), trials=3)


class _NoSpawn(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError("sample mode spawned a child SeedSequence")


@pytest.mark.parametrize("method", sorted(TELEPORTS))
def test_sample_mode_builds_no_generator(monkeypatch, method):
    want = _sample(7, method)
    assert _sample(_NoSpawn(7), method) == want

    def refuse(*args, **kwargs):
        raise AssertionError("sample mode built a generator")

    channel, payload = generate_planted(3, 3, 2, seed=16).channel, random_pure_state(2, 17)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert _sample(7, method, channel=channel, payload=payload) == want


def test_trial_estimate_bounds_its_peak():
    # k-qubit payloads over Bell stacks, 5 the most the qubit cap admits:
    # the peak is the walk's joint-state copies plus the trials' streams
    trials = 10000
    for k in (4, 5):
        channel, payload = n_bell_channel(k), random_pure_state(k, seed=5)
        report = analyze(channel)
        estimate = trials * _TRIAL_BYTES + _JOINT_COPIES * 16 * 2 ** (3 * k) + _RUN_BYTES
        tracemalloc.start()
        try:
            teleport_bell(channel, payload, report, mode="sample", seed=1, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate / 2 < peak <= estimate, k
