"""A report keeps the canonical form of the last channel object it
canonicalized: repeated teleports over one analysis reuse it, bit for bit,
and any other channel object is canonicalized afresh."""

import numpy as np
import pytest

from oracle import sequential_teleport
from telecap import capacity, states
from telecap.capacity import _LowRank, analyze, canonical_state
from telecap.corpus import generate_planted
from telecap.states import ChannelState, PureState, random_pure_state
from telecap.teleport import teleport_bell, teleport_circuit

# the order in which a bench case runs its timed teleports on one report
SAMPLED = {"mode": "sample", "seed": 5, "trials": 24}
SEQUENCE = [(teleport_bell, {}), (teleport_bell, SAMPLED),
            (teleport_circuit, {}), (teleport_circuit, SAMPLED)]


def _counting(log):
    """An ndarray type that logs the name of every ufunc it takes part in;
    its results are plain arrays, so only operations on the marked array
    itself are logged."""

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            log.append(ufunc.__name__)
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    return Counting


def _count_products(report):
    """Mark the report's structural unitary and its purifier (dense, or the
    factors) so that every operation on them is logged; returns the two
    logs.  The cached unitary check runs first, so it is not logged."""
    assert report.unitary
    struct_log, purifier_log = [], []
    structural = "u_a" if report.swapped else "u_b"
    object.__setattr__(report, structural,
                       getattr(report, structural).view(_counting(struct_log)))
    marked = _counting(purifier_log)
    purifier = report._purifier
    if isinstance(purifier, _LowRank):
        purifier = _LowRank(purifier.w.view(marked), purifier.dc.view(marked))
    else:
        purifier = purifier.view(marked)
    object.__setattr__(report, "_purifier", purifier)
    return struct_log, purifier_log


def _planted(m, n, d):
    return generate_planted(m, n, d, seed=3).channel


@pytest.mark.parametrize("m,n,d,factored", [(7, 8, 3, False), (9, 2, 2, True)],
                         ids=["dense", "factored"])
def test_repeated_teleports_reuse_one_product(m, n, d, factored):
    channel = _planted(m, n, d)
    report = analyze(channel)
    assert (report.purifier_factors is not None) == factored
    canonical_state(channel, report)
    assert report._kept is None  # only a teleport fills the slot
    struct_log, purifier_log = _count_products(report)
    payload = random_pure_state(1, seed=11)
    results, after_first = [], None
    for run, kwargs in SEQUENCE:
        results.append(run(channel, payload, report, **kwargs))
        if after_first is None:
            after_first = list(purifier_log)
    assert struct_log == ["matmul"]
    assert after_first and purifier_log == after_first
    assert report._kept[0] is channel
    for (run, kwargs), got in zip(SEQUENCE, results):
        assert got == run(channel, payload, analyze(channel), **kwargs)
    oracle_report = analyze(channel)
    for (run, kwargs), got in zip(SEQUENCE, results):
        if kwargs:
            continue
        method = "bell" if run is teleport_bell else "circuit"
        want = sequential_teleport(channel, payload.amplitudes, oracle_report, method)
        assert [b.outcomes for b in got.branches] == [w[0] for w in want]
        for b, (_, _, probability, fidelity) in zip(got.branches, want):
            assert abs(b.probability - probability) <= 1e-12
            assert abs(b.fidelity - fidelity) <= 1e-12


@pytest.mark.parametrize("m,n,d", [(7, 8, 3), (8, 7, 1), (9, 2, 2)])
def test_repeated_teleports_check_the_kept_form_once(m, n, d, monkeypatch):
    channel = _planted(m, n, d)
    report = analyze(channel)
    payload = random_pure_state(1, seed=11)
    checked, check = [], states._check_unit

    def counted(v):
        checked.append(v.size)
        check(v)

    monkeypatch.setattr(states, "_check_unit", counted)
    monkeypatch.setattr(capacity, "_check_unit", counted)
    after = []
    for run, kwargs in SEQUENCE:
        run(channel, payload, report, **kwargs)
        after.append(len(checked))
    assert after == [1, 1, 1, 1] and checked == [1 << (m + n)]


def test_the_key_is_the_channel_object():
    a = _planted(3, 3, 2)
    amplitudes = np.random.default_rng(8).normal(size=(64, 2)) @ [1, 1j]
    b = ChannelState(PureState(amplitudes / np.linalg.norm(amplitudes)), a.alice, a.bob)
    payload = random_pure_state(2, seed=12)
    report = analyze(a)
    results = []
    for channel in (a, b, a):
        for run, kwargs in SEQUENCE:
            results.append(run(channel, payload, report, **kwargs))
            assert results[-1] == run(channel, payload, analyze(a), **kwargs)
        assert report._kept[0] is channel
    assert results[:4] == results[8:] and all(x != y for x, y in zip(results, results[4:8]))


def test_an_equal_channel_object_is_canonicalized_again():
    channel = _planted(4, 3, 2)
    report = analyze(channel)
    struct_log, _ = _count_products(report)
    payload = random_pure_state(1, seed=13)
    first = teleport_bell(channel, payload, report)
    twin = ChannelState(channel.state, channel.alice, channel.bob)
    assert teleport_bell(twin, payload, report) == first
    assert struct_log == ["matmul", "matmul"] and report._kept[0] is twin


def test_kept_form_checks_the_split_and_is_read_only():
    channel = _planted(3, 3, 2)
    report = analyze(channel)
    payload = random_pure_state(1, seed=14)
    teleport_bell(channel, payload, report)
    kept = report._kept[1]
    assert not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0, 0] = 1.0
    other = ChannelState(channel.state, channel.alice[:2], channel.alice[2:] + channel.bob)
    for run in (teleport_bell, teleport_circuit):
        with pytest.raises(ValueError, match="do not match the channel's parties"):
            run(other, payload, report)
    assert report._kept[1] is kept
