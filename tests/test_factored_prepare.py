"""The teleport step's canonicalization through the purifier's small
factors, against the dense product; the report's ownership of its
matrices; the dense purifier built only on request, within the memory
budget; and analyze plus teleport at the 16-qubit cap."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from telecap import capacity
from telecap.capacity import _LowRank, analyze, canonical_state, certify, synthesize_u_a
from telecap.cli import main, save_state_file
from telecap.corpus import generate_planted
from telecap.states import random_pure_state
from telecap.teleport import _prepare, teleport_bell, teleport_circuit

# splits on both sides of 2r < 2**max(m, n), in both orientations
SPLITS = [(3, 1), (4, 1), (5, 2), (6, 1), (4, 2), (2, 1), (3, 2), (3, 3), (4, 4)]
PLANTED_GRID = [(m, n, d) for m, n in SPLITS for d in range(1, min(m, n) + 1)]
PLANTED_GRID += [(n, m, d) for m, n, d in PLANTED_GRID if m != n]


def _planted(m, n, d):
    return generate_planted(m, n, d, seed=500 + 16 * m + 4 * n + d).channel


@pytest.mark.parametrize("m,n,d", PLANTED_GRID)
def test_factored_prepare_matches_dense(m, n, d):
    channel = _planted(m, n, d)
    rep = analyze(channel)
    dense = dataclasses.replace(rep)
    assert dense._purifier is None
    payload = random_pure_state(d, seed=m + n)
    got = _prepare(channel, payload, rep)
    want = _prepare(channel, payload, dense)
    assert got.shape == want.shape == (8 ** d, 1 << (m + n - 2 * d))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_grid_reaches_factors_in_both_orientations():
    factored = {}
    for m, n, d in PLANTED_GRID:
        rep = analyze(_planted(m, n, d))
        factored.setdefault(isinstance(rep._purifier, _LowRank), set()).add(rep.swapped)
    assert factored == {True: {False, True}, False: {False, True}}


def test_replaced_report_carries_no_factors():
    rep = analyze(_planted(6, 1, 1))
    assert isinstance(rep._purifier, _LowRank)
    for own in (dataclasses.replace(rep), dataclasses.replace(rep, u_a=rep.u_a.copy())):
        assert own._purifier is None
    assert not rep._purifier.w.flags.writeable and not rep._purifier.dc.flags.writeable


def _recording(log):
    """An ndarray type that logs the operand shapes of every numpy
    operation it takes part in, and passes the mark on to its results."""

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            log.append(tuple(getattr(x, "shape", ()) for x in inputs))
            plain = [x.view(np.ndarray) if isinstance(x, Recording) else x for x in inputs]
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Recording) if isinstance(out, np.ndarray) else out

        def __array_function__(self, func, types, args, kwargs):
            log.append(tuple(x.shape for x in args if isinstance(x, np.ndarray)))
            return super().__array_function__(func, types, args, kwargs)

    return Recording


@pytest.mark.parametrize("m,n", [(10, 1), (1, 10)])
def test_lopsided_teleport_multiplies_no_wide_operator(m, n):
    channel = generate_planted(m, n, 1, seed=10 * m + n).channel
    rep = analyze(channel)
    shapes = []
    recording = _recording(shapes)
    for name in ("u_a", "u_b"):
        object.__setattr__(rep, name, getattr(rep, name).view(recording))
    object.__setattr__(rep, "_purifier",
                       _LowRank(rep._purifier.w.view(recording), rep._purifier.dc.view(recording)))
    res = teleport_bell(channel, random_pure_state(1, seed=4), rep)
    assert res.min_fidelity >= 1 - 1e-9
    widths = {s for operands in shapes for s in operands}
    assert (1024, 4) in widths or (4, 1024) in widths  # W took part
    assert (1024, 1024) not in widths


def test_analyze_builds_no_dense_sender_unitary():
    channel = generate_planted(11, 1, 1, seed=111).channel
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rep = analyze(channel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.u_a.shape == (2048, 2048)
    assert peak < rep.u_a.nbytes / 16


@pytest.mark.parametrize("m,n", [(6, 1), (1, 6)])
def test_dense_purifier_assembled_once_on_read(monkeypatch, tmp_path, m, n):
    calls = []
    dense = _LowRank.dense
    monkeypatch.setattr(_LowRank, "dense", lambda lr: calls.append(lr.w.shape) or dense(lr))
    channel = generate_planted(m, n, 1, seed=60 + m).channel
    rep = analyze(channel)
    payload = random_pure_state(1, seed=6)
    for run in (teleport_bell, teleport_circuit):
        assert run(channel, payload, rep).min_fidelity >= 1 - 1e-9
        assert run(channel, payload, rep, mode="sample", seed=1, trials=3).min_fidelity >= 1 - 1e-9
    canonical_state(channel, rep)
    path = str(tmp_path / "c.json")
    save_state_file(path, channel.state, channel.alice, channel.bob)
    for argv in (["analyze", path], ["verify", path, "1"], ["teleport", path],
                 ["teleport", path, "--method", "circuit", "--mode", "sample", "--trials", "4"]):
        assert main(argv) == 0
    assert calls == []
    purifier = rep.u_b if rep.swapped else rep.u_a
    assert calls == [(64, 4)] and not purifier.flags.writeable
    assert (rep.u_b if rep.swapped else rep.u_a) is purifier and len(calls) == 1
    w, dc = rep._purifier.w, rep._purifier.dc
    assert np.array_equal(purifier, np.eye(64) + w @ dc @ w.conj().T)
    # once read, the dense field is not what a teleport multiplies by
    assert teleport_bell(channel, payload, rep).min_fidelity >= 1 - 1e-9
    assert len(calls) == 1 and isinstance(rep._purifier, _LowRank)


@pytest.mark.parametrize("m,n", [(14, 1), (1, 14), (13, 2), (2, 13)])
def test_analyze_and_teleport_at_the_cap(m, n):
    channel = generate_planted(m, n, min(m, n), seed=16 * m + n).channel
    payload = random_pure_state(1, seed=m)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = analyze(channel)
        fidelities = [run(channel, payload, rep).min_fidelity
                      for run in (teleport_bell, teleport_circuit)]
        verdicts = [certify(channel, d)[1] for d in (rep.capacity, rep.capacity + 1)]
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.capacity == min(m, n) and isinstance(rep._purifier, _LowRank)
    assert min(fidelities) >= 1 - 1e-9
    assert verdicts == [True, None]
    assert elapsed < 1.0
    assert peak < 64 * 2**20


def test_dense_purifier_refused_above_budget(monkeypatch):
    channel = generate_planted(9, 1, 1, seed=91).channel
    rep = analyze(channel)  # the 4 MiB purifier stays factored
    monkeypatch.setattr(capacity, "DENSE_BUDGET_BYTES", 1 << 20)
    assert teleport_bell(channel, random_pure_state(1, seed=9), rep).min_fidelity >= 1 - 1e-9
    for read in (lambda: rep.u_a, lambda: synthesize_u_a(channel, rep.u_b, 1)):
        with pytest.raises(ValueError, match="purifier needs 4,194,304 bytes, above the 1,048,576-byte budget"):
            read()
    monkeypatch.setattr(capacity, "DENSE_BUDGET_BYTES", 4 << 20)
    assert rep.u_a.shape == (512, 512)


def test_refusal_never_reads_as_within_budget():
    # one byte over the 3 GiB budget must not read as at it
    with pytest.raises(ValueError) as refused:
        capacity._check_budget((3 << 30) + 1, "x")
    assert str(refused.value) == ("x needs 3,221,225,473 bytes, "
                                  "above the 3,221,225,472-byte budget")
    capacity._check_budget(3 << 30, "x")  # at the budget itself nothing is refused


def test_report_adopts_frozen_arrays_and_copies_others():
    rep = analyze(_planted(4, 2, 2))
    same = dataclasses.replace(rep, capacity=rep.capacity)
    assert same.u_a is rep.u_a and same.u_b is rep.u_b
    view = rep.u_a[:, :]
    assert dataclasses.replace(rep, u_a=view).u_a is not view
    real = np.eye(rep.u_a.shape[0])
    real.setflags(write=False)
    assert dataclasses.replace(rep, u_a=real).u_a.dtype == np.complex128


@pytest.mark.parametrize("split,other,factored", [
    ((2, 2), (3, 1), False), ((3, 2), (2, 3), False), ((3, 1), (1, 3), True),
    ((6, 1), (1, 6), True), ((6, 1), (5, 2), True), ((1, 6), (6, 1), True),
], ids=["dense", "dense-mirrored", "factored-small", "factored-mirrored", "factored-resplit",
        "swapped-factored"])
def test_report_of_another_split_rejected(split, other, factored):
    rep = analyze(_planted(*split, 1))
    assert isinstance(rep._purifier, _LowRank) == factored
    assert rep.swapped == (split[0] < split[1])
    channel = _planted(*other, 1)
    with pytest.raises(ValueError, match="do not match the channel's parties"):
        teleport_bell(channel, random_pure_state(1, seed=5), rep)
    with pytest.raises(ValueError, match="do not match the channel's parties"):
        canonical_state(channel, rep)
