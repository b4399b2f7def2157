import errno
import json
import os
import signal
import stat
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oracle import state_file_json
from telecap import capacity, cli
from telecap.capacity import analyze
from telecap.cli import (
    _REPORT_BYTES_PER_ENTRY,
    EXIT_CAPACITY,
    EXIT_FIDELITY,
    EXIT_INFEASIBLE,
    EXIT_MALFORMED,
    EXIT_NORM,
    EXIT_OK,
    CliFailure,
    _write_report,
    decode_state,
    load_state_file,
    main,
    save_state_file,
)
from telecap.corpus import generate_planted, n_bell_channel
from telecap.states import PureState, basis_state, random_pure_state
from telecap.teleport import teleport_bell


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def bell_file(tmp_path):
    ch = n_bell_channel(1)
    path = tmp_path / "bell.json"
    save_state_file(str(path), ch.state, ch.alice, ch.bob)
    return str(path)


@pytest.fixture
def planted_file(tmp_path, run):
    path = tmp_path / "planted.json"
    code, _, _ = run("generate", 2, 2, 1, "--seed", 7, "-o", path)
    assert code == EXIT_OK
    return str(path)


def child_env():
    """The environment for a child python that imports this telecap."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def bell_doc():
    return json.loads(json.dumps({
        "format": "telecap-state",
        "qubits": 2,
        "amplitudes": [[0.0, 0.0], [2 ** -0.5, 0.0], [-(2 ** -0.5), 0.0], [0.0, 0.0]],
        "alice": [0],
        "bob": [1],
    }))


class TestAnalyzeCommand:
    def test_bell_pair(self, run, bell_file):
        code, out, _ = run("analyze", bell_file)
        assert code == EXIT_OK
        assert "entropy=1.000000 capacity=1" in out
        assert "cluster value=0.500000000 multiplicity=2 v2=1" in out
        assert "pair 0: alice_qubit=0 bob_qubit=1" in out

    def test_report_file(self, run, bell_file, tmp_path):
        report = tmp_path / "report.json"
        code, _, _ = run("analyze", bell_file, "--report", report)
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["capacity"] == 1
        assert doc["eta"] is None
        (cluster,) = doc["clusters"]
        assert cluster["value"] == pytest.approx(0.5, abs=1e-12)
        assert cluster["multiplicity"] == 2 and cluster["v2"] == 1
        u_b = np.array([[complex(re, im) for re, im in row] for row in doc["u_b"]])
        assert np.max(np.abs(u_b.conj().T @ u_b - np.eye(2))) < 1e-9

    @pytest.mark.parametrize("m,n,d,factored,swapped", [
        (3, 3, 1, False, False), (6, 1, 1, True, False), (2, 4, 2, True, True)],
        ids=["dense", "factored", "swapped"])
    def test_report_has_json_dumps_bytes(self, run, tmp_path, m, n, d, factored, swapped):
        ch = generate_planted(m, n, d, seed=5).channel
        rep = analyze(ch)
        assert (rep._purifier_factors is not None, rep.swapped) == (factored, swapped)
        path, report = tmp_path / "c.json", tmp_path / "r.json"
        save_state_file(str(path), ch.state, ch.alice, ch.bob)
        assert run("analyze", path, "--report", report)[0] == EXIT_OK
        text = report.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_missing_file(self, run, tmp_path):
        code, _, err = run("analyze", tmp_path / "nope.json")
        assert code == EXIT_MALFORMED and "cannot read" in err

    def test_unwritable_report(self, run, bell_file, tmp_path):
        report = tmp_path / "missing" / "r.json"
        code, out, err = run("analyze", bell_file, "--report", report)
        assert code == EXIT_INFEASIBLE and "capacity=1" in out
        assert err == f"error: cannot write {report}: {os.strerror(errno.ENOENT)}\n"
        assert not report.parent.exists()

    def test_report_refused_above_budget(self, run, tmp_path, monkeypatch):
        path, report = tmp_path / "c.json", tmp_path / "report.json"
        assert run("generate", 6, 1, 1, "--seed", 3, "-o", path)[0] == EXIT_OK
        # 4**6 + 4**1 entries at _REPORT_BYTES_PER_ENTRY: about 0.9 MiB
        monkeypatch.setattr(capacity, "DENSE_BUDGET_BYTES", 1 << 19)
        code, out, err = run("analyze", path, "--report", report)
        assert code == EXIT_INFEASIBLE and "capacity=1" in out
        assert err == "error: the --report document needs 984,000 bytes, above the 524,288-byte budget\n"
        assert not report.exists()
        monkeypatch.setattr(capacity, "DENSE_BUDGET_BYTES", 3 << 20)
        assert run("analyze", path, "--report", report)[0] == EXIT_OK
        assert len(json.loads(report.read_text())["u_a"]) == 64

    def test_report_out_of_memory_leaves_no_file(self, run, bell_file, tmp_path, monkeypatch):
        report = tmp_path / "report.json"

        def exhausted(doc):
            raise MemoryError

        # the writer lays the document out before it opens the file
        monkeypatch.setattr(cli, "dump_document", exhausted)
        code, out, err = run("analyze", bell_file, "--report", report)
        assert code == EXIT_INFEASIBLE and "capacity=1" in out
        assert err == "error: out of memory\n"
        assert not report.exists()

    def test_report_estimate_bounds_its_peak(self, tmp_path):
        rep = analyze(generate_planted(6, 1, 1, seed=3).channel)
        entries = 4 ** 6 + 4 ** 1
        tracemalloc.start()
        try:
            _write_report(str(tmp_path / "report.json"), rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert entries * _REPORT_BYTES_PER_ENTRY / 2 < peak <= entries * _REPORT_BYTES_PER_ENTRY


class TestVerifyCommand:
    def test_holds_at_capacity(self, run, planted_file):
        code, out, _ = run("verify", planted_file, 1)
        assert code == EXIT_OK
        assert "condition holds at capacity=1" in out

    def test_divisibility_violation(self, run, planted_file):
        code, _, err = run("verify", planted_file, 2)
        assert code == EXIT_INFEASIBLE and "not divisible" in err

    def test_violation_names_the_first_offending_cluster(self, run, tmp_path):
        # clusters 0.3 x2, 0.25, 0.15: at d=2 the first one already fails,
        # although the later singletons have the lower 2-adic valuation
        schmidt = np.sqrt([0.3, 0.3, 0.25, 0.15])
        path = tmp_path / "skew.json"
        save_state_file(str(path), PureState(np.diag(schmidt).ravel()), (0, 1), (2, 3))
        code, _, err = run("verify", path, 2)
        assert code == EXIT_INFEASIBLE
        assert err == "error: multiplicity 2 at value 0.300000000 is not divisible by 2**2\n"

    def test_out_of_range_claim(self, run, planted_file):
        code, _, err = run("verify", planted_file, 3)
        assert code == EXIT_INFEASIBLE and "outside" in err


class TestTeleportCommand:
    def test_default_payload(self, run, bell_file):
        code, out, _ = run("teleport", bell_file)
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("branch ")]
        assert len(lines) == 4
        assert all("probability=0.250000000" in l for l in lines)
        assert all("fidelity=1.000000000000" in l for l in lines)
        assert "min_fidelity=1.000000000000" in out

    def test_default_payload_fits_the_qubit_cap(self, run, tmp_path):
        # a 15-qubit channel of capacity 2 leaves room for a 1-qubit payload
        path = tmp_path / "c213.json"
        assert run("generate", 2, 13, 2, "--seed", 3, "-o", path)[0] == EXIT_OK
        code, out, _ = run("teleport", path)
        assert code == EXIT_OK and "capacity=2" in out
        assert "payload_qubits=1 " in out and "min_fidelity=1.000000000000" in out

    @pytest.mark.parametrize("qubits,split", [(16, 8), (16, 15), (16, 1)])
    def test_no_room_for_default_payload(self, run, qubits, split):
        # the CNOT-chain check and the analysis stay cheap at the cap in
        # every split, so the refusal comes in well under a second
        start = time.perf_counter()
        code, _, err = run("demo-ghz", qubits, split)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INFEASIBLE
        assert err == "error: the channel fills the 16-qubit cap and leaves no room for a payload\n"

    def test_sample_mode(self, run, planted_file):
        code, out, _ = run("teleport", planted_file, "--mode", "sample",
                           "--trials", 5, "--seed", 3, "--method", "circuit")
        assert code == EXIT_OK
        assert len([l for l in out.splitlines() if l.startswith("branch ")]) == 5

    def test_sampled_run_prints_every_trial(self, run, tmp_path):
        # every trial prints its own line, rendered from the seeded result
        ch, payload = generate_planted(5, 5, 4, seed=3).channel, random_pure_state(4, seed=9)
        path, payload_path = tmp_path / "c.json", tmp_path / "p.json"
        save_state_file(str(path), ch.state, ch.alice, ch.bob)
        save_state_file(str(payload_path), payload)
        trials = 20000
        code, out, _ = run("teleport", path, payload_path, "--mode", "sample",
                           "--trials", trials, "--seed", 3)
        assert code == EXIT_OK
        rep = analyze(ch)
        res = teleport_bell(ch, payload, rep, mode="sample", trials=trials,
                            seed=np.random.SeedSequence(3).spawn(2)[1])
        assert len(res.branches) == trials
        lines = [f"entropy={rep.entropy_bits:.6f} capacity={rep.capacity}",
                 f"payload_qubits=4 method=bell branches={trials}"]
        for b in res.branches:
            bits = "".join(f"{r:02b}" for r in b.outcomes)
            lines.append(f"branch message={bits} probability={b.probability:.9f} "
                         f"fidelity={b.fidelity:.12f}")
        lines.append(f"min_fidelity={res.min_fidelity:.12f}")
        assert out == "\n".join(lines) + "\n"

    def test_sampled_trials_refused_above_budget(self, run, bell_file, monkeypatch):
        # 1000 trials at teleport._TRIAL_BYTES: 720,000 bytes
        monkeypatch.setattr(capacity, "DENSE_BUDGET_BYTES", 1 << 19)
        code, out, err = run("teleport", bell_file, "--mode", "sample", "--trials", 1000)
        assert code == EXIT_INFEASIBLE and "capacity=1" in out and "branch" not in out
        assert err == ("error: the record of 1,000 sampled trials needs 720,000 bytes, "
                       "above the 524,288-byte budget\n")
        code, out, _ = run("teleport", bell_file, "--mode", "sample", "--trials", 700)
        assert code == EXIT_OK and " branches=700\n" in out

    def test_payload_file(self, run, bell_file, tmp_path):
        payload = tmp_path / "payload.json"
        save_state_file(str(payload), random_pure_state(1, 5))
        code, out, _ = run("teleport", bell_file, payload)
        assert code == EXIT_OK and "min_fidelity=1.000000000000" in out

    def test_oversized_payload(self, run, bell_file, tmp_path):
        payload = tmp_path / "payload.json"
        save_state_file(str(payload), random_pure_state(2, 5))
        code, _, err = run("teleport", bell_file, payload)
        assert code == EXIT_CAPACITY and "teleports 1" in err

    def test_capacity_zero_channel(self, run, tmp_path):
        doc = bell_doc()
        doc["amplitudes"] = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]
        path = write_doc(tmp_path, "product.json", doc)
        code, _, err = run("teleport", path)
        assert code == EXIT_CAPACITY and "capacity is 0" in err

    def test_channel_as_payload_rejected(self, run, bell_file):
        code, _, err = run("teleport", bell_file, bell_file)
        assert code == EXIT_MALFORMED and "channel file" in err

    def test_noisy_channel_fails_fidelity(self, run, tmp_path):
        # close enough to a Bell pair to pass analysis at loose eps, far
        # enough that no branch stays above the fidelity floor
        delta = 0.02
        v = np.array([delta, 1.0, -1.0, 0.0])
        v = v / np.linalg.norm(v)
        doc = bell_doc()
        doc["amplitudes"] = [[float(x), 0.0] for x in v]
        path = write_doc(tmp_path, "noisy.json", doc)
        code, out, err = run("teleport", path, "--eps", 0.1)
        assert code == EXIT_FIDELITY
        assert "capacity=1" in out
        assert "below" in err


class TestGenerateCommand:
    def test_writes_channel(self, run, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run("generate", 3, 2, 2, "--seed", 1, "-o", path)
        assert code == EXIT_OK
        assert "planted capacity=2 qubits=3+2 seed=1" in out
        state, alice, bob = load_state_file(str(path))
        assert state.n_qubits == 5 and alice == (0, 1, 2) and bob == (3, 4)

    def test_stdout_mode(self, run):
        code, out, _ = run("generate", 1, 1, 1, "--seed", 2)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["qubits"] == 2 and len(doc["amplitudes"]) == 4

    def test_stdout_matches_json_oracle(self, run):
        code, out, _ = run("generate", 3, 2, 1, "--seed", 5)
        ch = generate_planted(3, 2, 1, seed=5).channel
        assert code == EXIT_OK
        assert out == state_file_json(ch.state, ch.alice, ch.bob)

    def test_deterministic(self, run, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run("generate", 2, 2, 1, "--seed", 9, "-o", p1)
        run("generate", 2, 2, 1, "--seed", 9, "-o", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unwritable_output(self, run, tmp_path):
        path = tmp_path / "missing" / "c.json"
        code, out, err = run("generate", 2, 2, 1, "-o", path)
        assert code == EXIT_INFEASIBLE and out == ""
        assert err == f"error: cannot write {path}: {os.strerror(errno.ENOENT)}\n"
        assert not path.parent.exists()
        # the library writer still raises, for callers that handle OSError
        with pytest.raises(FileNotFoundError):
            save_state_file(str(path), n_bell_channel(1).state)

    def test_infeasible_capacity(self, run, tmp_path):
        code, _, err = run("generate", 1, 2, 2, "-o", tmp_path / "x.json")
        assert code == EXIT_INFEASIBLE and "0..min" in err


# Runs each argv (a JSON list of lists) through main in one child process
# whose writes stop at 8 KiB, and prints the exit codes as the last line.
_CAPPED_RUNS = """
import json, resource, sys
from telecap.cli import main
resource.setrlimit(resource.RLIMIT_FSIZE, (8192, 8192))
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


class TestAllOrNothingOutputs:
    def test_failed_writes_leave_no_trace(self, tmp_path):
        pytest.importorskip("resource")
        channel = tmp_path / "c42.json"
        ch = generate_planted(4, 2, 1, seed=3).channel
        save_state_file(str(channel), ch.state, ch.alice, ch.bob)
        old = tmp_path / "old.json"
        old.write_bytes(b"old bytes\n")
        old.chmod(0o640)
        argvs = [["analyze", str(channel), "--report", str(tmp_path / "r.json")],
                 ["generate", "9", "1", "1", "-o", str(tmp_path / "big.json")],
                 ["analyze", str(channel), "--report", str(old)],
                 ["generate", "9", "1", "1", "-o", str(old)]]
        device = os.path.exists("/dev/full")
        if device:
            argvs.append(["analyze", str(channel), "--report", "/dev/full"])
        before = sorted(os.listdir(tmp_path))
        proc = subprocess.run([sys.executable, "-c", _CAPPED_RUNS, json.dumps(argvs)],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_INFEASIBLE] * len(argvs)
        assert proc.stderr.count("error: cannot write ") == len(argvs)
        assert "Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == before
        assert old.read_bytes() == b"old bytes\n"
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        if device:
            assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    def test_written_files_get_open_permissions(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        state = n_bell_channel(1).state
        new, old, link = tmp_path / "new.json", tmp_path / "old.json", tmp_path / "link.json"
        save_state_file(str(new), state)
        old.write_bytes(b"old bytes\n")
        old.chmod(0o640)
        link.symlink_to(old)
        save_state_file(str(link), state)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert link.is_symlink()
        assert old.read_bytes() == new.read_bytes() == state_file_json(state).encode()
        assert sorted(os.listdir(tmp_path)) == ["link.json", "new.json", "old.json"]


class TestDemoGhz:
    def test_runs(self, run):
        for qubits, split in ((5, 2), (14, 13)):
            start = time.perf_counter()
            code, out, _ = run("demo-ghz", qubits, split)
            assert time.perf_counter() - start < 1.0
            assert code == EXIT_OK
            assert "cnot_chain_reaches_bell=true" in out
            assert "capacity=1" in out
            assert "min_fidelity=1.000000000000" in out

    def test_bad_split(self, run):
        code, _, err = run("demo-ghz", 3, 3)
        assert code == EXIT_INFEASIBLE and "split" in err


class TestStateFiles:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_writer_matches_json_oracle(self, tmp_path, n, split):
        state = random_pure_state(n, seed=100 + n)
        parties = (tuple(range(n // 2)), tuple(range(n // 2, n))) if split else ()
        path = tmp_path / "s.json"
        save_state_file(str(path), state, *parties)
        assert path.read_text(encoding="ascii") == state_file_json(state, *parties)

    def test_writer_matches_json_oracle_on_edge_amplitudes(self, tmp_path):
        # exact zeros of both signs, one, a small normal and the smallest
        # subnormal magnitude; the norm stays within 1e-9 of one
        v = np.array([1.0, -0.0, 0.0, 1e-05, 5e-324, complex(-0.0, -5e-324),
                      complex(0.0, 1e-05), complex(-0.0, 0.0)])
        state = PureState(v)
        assert state.amplitudes[4] == 5e-324 and np.signbit(state.amplitudes[1].real)
        path = tmp_path / "e.json"
        for parties in ((), ((2,), (0, 1)), ((), ())):
            save_state_file(str(path), state, *parties)
            assert path.read_text(encoding="ascii") == state_file_json(state, *parties)

    def test_roundtrip_bytes_fixed_point(self, tmp_path, run):
        path = tmp_path / "ch.json"
        run("generate", 2, 2, 1, "--seed", 4, "-o", path)
        first = path.read_bytes()
        state, alice, bob = load_state_file(str(path))
        save_state_file(str(path), state, alice, bob)
        assert path.read_bytes() == first

    def test_negative_zero_survives(self, tmp_path):
        v = np.array([0.0 + 0.0j, -0.0 + 1.0j])
        path = tmp_path / "z.json"
        save_state_file(str(path), PureState(v / np.linalg.norm(v)))
        state, _, _ = load_state_file(str(path))
        text1 = path.read_text()
        save_state_file(str(path), state)
        assert path.read_text() == text1

    def test_renormalization_warning(self, run, tmp_path, capsys):
        doc = bell_doc()
        doc["amplitudes"][1][0] *= 1.0 + 1e-8
        path = write_doc(tmp_path, "near.json", doc)
        code, _, err = run("analyze", path)
        assert code == EXIT_OK and "renormalizing" in err

    def test_norm_violation(self, run, tmp_path):
        doc = bell_doc()
        doc["amplitudes"][1][0] *= 1.01
        path = write_doc(tmp_path, "fat.json", doc)
        assert run("analyze", path)[0] == EXIT_NORM

    @pytest.mark.parametrize("mangle", [
        lambda d: d.pop("format"),
        lambda d: d.update(format="other"),
        lambda d: d.update(qubits=3),
        lambda d: d.update(amplitudes=d["amplitudes"][:3]),
        lambda d: d.update(amplitudes=[["x", 0.0]] + d["amplitudes"][1:]),
        lambda d: d.update(amplitudes=[[0.0]] + d["amplitudes"][1:]),
        lambda d: d.pop("bob"),
        lambda d: d.update(alice=[0, "q"]),
    ])
    def test_malformed_documents(self, run, tmp_path, mangle):
        doc = bell_doc()
        mangle(doc)
        path = write_doc(tmp_path, "bad.json", doc)
        assert run("analyze", path)[0] == EXIT_MALFORMED

    def test_invalid_json(self, run, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format": "telecap-state"')
        assert run("analyze", path)[0] == EXIT_MALFORMED

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 200_000, b"[1" + b"0" * 5000 + b"]"],
                             ids=["not-utf8", "over-nested", "integer-too-long"])
    def test_unparsable_file(self, run, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(CliFailure) as info:
            load_state_file(str(path))
        assert info.value.code == EXIT_MALFORMED
        code, out, err = run("analyze", path)
        assert code == EXIT_MALFORMED and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_infinite_amplitude(self, run, tmp_path):
        doc = bell_doc()
        doc["amplitudes"][0][0] = 1e400   # serializes as Infinity
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert run("analyze", path)[0] == EXIT_MALFORMED

    def test_bad_split_channel(self, run, tmp_path):
        doc = bell_doc()
        doc["alice"] = [0, 1]
        doc["bob"] = [1]
        path = write_doc(tmp_path, "split.json", doc)
        assert run("analyze", path)[0] == EXIT_INFEASIBLE

    def test_boolean_qubit_count(self, run, bell_file, tmp_path):
        # true would otherwise pass as a 1-qubit payload
        doc = {"format": "telecap-state", "qubits": True,
               "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(CliFailure) as info:
            decode_state(doc)
        assert info.value.code == EXIT_MALFORMED
        path = write_doc(tmp_path, "payload.json", doc)
        code, _, err = run("teleport", bell_file, path)
        assert code == EXIT_MALFORMED and "qubits" in err

    @pytest.mark.parametrize("alice,bob", [([False], [True]), ([0], [True])])
    def test_boolean_split_labels(self, run, tmp_path, alice, bob):
        doc = bell_doc()
        doc["alice"], doc["bob"] = alice, bob
        path = write_doc(tmp_path, "split.json", doc)
        code, _, err = run("analyze", path)
        assert code == EXIT_MALFORMED and "integer lists" in err


    @pytest.mark.parametrize("pair", [[True, False], [0.0, False], [False, 0.0]])
    def test_boolean_amplitudes(self, run, tmp_path, pair):
        # complex(True, False) is 1+0j, so booleans used to pass as amplitudes
        doc = {"format": "telecap-state", "qubits": 2, "alice": [0], "bob": [1],
               "amplitudes": [[0.0, 0.0], pair, [0.0, 0.0], [0.0, 0.0]]}
        if pair[0] is not True:
            doc["amplitudes"][2] = [1.0, 0.0]
        path = write_doc(tmp_path, "bools.json", doc)
        code, _, err = run("analyze", path)
        assert code == EXIT_MALFORMED and "[re, im] pairs" in err

    def test_integer_amplitude_beyond_float_range(self, run, tmp_path):
        doc = bell_doc()
        text = json.dumps(doc).replace("[0.0, 0.0]", "[1" + "0" * 400 + ", 0]", 1)
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, _, err = run("analyze", path)
        assert code == EXIT_MALFORMED and "finite" in err


class TestProductState:
    @pytest.fixture
    def product_file(self, tmp_path):
        path = tmp_path / "product.json"
        save_state_file(str(path), basis_state((0, 0)), (0,), (1,))
        return str(path)

    def test_entropy_prints_positive_zero(self, run, product_file):
        code, out, _ = run("analyze", product_file)
        assert code == EXIT_OK
        assert out.startswith("entropy=0.000000 capacity=0\n")


class TestArgumentHandling:
    def test_bad_eps(self, run, bell_file):
        code, _, err = run("analyze", bell_file, "--eps", 0)
        assert code == EXIT_INFEASIBLE and "eps" in err

    @pytest.mark.parametrize("eps", ["nan", "inf", "1.0", "1e300"])
    @pytest.mark.parametrize("argv", [["analyze"], ["verify", "2"], ["teleport"]],
                             ids=["analyze", "verify", "teleport"])
    def test_eps_outside_unit_interval(self, run, tmp_path, argv, eps):
        # on a capacity-1 channel, eps >= 1 used to report capacity=2 and
        # nan a failed synthesis
        path = tmp_path / "c.json"
        assert run("generate", 2, 2, 1, "--seed", 3, "-o", path)[0] == EXIT_OK
        code, out, err = run(argv[0], path, *argv[1:], "--eps", eps)
        assert code == EXIT_INFEASIBLE and out == ""
        assert err.count("\n") == 1 and "--eps" in err

    @pytest.mark.parametrize("argv", [["teleport", "CHANNEL", "--seed", "-5"],
                                      ["demo-ghz", "2", "1", "--seed", "-2"],
                                      ["generate", "2", "2", "1", "--seed", "-1"]],
                             ids=["teleport", "demo-ghz", "generate"])
    def test_negative_seed(self, run, bell_file, argv):
        # numpy's own message named no option
        code, out, err = run(*[bell_file if a == "CHANNEL" else a for a in argv])
        assert code == EXIT_INFEASIBLE and out == ""
        assert err == "error: --seed must be a non-negative integer\n"

    def test_unknown_command_exits_two(self, bell_file):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", bell_file])
        assert exc.value.code == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    @pytest.mark.parametrize("argv", [["demo-ghz", "4", "2"], ["generate", "8", "8", "1"]],
                             ids=["demo-ghz", "generate"])
    def test_closed_stdout_ends_by_sigpipe(self, argv):
        # a closed pipe must not read as exit 1, a capacity shortfall
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "telecap", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=child_env(), timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == -signal.SIGPIPE
